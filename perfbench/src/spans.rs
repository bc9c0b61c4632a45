//! In-memory span recorder for the traced run.
//!
//! A span records its name, start, end, parent span, the unit it belongs
//! to and the heap allocations made inside it. Spans live in memory until
//! the run ends. With tracing off, [`span`] is a plain call, so the
//! untraced run executes the same calls without recording anything.
//! Named counts ([`count`]) are recorded in both modes: they are exact
//! and cost nothing measurable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::counters;

/// Span of the set-up phase (not a unit).
pub const SETUP: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `dc.run`.
    pub name: &'static str,
    /// The unit this span belongs to ([`SETUP`] for set-up).
    pub unit: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Heap allocations made inside the span (children included).
    pub allocs: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    t0: Instant,
    unit: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        // ft-lint: allow(wall-clock): benchmark host timing, never simulated state
        t0: Instant::now(),
        unit: SETUP,
        spans: Vec::new(),
        stack: Vec::new(),
        counts: BTreeMap::new(),
    });
}

/// Turns span recording on or off.
pub fn set_tracing(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

fn now_ns(r: &Recorder) -> u64 {
    u64::try_from(r.t0.elapsed().as_nanos()).expect("runs last far less than 584 years")
}

/// Runs `f` inside a span named `name` (a plain call with tracing off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.stack.last().copied();
        let unit = r.unit;
        let start_ns = now_ns(&r);
        let idx = r.spans.len();
        r.spans.push(Span {
            name,
            unit,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: counters::allocs().0,
        });
        r.stack.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = now_ns(&r);
        r.stack.pop();
        let s = &mut r.spans[idx];
        s.end_ns = end;
        s.allocs = counters::allocs().0 - s.allocs;
    });
    out
}

/// Runs unit `id` inside its root span `unit`; spans opened inside share
/// the unit's id.
pub fn unit<R>(id: u32, f: impl FnOnce() -> R) -> R {
    REC.with(|r| r.borrow_mut().unit = id);
    let out = span("unit", f);
    REC.with(|r| r.borrow_mut().unit = SETUP);
    out
}

/// Adds `v` to the named count.
pub fn count(name: &'static str, v: u64) {
    REC.with(|r| *r.borrow_mut().counts.entry(name).or_insert(0) += v);
}

/// Takes every count, leaving all at zero.
pub fn take_counts() -> BTreeMap<&'static str, u64> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().counts))
}

/// Takes every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of each span: its duration minus what its direct children
/// cover (children never overlap on one thread).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_ns();
        }
    }
    out
}
