//! The repository benchmark: four campaign workloads, end-to-end metrics
//! from an untraced run, per-layer self times from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The run sets up the workload several times (`setup_s` is the median),
//! then runs its units back to back on this one thread until `--seconds`
//! have passed and at least one full pass is done. With `--trace 1` it
//! instead runs half the time untraced, then the same units again with
//! spans recorded, and reports per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `--mutate spin|digest` arms the self-test defects.
//! See `perfbench/README.md` for the workloads and metrics.

mod check;
mod counters;
mod faults;
mod fig8;
mod spans;
mod sustained;
mod unit;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use ft_bench::fingerprint::fnv1a_64;
use ft_dc::harness::DcReport;
use ft_sim::SimTime;

use counters::{CountingAlloc, InstrCounter};
use spans::{count, span, Span, SETUP};
use unit::{mismatch, Mutation, UnitOut, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const WORKLOADS: [&str; 4] = ["fig8-grid", "fault-matrix", "sustained-crash", "check-k1"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    mutation: Mutation,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: 10.0,
        trace: false,
        mutation: Mutation::None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive and finite".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--mutate" => {
                args.mutation = match value.as_str() {
                    "spin" => Mutation::Spin,
                    "digest" => Mutation::Digest,
                    _ => return Err("--mutate takes spin or digest".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required; one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "fig8-grid" => Box::new(fig8::setup(seed)),
        "fault-matrix" => Box::new(faults::setup(seed)),
        "sustained-crash" => Box::new(sustained::setup(seed)),
        _ => Box::new(check::setup(seed)),
    }
}

/// Records the per-layer counts of one Discount Checking run.
pub(crate) fn record_dc(r: &DcReport, queue_ops: u64) {
    count("dc.runs", 1);
    count("dc.events", r.trace.len() as u64);
    count("dc.queue_ops", queue_ops);
    count("dc.commits", r.total_commits());
    count(
        "dc.twopc_retries",
        r.totals.twopc_timeouts + r.totals.twopc_aborts,
    );
    count("mem.traps", r.arena.traps);
    count("mem.commits", r.arena.commits);
    count("mem.committed_bytes", r.arena.committed_bytes);
    count("mem.rollbacks", r.arena.rollbacks);
}

/// Runs a built scenario's failure-free plain baseline; it must complete.
pub(crate) fn plain_baseline(b: ft_bench::scenarios::Built) -> SimTime {
    let (sim, mut apps) = b.into_parts();
    let r = span("sim.plain", || {
        ft_sim::harness::run_plain_on(sim, &mut apps)
    });
    count("sim.plain_events", r.trace.len() as u64);
    assert!(r.all_done, "a failure-free baseline must complete");
    r.runtime
}

/// One unit's host-side measurements.
struct Rec {
    idx: usize,
    pass: usize,
    wall_ns: u64,
    instr: Option<u64>,
    allocs: u64,
    bytes: u64,
    out: Option<UnitOut>,
}

struct Runner {
    wl: Box<dyn Workload>,
    instr: Option<InstrCounter>,
}

impl Runner {
    /// Runs unit `idx`, catching a panic as a failed unit.
    fn run(&mut self, idx: usize, pass: usize) -> Rec {
        let (a0, b0) = counters::allocs();
        let i0 = self.instr.as_mut().map(InstrCounter::read);
        // ft-lint: allow(wall-clock): benchmark host timing, never simulated state
        let t0 = Instant::now();
        let id = u32::try_from(idx).expect("unit indices fit u32");
        let wl = &mut self.wl;
        let out = catch_unwind(AssertUnwindSafe(|| spans::unit(id, || wl.run(idx)))).ok();
        let wall_ns = nanos(t0);
        let i1 = self.instr.as_mut().map(InstrCounter::read);
        let (a1, b1) = counters::allocs();
        Rec {
            idx,
            pass,
            wall_ns,
            instr: i0.zip(i1).map(|(a, b)| b - a),
            allocs: a1 - a0,
            bytes: b1 - b0,
            out,
        }
    }
}

/// Host ns since `t0`.
pub(crate) fn nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).expect("runs last far less than 584 years")
}

/// Nearest-rank percentile of sorted `v`, the percentile in per mille.
fn pct(v: &[u64], permille: usize) -> u64 {
    let rank = (permille * v.len()).div_ceil(1000);
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile (per mille) of a fixed ladder with at least
/// ten samples above it.
fn tail_permille(n: usize) -> Option<usize> {
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Metrics in print order: name → (value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

/// Correctness tally of a run: units attempted and failed (panicked,
/// failed a check, or diverged from their first pass), plus the
/// workload's `failed_frac` verdicts.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    fails: u64,
    base: u64,
}

impl Tally {
    fn add(&mut self, rec: &Rec, first: &mut [Option<u64>]) {
        self.attempted += 1;
        let Some(out) = rec.out else {
            // A panicking unit always counts as failed.
            self.failed += 1;
            self.fails += 1;
            self.base += 1;
            return;
        };
        let diverged = match first[rec.idx] {
            None => {
                first[rec.idx] = Some(out.digest);
                false
            }
            Some(d) => mismatch(out.digest, d),
        };
        let bad = !out.ok || diverged;
        self.failed += u64::from(bad);
        // A unit that failed a check counts against `failed_frac` at
        // least once, whatever its own verdicts.
        self.fails += out.fails + u64::from(bad && out.fails == 0);
        self.base += out.base.max(u64::from(bad));
    }
}

fn main() -> ExitCode {
    // ft-lint: allow(wall-clock): benchmark host timing, never simulated state
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    unit::set_mutation(args.mutation);
    let instr = match InstrCounter::open() {
        Ok(c) => Some(c),
        Err(e) => {
            eprintln!(
                "perfbench: perf_event_open failed (errno {}: {e}); host_instr_per_event is absent",
                e.raw_os_error().unwrap_or(0)
            );
            None
        }
    };

    // Set-up, several times; the first includes process start. With
    // tracing, only the last repetition is traced.
    let mut setup_ns = Vec::new();
    let mut wl = None;
    for rep in 0..SETUP_REPS {
        // ft-lint: allow(wall-clock): benchmark host timing, never simulated state
        let t0 = if rep == 0 { start } else { Instant::now() };
        if rep + 1 == SETUP_REPS {
            spans::set_tracing(args.trace);
            spans::take_counts();
        }
        drop(wl.take());
        wl = Some(setup(args.workload, args.seed));
        spans::set_tracing(false);
        setup_ns.push(nanos(t0));
    }
    let wl = wl.expect("at least one set-up");
    let (checks, check_fails) = wl.cross_checks();
    let setup_counts = spans::take_counts();
    setup_ns.sort_unstable();
    let setup_s = setup_ns[SETUP_REPS / 2] as f64 / 1e9;
    let mut runner = Runner { wl, instr };
    let n = runner.wl.len();
    let budget_ns = u64::try_from(std::time::Duration::from_secs_f64(args.seconds).as_nanos())
        .expect("--seconds fits 584 years");

    // A cross-check against an entry point is a unit of its own.
    let mut tally = Tally {
        attempted: checks,
        failed: check_fails,
        fails: check_fails,
        base: checks,
    };
    let mut first: Vec<Option<u64>> = vec![None; n];
    println!(
        "perfbench: workload {} seed {} — {} units per pass, set-up median {:.3} s of {SETUP_REPS}",
        args.workload, args.seed, n, setup_s
    );
    if checks > 0 {
        println!("cross-checks against entry points: {checks} made, {check_fails} mismatched");
    }

    let metrics = if args.trace {
        traced(
            &mut runner,
            budget_ns,
            setup_counts,
            &mut tally,
            &mut first,
            &args,
        )
    } else {
        untraced(&mut runner, budget_ns, setup_s, &mut tally, &mut first)
    };
    let Some(metrics) = metrics else {
        return ExitCode::FAILURE;
    };
    println!(
        "failed_frac: {:.6} ({} of {} {})",
        ratio(tally.fails, tally.base),
        tally.fails,
        tally.base,
        runner.wl.base_name()
    );
    println!(
        "units: {} attempted, {} failed (panicked, failed a check, or diverged from the first pass)",
        tally.attempted, tally.failed
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        json_line(correct, tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Wall-time figures of a measured phase.
struct Timing {
    /// Simulated events per second, over event-reporting units.
    events_per_s: f64,
    /// Units per second.
    units_per_s: f64,
    /// Median of the per-unit medians, ns.
    p50_ns: f64,
    /// Distinct units that ran.
    units: usize,
    /// `(percentile in per mille, ns)` over every unit run.
    tail: Option<(usize, u64)>,
}

/// Timing figures of the unit runs. Rates and the median use each unit's
/// median over its passes, so a burst of host interference on one pass
/// does not move them; the tail, by definition, uses every run.
fn timing(recs: &[Rec], n: usize) -> Timing {
    let mut per_unit: Vec<(Vec<u64>, u64)> = vec![(Vec::new(), 0); n];
    for r in recs {
        per_unit[r.idx].0.push(r.wall_ns);
        per_unit[r.idx].1 = r.out.map_or(0, |o| o.events);
    }
    // (median ns, events) of every unit that ran.
    let med: Vec<(f64, u64)> = per_unit
        .into_iter()
        .filter(|(t, _)| !t.is_empty())
        .map(|(mut t, ev)| {
            t.sort_unstable();
            ((t[(t.len() - 1) / 2] + t[t.len() / 2]) as f64 / 2.0, ev)
        })
        .collect();
    let total: f64 = med.iter().map(|&(m, _)| m).sum();
    let (ev, ev_ns) = med
        .iter()
        .filter(|&&(_, ev)| ev > 0)
        .fold((0u64, 0f64), |(e, t), &(m, ev)| (e + ev, t + m));
    let mut meds: Vec<f64> = med.iter().map(|&(m, _)| m).collect();
    meds.sort_by(f64::total_cmp);
    let mut all: Vec<u64> = recs.iter().map(|r| r.wall_ns).collect();
    all.sort_unstable();
    Timing {
        events_per_s: if ev_ns > 0.0 {
            ev as f64 / (ev_ns / 1e9)
        } else {
            0.0
        },
        units_per_s: med.len() as f64 / (total / 1e9),
        p50_ns: (meds[(meds.len() - 1) / 2] + meds[meds.len() / 2]) / 2.0,
        units: med.len(),
        tail: tail_permille(all.len()).map(|p| (p, pct(&all, p))),
    }
}

/// The untraced run: end-to-end metrics.
fn untraced(
    runner: &mut Runner,
    budget_ns: u64,
    setup_s: f64,
    tally: &mut Tally,
    first: &mut [Option<u64>],
) -> Option<Metrics> {
    let n = runner.wl.len();
    let mut recs = Vec::new();
    // ft-lint: allow(wall-clock): benchmark host timing, never simulated state
    let t0 = Instant::now();
    let mut k = 0;
    while k < n || nanos(t0) < budget_ns {
        recs.push(runner.run(k % n, k / n));
        k += 1;
    }
    let wall_ns = nanos(t0);
    for r in &recs {
        tally.add(r, first);
    }
    // Workload digest over the first pass, in unit order.
    let bytes: Vec<u8> = first
        .iter()
        .flat_map(|d| d.unwrap_or(0).to_le_bytes())
        .collect();
    println!(
        "digest: {:016x} over the {n} units of the first pass",
        fnv1a_64(&bytes)
    );
    let full_passes = recs.len() / n;
    println!(
        "measured: {} units ({} full passes) in {:.3} s",
        recs.len(),
        full_passes,
        wall_ns as f64 / 1e9
    );

    let events = |r: &Rec| r.out.map_or(0, |o| o.events);
    let wall = timing(&recs, n);
    // Per-event counts use full passes only, so a run's partial last
    // pass cannot shift its unit mix.
    let counted: Vec<&Rec> = recs
        .iter()
        .filter(|r| events(r) > 0 && r.pass < full_passes)
        .collect();
    let ev_counted: u64 = counted.iter().map(|r| events(r)).sum();
    if ev_counted == 0 || wall.events_per_s == 0.0 {
        eprintln!("perfbench: no unit reported simulated events");
        return None;
    }
    let mut m: Metrics = vec![
        ("setup_s", setup_s, "s"),
        ("sim_events_per_s", wall.events_per_s, "1/s"),
        ("units_per_s", wall.units_per_s, "1/s"),
        ("unit_ms_p50", wall.p50_ns / 1e6, "ms"),
    ];
    println!(
        "unit_ms_p50 is the median of {} units' per-unit medians; rates use the same medians",
        wall.units
    );
    match wall.tail {
        Some((p, ns)) => {
            println!(
                "unit_ms_tail is p{} of all {} unit runs",
                p as f64 / 10.0,
                recs.len()
            );
            m.push(("unit_ms_tail", ns as f64 / 1e6, "ms"));
        }
        None => println!("unit_ms_tail omitted: {} unit runs is too few", recs.len()),
    }
    let instr: Option<u64> = counted.iter().map(|r| r.instr).sum();
    match instr {
        Some(i) => m.push((
            "host_instr_per_event",
            i as f64 / ev_counted as f64,
            "count",
        )),
        None => println!("host_instr_per_event absent: no instruction counter"),
    }
    let allocs: u64 = counted.iter().map(|r| r.allocs).sum();
    let bytes: u64 = counted.iter().map(|r| r.bytes).sum();
    m.push((
        "allocs_per_event",
        allocs as f64 / ev_counted as f64,
        "count",
    ));
    m.push((
        "alloc_bytes_per_event",
        bytes as f64 / ev_counted as f64,
        "B",
    ));
    match counters::peak_rss_kib() {
        Some(kib) => m.push(("peak_rss_mb", kib as f64 / 1024.0, "MB")),
        None => println!("peak_rss_mb absent: /proc/self/status has no VmHWM"),
    }
    println!(
        "per-event figures cover {} of {} units ({} events)",
        counted.len(),
        recs.len(),
        ev_counted
    );
    Some(m)
}

/// The traced run: half the budget untraced, then the same units traced;
/// per-layer metrics from the spans.
fn traced(
    runner: &mut Runner,
    budget_ns: u64,
    setup_counts: BTreeMap<&'static str, u64>,
    tally: &mut Tally,
    first: &mut [Option<u64>],
    args: &Args,
) -> Option<Metrics> {
    let n = runner.wl.len();
    // ft-lint: allow(wall-clock): benchmark host timing, never simulated state
    let t0 = Instant::now();
    let mut order = Vec::new();
    while order.is_empty() || nanos(t0) < budget_ns / 2 {
        let k = order.len();
        runner.run(k % n, k / n);
        order.push(k);
    }
    let plain_ns = nanos(t0);
    spans::take_counts();
    spans::set_tracing(true);
    // ft-lint: allow(wall-clock): benchmark host timing, never simulated state
    let t1 = Instant::now();
    let recs: Vec<Rec> = order.iter().map(|&k| runner.run(k % n, k / n)).collect();
    let traced_ns = nanos(t1);
    spans::set_tracing(false);
    for r in &recs {
        tally.add(r, first);
    }
    let mut counts = setup_counts;
    for (k, v) in spans::take_counts() {
        *counts.entry(k).or_insert(0) += v;
    }
    let all = spans::take();
    let selfs = spans::self_ns(&all);
    write_trace(&all, &selfs, args);

    // Self time, call count and allocations per span name.
    let mut by: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &own) in all.iter().zip(&selfs) {
        let e = by.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
        e.2 += s.allocs;
    }
    // Closure: each unit's duration is its layers' self times plus its
    // own unattributed self time.
    let mut unit_dur = 0u64;
    let mut layer_self = 0u64;
    for (s, &own) in all.iter().zip(&selfs) {
        if s.unit == SETUP {
            continue;
        }
        if s.name == "unit" {
            unit_dur += s.dur_ns();
        } else {
            layer_self += own;
        }
    }
    let unit_self = by.get("unit").map_or(0, |e| e.0);
    println!(
        "closure: units {:.3} ms = layers {:.3} ms + unit self {:.3} ms",
        unit_dur as f64 / 1e6,
        layer_self as f64 / 1e6,
        unit_self as f64 / 1e6
    );
    assert_eq!(
        unit_dur,
        layer_self + unit_self,
        "span self times must close"
    );
    println!(
        "traced {} units: {:.3} s traced vs {:.3} s untraced",
        recs.len(),
        traced_ns as f64 / 1e9,
        plain_ns as f64 / 1e9
    );

    let c = |k: &str| counts.get(k).copied().unwrap_or(0);
    let self_of = |k: &str| by.get(k).map_or(0, |e| e.0);
    let us_per_call = |k: &str| by.get(k).map_or(0.0, |e| ratio(e.0, e.1) / 1e3);
    let units = recs.len() as u64;
    let plain_ns_ev = ratio(self_of("sim.plain"), c("sim.plain_events"));
    let dc_ns_ev = ratio(self_of("dc.run"), c("dc.events"));
    let dc_allocs = by.get("dc.run").map_or(0, |e| e.2);
    let (states, unique) = runner.wl.unique().unwrap_or((0, 0));
    let m: Metrics = vec![
        ("scenarios.build_us", us_per_call("scenarios.build"), "us"),
        ("sim.plain_ns_per_event", plain_ns_ev, "ns"),
        (
            "sim.queue_ops_per_event",
            ratio(c("dc.queue_ops"), c("dc.events")),
            "count",
        ),
        ("dc.run_ns_per_event", dc_ns_ev, "ns"),
        (
            "dc.overhead_ns_per_event",
            (c("dc.paired_dc_ns") as f64 - c("dc.paired_plain_ns") as f64)
                / c("dc.paired_events").max(1) as f64,
            "ns",
        ),
        (
            "dc.commits_per_event",
            ratio(c("dc.commits"), c("dc.events")),
            "count",
        ),
        (
            "dc.allocs_per_event",
            ratio(dc_allocs, c("dc.events")),
            "count",
        ),
        (
            "dc.twopc_retries",
            ratio(c("dc.twopc_retries"), c("dc.runs")),
            "count/run",
        ),
        (
            "mem.traps_per_event",
            ratio(c("mem.traps"), c("dc.events")),
            "count",
        ),
        (
            "mem.committed_bytes_per_commit",
            ratio(c("mem.committed_bytes"), c("mem.commits")),
            "B",
        ),
        (
            "mem.rollbacks_per_unit",
            ratio(c("mem.rollbacks"), units),
            "count",
        ),
        (
            "oracle.save_work_ns_per_event",
            ratio(self_of("oracle.save_work"), c("oracle.save_work_events")),
            "ns",
        ),
        (
            "oracle.check_recovery_us",
            us_per_call("oracle.check_recovery"),
            "us",
        ),
        ("oracle.lose_work_us", us_per_call("oracle.lose_work"), "us"),
        (
            "oracle.failed_frac",
            ratio(tally.fails, tally.base),
            "fraction",
        ),
        (
            "faults.crashed_frac",
            ratio(c("faults.crashed"), c("faults.trials")),
            "fraction",
        ),
        (
            "recovery.incidents",
            ratio(c("recovery.incidents"), units),
            "count/unit",
        ),
        (
            "recovery.reexec_events_per_incident",
            ratio(c("recovery.reexec_events"), c("recovery.incidents")),
            "count",
        ),
        (
            "recovery.microreboots",
            ratio(c("recovery.microreboots"), units),
            "count/unit",
        ),
        (
            "recovery.escalations",
            ratio(c("recovery.escalations"), units),
            "count/unit",
        ),
        ("stage.avail_us", us_per_call("stage.avail"), "us"),
        ("stage.kv_us", us_per_call("stage.kv"), "us"),
        ("check.unique_frac", ratio(unique, states), "fraction"),
        ("fingerprint.us_per_state", us_per_call("fingerprint"), "us"),
        ("bench.digest_us", us_per_call("bench.digest"), "us"),
        ("unit.self_us", ratio(unit_self, units) / 1e3, "us"),
        (
            "trace.overhead_frac",
            traced_ns as f64 / plain_ns as f64 - 1.0,
            "fraction",
        ),
    ];
    Some(m)
}

/// Writes the spans of a traced run, one per line, under `.bench_trace/`.
fn write_trace(all: &[Span], selfs: &[u64], args: &Args) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let mut s = String::from("span\tunit\tparent\tname\tstart_ns\tend_ns\tself_ns\tallocs\n");
    for (i, (sp, own)) in all.iter().zip(selfs).enumerate() {
        let unit = if sp.unit == SETUP {
            "setup".to_string()
        } else {
            sp.unit.to_string()
        };
        let parent = sp.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            s,
            "{i}\t{unit}\t{parent}\t{}\t{}\t{}\t{own}\t{}",
            sp.name, sp.start_ns, sp.end_ns, sp.allocs
        )
        .expect("writing to a String cannot fail");
    }
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, s)) {
        Ok(()) => println!("spans: {} written to {}", all.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
