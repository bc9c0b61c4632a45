//! `check-k1`: `ft_check` exhaustive single-kill exploration of nvi,
//! taskfarm and kvstore at the checker's full sizes, under all seven
//! protocols.
//!
//! Set-up captures every canonical run and enumerates its crash points.
//! A unit is one state (one crash point, or the failure-free
//! pseudo-point), composed from the same public calls as
//! `ft_check::explore::run_point` so re-execution, fingerprinting and
//! the recovery oracle are timed apart. States run in a seeded shuffled
//! order; set-up checks the first few composed states against
//! `run_point`.

use std::collections::{BTreeMap, BTreeSet};

use ft_bench::fingerprint::report_fingerprint;
use ft_check::explore::{canonical_run, enumerate_points, run_point, visible_pairs};
use ft_check::{Canonical, CheckConfig, PointResult, Workload as CheckWorkload};
use ft_core::event::ProcessId;
use ft_core::oracle::{check_recovery, InvariantViolation};
use ft_core::protocol::Protocol;
use ft_dc::{CommitKill, DcHarness};
use ft_faults::crash::CrashPoint;
use ft_sim::rng::SplitMix64;

use crate::spans::{count, span};
use crate::unit::{digest, mismatch, shuffled, UnitOut, Workload};

/// The checker binary's full (non-smoke) sizes.
const FAMILIES: [(&str, usize); 3] = [("nvi", 4), ("taskfarm", 2), ("kvstore", 3)];
/// Composed states checked against `run_point` in set-up.
const CROSS_CHECKS: usize = 100;

struct Combo {
    w: CheckWorkload,
    cfg: CheckConfig,
    canonical: Canonical,
    points: Vec<CrashPoint>,
}

pub struct Check {
    combos: Vec<Combo>,
    /// `(combo, point index + 1)`; 0 is the failure-free pseudo-point.
    states: Vec<(usize, usize)>,
    /// Fingerprint of every distinct state explored so far.
    seen: BTreeMap<usize, (usize, u64)>,
    checks: (u64, u64),
}

/// Set-up: canonical runs, crash-point enumeration, the shuffled state
/// order, and the cross-checks.
pub fn setup(seed: u64) -> Check {
    let mut rng = SplitMix64::new(seed ^ 0xC4EC);
    let mut combos = Vec::new();
    for (name, size) in FAMILIES {
        let w = CheckWorkload {
            name,
            seed: rng.next_u64(),
            size,
        };
        crate::plain_baseline(span("scenarios.build", || w.build(w.size)));
        for p in Protocol::FIGURE8 {
            let cfg = CheckConfig::new(p);
            let canonical = span("check.canonical", || canonical_run(&w, w.size, &cfg));
            let points = enumerate_points(&canonical);
            combos.push(Combo {
                w,
                cfg,
                canonical,
                points,
            });
        }
    }
    let mut states = Vec::new();
    for (c, combo) in combos.iter().enumerate() {
        states.extend((0..=combo.points.len()).map(|k| (c, k)));
    }
    let order = shuffled(states.len(), rng.next_u64());
    let states: Vec<(usize, usize)> = order.into_iter().map(|i| states[i]).collect();
    let mut check = Check {
        combos,
        states,
        seen: BTreeMap::new(),
        checks: (0, 0),
    };
    for i in 0..CROSS_CHECKS.min(check.states.len()) {
        let (c, k) = check.states[i];
        let combo = &check.combos[c];
        let point = check.point(c, k);
        let composed = digest(&check.state(c, point).0);
        let entry = span("stage.check", || {
            digest(&run_point(
                &combo.w,
                combo.w.size,
                &combo.cfg,
                &combo.canonical,
                point,
            ))
        });
        check.checks.0 += 1;
        check.checks.1 += u64::from(mismatch(composed, entry));
    }
    check.seen.clear();
    check
}

impl Check {
    fn point(&self, c: usize, k: usize) -> Option<CrashPoint> {
        k.checked_sub(1).map(|k| self.combos[c].points[k])
    }

    /// One state, as `run_point`: re-execute with the kill, fingerprint
    /// the report, judge it. Returns the result and the events run.
    fn state(&self, c: usize, point: Option<CrashPoint>) -> (PointResult, u64) {
        let combo = &self.combos[c];
        let (sim, apps) = span("scenarios.build", || combo.w.build(combo.w.size)).into_parts();
        let kill = match point {
            Some(CrashPoint::InCommit { pid, nth, point }) => Some(CommitKill { pid, nth, point }),
            _ => None,
        };
        let mut harness = DcHarness::new(sim, combo.cfg.dc_config(kill), apps);
        let mut queue_ops = 0;
        let report = span("dc.run", || match point {
            Some(CrashPoint::AtStart { pid }) => {
                harness.sim.kill_at(ProcessId(pid), 0);
                harness.run_with(|sim| queue_ops = sim.queue_ops())
            }
            Some(CrashPoint::AtPosition { pid, pos }) => {
                let target = ProcessId(pid);
                let mut fired = false;
                harness.run_with(|sim| {
                    if !fired && sim.trace_position(target) >= pos {
                        fired = true;
                        let now = sim.now();
                        sim.kill_at(target, now);
                    }
                    queue_ops = sim.queue_ops();
                })
            }
            _ => harness.run_with(|sim| queue_ops = sim.queue_ops()),
        });
        crate::record_dc(&report, queue_ops);
        let fingerprint = span("fingerprint", || report_fingerprint(&report));
        count("fingerprint.calls", 1);
        let events = report.trace.len() as u64;
        if report.abandoned == 0 && !report.all_done {
            let r = PointResult {
                point,
                fingerprint,
                violation: Some(InvariantViolation::Incomplete { abandoned: 0 }),
                duplicates: 0,
            };
            return (r, events);
        }
        let recovered = visible_pairs(&report);
        let verdict = span("oracle.check_recovery", || {
            check_recovery(
                &combo.canonical.report.trace,
                &combo.canonical.visibles,
                &report.trace,
                &recovered,
                report.abandoned as usize,
            )
        });
        count("oracle.check_recovery_calls", 1);
        let (violation, duplicates) = match verdict {
            Ok(v) => (None, v.duplicates),
            Err(e) => (Some(e), 0),
        };
        let r = PointResult {
            point,
            fingerprint,
            violation,
            duplicates,
        };
        (r, events)
    }
}

impl Workload for Check {
    fn len(&self) -> usize {
        self.states.len()
    }

    fn run(&mut self, i: usize) -> UnitOut {
        let (c, k) = self.states[i];
        let (r, events) = self.state(c, self.point(c, k));
        self.seen.insert(i, (c, r.fingerprint));
        let violated = r.violation.is_some();
        UnitOut {
            events,
            digest: digest(&r),
            ok: true,
            fails: u64::from(violated),
            base: 1,
        }
    }

    fn base_name(&self) -> &'static str {
        "states (any violation; every protocol here is honest)"
    }

    fn cross_checks(&self) -> (u64, u64) {
        self.checks
    }

    /// Distinct fingerprints are counted per workload and protocol, as
    /// the checker deduplicates.
    fn unique(&self) -> Option<(u64, u64)> {
        let fps: BTreeSet<(usize, u64)> = self.seen.values().copied().collect();
        Some((self.seen.len() as u64, fps.len() as u64))
    }
}
