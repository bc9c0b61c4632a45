//! `sustained-crash`: the availability stage at its default sizes plus
//! the default sharded kvstore stage, under Poisson crashes.
//!
//! A unit is one call of `ft_bench::avail::run_avail` or
//! `ft_bench::kv::run_kv`. The stages' cells are split across calls, one
//! protocol (kvstore: one protocol and medium) per call, so the run holds
//! enough units for a tail percentile; every cell of the default matrix
//! is still run, seeded mutants included. The stages run their own
//! canonical references inside each call and expose no inner layer, so
//! set-up here generates the inputs and runs each scenario's plain
//! baseline, checking that it completes.

use ft_bench::avail::{run_avail, AvailConfig, WORKLOADS};
use ft_bench::kv::{run_kv, KvConfig};
use ft_bench::scenarios;
use ft_core::protocol::Protocol;
use ft_dc::recovery::MicrorebootMutation;
use ft_sim::rng::SplitMix64;

use crate::spans::{count, span};
use crate::unit::{digest, UnitOut, Workload};

enum Call {
    Avail(AvailConfig),
    Kv(KvConfig),
}

pub struct Sustained {
    calls: Vec<Call>,
}

/// Set-up: one stage config per call from the seed, and a plain
/// baseline run of every scenario the calls build.
pub fn setup(seed: u64) -> Sustained {
    let mut rng = SplitMix64::new(seed ^ 0x5C4A);
    // Each of the default stage's trials per cell is a call of its own,
    // with its own stage seed, for more units per pass.
    let avail_seeds: Vec<u64> = (0..AvailConfig::default().trials)
        .map(|_| rng.next_u64())
        .collect();
    let kv_seed = rng.next_u64();
    let last = *Protocol::FIGURE8.last().expect("seven protocols");
    let mut calls = Vec::new();
    for p in Protocol::FIGURE8 {
        for &seed in &avail_seeds {
            calls.push(Call::Avail(AvailConfig {
                seed,
                trials: 1,
                protocols: vec![p],
                // The default matrix carries one mutant cell per
                // workload, under its last protocol.
                mutants: p == last,
                ..AvailConfig::default()
            }));
        }
    }
    let kv = KvConfig {
        seed: kv_seed,
        ..KvConfig::default()
    };
    for &p in &kv.protocols {
        calls.push(Call::Kv(KvConfig {
            protocols: vec![p],
            durable_protocols: Vec::new(),
            ..kv.clone()
        }));
    }
    for &p in &kv.durable_protocols {
        calls.push(Call::Kv(KvConfig {
            protocols: Vec::new(),
            durable_protocols: vec![p],
            ..kv.clone()
        }));
    }
    // Plain baselines of the inputs: the avail scenarios as the stage
    // builds them, and the kvstore cluster.
    let avail = AvailConfig {
        seed: avail_seeds[0],
        ..AvailConfig::default()
    };
    for (widx, name) in WORKLOADS.iter().enumerate() {
        let s = SplitMix64::new(avail.seed ^ 0x5CE0).nth(widx as u64);
        let b = span("scenarios.build", || match *name {
            "nvi" => scenarios::nvi(s, avail.nvi_keys),
            "taskfarm" => scenarios::taskfarm(s, avail.taskfarm_workers),
            "treadmarks" => scenarios::treadmarks(s, avail.treadmarks_iters),
            _ => scenarios::xpilot(s, avail.xpilot_frames),
        });
        crate::plain_baseline(b);
    }
    crate::plain_baseline(span("scenarios.build", || {
        scenarios::kvstore_cluster(&kv.params())
    }));
    Sustained { calls }
}

/// Failure counts of one row: honest trials with any violation, and
/// seeded-mutant trials the oracle did not flag.
fn verdicts(mutant: bool, trials: u32, flagged: u32) -> (u64, u64) {
    let fails = if mutant { trials - flagged } else { flagged };
    (u64::from(fails), u64::from(trials))
}

impl Workload for Sustained {
    fn len(&self) -> usize {
        self.calls.len()
    }

    fn run(&mut self, i: usize) -> UnitOut {
        let mut out = UnitOut {
            ok: true,
            ..UnitOut::default()
        };
        let (mut incidents, mut reexec, mut micro, mut esc) = (0, 0, 0, 0);
        match &self.calls[i] {
            Call::Avail(cfg) => {
                let res = span("stage.avail", || run_avail(cfg, 1));
                for r in &res.rows {
                    let mutant = r.mutation != MicrorebootMutation::None;
                    let (f, b) = verdicts(mutant, r.trials, r.violations.total);
                    out.fails += f;
                    out.base += b;
                    // The stage's own self-test: a mutant cell must be
                    // flagged.
                    out.ok &= !mutant || r.violations.total > 0;
                    incidents += r.incidents;
                    reexec += r.reexec_events;
                    micro += r.microreboots;
                    esc += r.escalations;
                }
                out.digest = digest(&res.rows);
            }
            Call::Kv(cfg) => {
                let res = span("stage.kv", || run_kv(cfg, 1));
                for r in &res.rows {
                    let (f, b) = verdicts(false, r.trials, r.violations.total);
                    out.fails += f;
                    out.base += b;
                    incidents += r.incidents;
                    reexec += r.reexec_events;
                    micro += r.microreboots;
                    esc += r.escalations;
                }
                out.events = res.total_events;
                out.digest = digest(&res.rows);
            }
        }
        count("recovery.incidents", incidents);
        count("recovery.reexec_events", reexec);
        count("recovery.microreboots", micro);
        count("recovery.escalations", esc);
        out
    }

    fn base_name(&self) -> &'static str {
        "avail/kv trials (honest with a violation, or mutant unflagged)"
    }

    fn cross_checks(&self) -> (u64, u64) {
        (0, 0)
    }
}
