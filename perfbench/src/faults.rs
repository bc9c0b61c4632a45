//! `fault-matrix`: Table 1 (seven code-fault types) and Table 2 (OS
//! faults) on nvi and postgres under CPVS.
//!
//! A unit is one fault-type row. Its trials are composed from the same
//! public calls as `ft_bench::table1::run_trial` and
//! `ft_bench::table2::run_trial`, so scenario builds, Discount Checking
//! runs, fault injection and the Lose-work check are timed apart; set-up
//! checks one composed row per table and application against the
//! entry points.

use ft_bench::runner::SeedStream;
use ft_bench::scenarios::{self, Built};
use ft_bench::table1::{self, Table1App, Table1Row};
use ft_bench::table2::{self, Table2Row};
use ft_core::event::{EventKind, ProcessId};
use ft_core::losework::check_commit_after_activation;
use ft_core::protocol::Protocol;
use ft_dc::harness::{DcHarness, DcReport};
use ft_dc::state::DcConfig;
use ft_faults::{FaultPlan, FaultType, KernelFaultPlan};
use ft_sim::harness::run_plain_on;
use ft_sim::rng::SplitMix64;
use ft_sim::MS;

use crate::spans::{count, span};
use crate::unit::{digest, mismatch, UnitOut, Workload};

/// Table 1: stop a row after this many crashes…
const TARGET_CRASHES: u32 = 5;
/// …or this many trials.
const MAX_TRIALS: u32 = 75;
/// Table 2: trials per row.
const TABLE2_TRIALS: u32 = 5;
/// Rows per (table, application, fault type), each with its own seed:
/// many small rows, so no single seed's slow row sets a run's figures.
const ROW_SEEDS: usize = 4;

const APPS: [Table1App; 2] = [Table1App::Nvi, Table1App::Postgres];

#[derive(Clone, Copy)]
enum Row {
    T1(Table1App, FaultType, u64),
    T2(Table1App, FaultType, u64),
}

pub struct FaultMatrix {
    rows: Vec<Row>,
    checks: (u64, u64),
}

/// Set-up: the row list from the seed, and the cross-checks.
pub fn setup(seed: u64) -> FaultMatrix {
    let mut rows = Vec::new();
    let mut rng = SplitMix64::new(seed ^ 0xFA17);
    for table in 0..2 {
        for app in APPS {
            for fault in FaultType::ALL {
                for _ in 0..ROW_SEEDS {
                    let s = rng.next_u64();
                    rows.push(if table == 0 {
                        Row::T1(app, fault, s)
                    } else {
                        Row::T2(app, fault, s)
                    });
                }
            }
        }
    }
    let mut m = FaultMatrix {
        rows,
        checks: (0, 0),
    };
    // Every (table, application, fault type) has one row checked: the
    // first of its seeds.
    for r in (0..m.rows.len()).step_by(ROW_SEEDS) {
        let composed = m.run(r).digest;
        let entry = span("stage.table", || match m.rows[r] {
            Row::T1(app, fault, s) => digest(&table1::run_fault_type(
                app,
                fault,
                TARGET_CRASHES,
                MAX_TRIALS,
                s,
            )),
            Row::T2(app, fault, s) => digest(&table2::run_fault_type(app, fault, TABLE2_TRIALS, s)),
        });
        m.checks.0 += 1;
        m.checks.1 += u64::from(mismatch(composed, entry));
    }
    m
}

fn build(app: Table1App, seed: u64, plan: Option<FaultPlan>) -> Built {
    span("scenarios.build", || match app {
        Table1App::Nvi => scenarios::nvi_custom(seed, 400, MS, plan),
        Table1App::Postgres => scenarios::postgres_faulty(seed, 220, plan),
    })
}

fn site(app: Table1App, fault: FaultType) -> u64 {
    match app {
        Table1App::Nvi => ft_apps::editor::fault_site(fault),
        Table1App::Postgres => ft_apps::minidb::fault_site(fault),
    }
}

fn dc_run(b: Built, cfg: DcConfig, events: &mut u64) -> DcReport {
    let (sim, apps) = b.into_parts();
    let mut queue_ops = 0;
    let report = span("dc.run", || {
        DcHarness::new(sim, cfg, apps).run_with(|sim| queue_ops = sim.queue_ops())
    });
    crate::record_dc(&report, queue_ops);
    *events += report.trace.len() as u64;
    report
}

/// One Table 1 trial, as `table1::run_trial`, folded into `row` as its
/// private `absorb` does.
fn t1_trial(
    app: Table1App,
    fault: FaultType,
    t: u32,
    seeds: SeedStream,
    row: &mut Table1Row,
    events: &mut u64,
) {
    let seed = seeds.seed(u64::from(t));
    let plan = FaultPlan {
        fault,
        site: site(app, fault),
        trigger_visit: 3 + (t % 37) * 5,
        id: 1,
        sticky: false,
    };
    row.trials += 1;
    count("faults.trials", 1);
    let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
    cfg.max_recoveries = 0;
    let report = dc_run(build(app, seed, Some(plan)), cfg, events);
    let crashed = report.trace.iter().any(|e| e.kind.is_crash());
    let activated = report
        .trace
        .iter()
        .any(|e| matches!(e.kind, EventKind::FaultActivation { .. }));
    if !crashed {
        if activated && report.all_done {
            let (sim, mut ref_apps) = build(app, seed, None).into_parts();
            let reference = span("sim.plain", || run_plain_on(sim, &mut ref_apps));
            count("sim.plain_events", reference.trace.len() as u64);
            *events += reference.trace.len() as u64;
            let tokens: Vec<u64> = reference.visibles.iter().map(|&(_, _, t)| t).collect();
            if report.visible_tokens() != tokens {
                row.wrong_output += 1;
            }
        }
        return;
    }
    if !activated {
        return;
    }
    row.crashes += 1;
    count("faults.crashed", 1);
    let violated = span("oracle.lose_work", || {
        check_commit_after_activation(&report.trace).is_violated()
    });
    count("oracle.lose_work_calls", 1);
    if violated {
        row.violations += 1;
    }
    let recovered = dc_run(
        build(app, seed, Some(plan)),
        DcConfig::discount_checking(Protocol::Cpvs),
        events,
    );
    if recovered.all_done != violated {
        row.e2e_agree += 1;
    }
}

/// A Table 1 row, as `table1::run_fault_type`.
fn t1_row(app: Table1App, fault: FaultType, seed0: u64, events: &mut u64) -> Table1Row {
    let seeds = SeedStream::new(seed0);
    let mut row = Table1Row::empty(fault);
    for t in 0..MAX_TRIALS {
        if row.crashes >= TARGET_CRASHES {
            break;
        }
        t1_trial(app, fault, t, seeds, &mut row, events);
    }
    row
}

/// A Table 2 row, as `table2::run_fault_type`.
fn t2_row(app: Table1App, fault: FaultType, seed0: u64, events: &mut u64) -> Table2Row {
    let seeds = SeedStream::new(seed0);
    let mut row = Table2Row {
        fault,
        crashes: 0,
        failed_recoveries: 0,
        propagations: 0,
    };
    let session = match app {
        Table1App::Nvi => 400 * MS,
        Table1App::Postgres => 220 * 50 * MS,
    };
    for t in 0..TABLE2_TRIALS {
        let seed = seeds.seed(u64::from(t));
        let mut rng = SplitMix64::new(seed ^ 0x05FA);
        let inject_at = session / 5 + rng.below(session * 3 / 5);
        let mut b = build(app, seed, None);
        let propagated = span("faults.inject", || {
            KernelFaultPlan::for_type(fault, inject_at).inject(&mut b.sim, ProcessId(0), &mut rng)
        });
        let report = dc_run(b, DcConfig::discount_checking(Protocol::Cpvs), events);
        row.crashes += 1;
        row.propagations += u32::from(propagated);
        row.failed_recoveries += u32::from(!report.all_done);
    }
    row
}

impl Workload for FaultMatrix {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn run(&mut self, i: usize) -> UnitOut {
        let mut events = 0;
        match self.rows[i] {
            Row::T1(app, fault, s) => {
                let row = t1_row(app, fault, s, &mut events);
                UnitOut {
                    events,
                    digest: digest(&row),
                    ok: true,
                    fails: u64::from(row.crashes - row.e2e_agree),
                    base: u64::from(row.crashes),
                }
            }
            Row::T2(app, fault, s) => {
                let row = t2_row(app, fault, s, &mut events);
                UnitOut {
                    events,
                    digest: digest(&row),
                    ok: true,
                    fails: 0,
                    base: 0,
                }
            }
        }
    }

    fn base_name(&self) -> &'static str {
        "crashed Table 1 trials (end-to-end recovery disagreeing with Lose-work)"
    }

    fn cross_checks(&self) -> (u64, u64) {
        self.checks
    }
}
