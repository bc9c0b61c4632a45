//! `fig8-grid`: the failure-free Figure 8 protocol grid.
//!
//! Overhead cells for nvi, magic, treadmarks and taskfarm and frame-rate
//! cells for xpilot, under all seven protocols, at several times the
//! campaign's sizes. A unit is one cell, composed from the same public
//! calls as `ft_bench::fig8::{overhead_cell, fps_cell}` so each layer is
//! timed on its own; set-up runs each workload's plain baseline and
//! checks one composed cell per workload against the entry point.

use ft_bench::fig8::{
    baseline_runtime, fps_cell, overhead_cell, overhead_pct, Fig8FpsRow, Fig8Row,
};
use ft_bench::scenarios::{self, Built};
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::{DcHarness, DcReport};
use ft_dc::state::DcConfig;
use ft_sim::rng::SplitMix64;
use ft_sim::SimTime;
use std::time::Instant;

use crate::spans::{count, span};
use crate::unit::{digest, mismatch, UnitOut, Workload};

type Builder = Box<dyn Fn() -> Built>;

/// nvi keystrokes (campaign: 240).
const NVI_KEYS: usize = 2400;
/// magic layout commands (the Figure 8(b) bench: 190).
const MAGIC_COMMANDS: usize = 570;
/// TreadMarks iterations (campaign: 16).
const TREADMARKS_ITERS: u64 = 32;
/// Task-farm workers (campaign: 3).
const TASKFARM_WORKERS: u32 = 6;
/// xpilot frames (campaign: 40).
const XPILOT_FRAMES: u64 = 400;

struct App {
    build: Builder,
    /// `Some(baseline runtime)` for overhead cells, `None` for fps cells.
    base: Option<SimTime>,
    /// Host ns of the plain baseline run, which every Rio run of this
    /// workload is paired with for `dc.overhead_ns_per_event`.
    plain_ns: u64,
}

pub struct Fig8 {
    apps: Vec<App>,
    cells: Vec<(usize, Protocol)>,
    checks: (u64, u64),
}

/// Scenario seeds per workload: each pass holds this many grids of
/// every workload, so one seed's script does not set a run's figures.
const SEEDS_PER_APP: u64 = 2;

/// Set-up: builders from the seed, plain baselines, one cross-check per
/// workload.
pub fn setup(seed: u64) -> Fig8 {
    let mut rng = SplitMix64::new(seed ^ 0xF168);
    let mut builders: Vec<(Builder, bool)> = Vec::new();
    for _ in 0..SEEDS_PER_APP {
        let s: [u64; 5] = std::array::from_fn(|_| rng.next_u64());
        builders.extend([
            (
                Box::new(move || scenarios::nvi(s[0], NVI_KEYS)) as Builder,
                true,
            ),
            (
                Box::new(move || scenarios::magic(s[1], MAGIC_COMMANDS)),
                true,
            ),
            (
                Box::new(move || scenarios::treadmarks(s[2], TREADMARKS_ITERS)),
                true,
            ),
            (
                Box::new(move || scenarios::taskfarm(s[3], TASKFARM_WORKERS)),
                true,
            ),
            (
                Box::new(move || scenarios::xpilot(s[4], XPILOT_FRAMES)),
                false,
            ),
        ]);
    }
    let apps: Vec<App> = builders
        .into_iter()
        .map(|(build, overhead)| {
            // ft-lint: allow(wall-clock): benchmark host timing, never simulated state
            let t = Instant::now();
            let runtime = crate::plain_baseline(span("scenarios.build", &build));
            let plain_ns = crate::nanos(t);
            App {
                build,
                base: overhead.then_some(runtime),
                plain_ns,
            }
        })
        .collect();
    let mut cells = Vec::new();
    for a in 0..apps.len() {
        for p in Protocol::FIGURE8 {
            cells.push((a, p));
        }
    }
    let mut fig8 = Fig8 {
        apps,
        cells,
        checks: (0, 0),
    };
    // One cell per workload (of the first seed), a different protocol
    // each, against the stage's own entry point. The choice is fixed so
    // set-up does the same amount of work for every seed.
    for a in 0..5 {
        let p = Protocol::FIGURE8[(a * 3) % Protocol::FIGURE8.len()];
        let composed = fig8.cell(a, p);
        let app = &fig8.apps[a];
        let entry = span("stage.fig8", || match app.base {
            Some(base) => {
                assert_eq!(baseline_runtime(&app.build), base, "baseline drifted");
                digest(&overhead_cell(&app.build, base, p))
            }
            None => digest(&fps_cell(&app.build, p)),
        });
        fig8.checks.0 += 1;
        fig8.checks.1 += u64::from(mismatch(composed.digest, entry));
    }
    fig8
}

/// One Discount Checking run with its per-layer counts, plus the
/// scenario's client count and the run's host ns.
fn dc_run(build: &Builder, cfg: DcConfig) -> (DcReport, usize, u64) {
    let b = span("scenarios.build", build);
    let clients = b.meta.clients;
    let (sim, apps) = b.into_parts();
    let mut queue_ops = 0;
    // ft-lint: allow(wall-clock): benchmark host timing, never simulated state
    let t = Instant::now();
    let report = span("dc.run", || {
        DcHarness::new(sim, cfg, apps).run_with(|sim| queue_ops = sim.queue_ops())
    });
    let ns = crate::nanos(t);
    crate::record_dc(&report, queue_ops);
    (report, clients, ns)
}

impl Fig8 {
    /// Composes one cell. It fails if a run does not complete (the
    /// entry point asserts completion) or the Rio run breaks Save-work.
    fn cell(&self, a: usize, p: Protocol) -> UnitOut {
        let app = &self.apps[a];
        let (dc, clients, dc_ns) = dc_run(&app.build, DcConfig::discount_checking(p));
        count("dc.paired_dc_ns", dc_ns);
        count("dc.paired_plain_ns", app.plain_ns);
        count("dc.paired_events", dc.trace.len() as u64);
        let save_work = span("oracle.save_work", || check_save_work(&dc.trace));
        count("oracle.save_work_events", dc.trace.len() as u64);
        let (disk, _, _) = dc_run(&app.build, DcConfig::dc_disk(p));
        let events = (dc.trace.len() + disk.trace.len()) as u64;
        let (good, d) = match app.base {
            Some(base) => {
                let row = Fig8Row {
                    protocol: p,
                    ckpts: dc.total_commits(),
                    dc_overhead_pct: overhead_pct(base, dc.runtime),
                    disk_overhead_pct: overhead_pct(base, disk.runtime),
                    runtimes: (base, dc.runtime, disk.runtime),
                    visibles: dc.visibles.len(),
                    arena: dc.arena,
                };
                (
                    dc.all_done && disk.all_done && save_work.is_ok(),
                    digest(&row),
                )
            }
            None => {
                let fps = |r: &DcReport| {
                    let frames = r.visibles.len() as f64 / clients as f64;
                    frames / (r.runtime as f64 / 1e9)
                };
                let row = Fig8FpsRow {
                    protocol: p,
                    ckpts: dc.total_commits(),
                    ckps_per_sec: dc.total_commits() as f64 / (dc.runtime as f64 / 1e9),
                    dc_fps: fps(&dc),
                    disk_fps: fps(&disk),
                    arena: dc.arena,
                };
                (dc.all_done && save_work.is_ok(), digest(&row))
            }
        };
        UnitOut {
            events,
            digest: d,
            ok: good,
            fails: u64::from(!good),
            base: 1,
        }
    }
}

impl Workload for Fig8 {
    fn len(&self) -> usize {
        self.cells.len()
    }

    fn run(&mut self, i: usize) -> UnitOut {
        let (a, p) = self.cells[i];
        self.cell(a, p)
    }

    fn base_name(&self) -> &'static str {
        "cells (incomplete or breaking Save-work)"
    }

    fn cross_checks(&self) -> (u64, u64) {
        self.checks
    }
}
