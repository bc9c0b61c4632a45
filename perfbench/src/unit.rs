//! What every workload hands the driver, and the helpers units share.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use ft_bench::fingerprint::fnv1a_64;

use crate::spans::span;

/// The outcome of one unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitOut {
    /// Simulated trace events the unit completed (0 where the entry
    /// point reports none).
    pub events: u64,
    /// Digest of the unit's simulated rows.
    pub digest: u64,
    /// The unit passed every check the benchmark makes of its output.
    pub ok: bool,
    /// Failures under the workload's `failed_frac` definition…
    pub fails: u64,
    /// …out of this base.
    pub base: u64,
}

/// A workload after set-up: a fixed list of units, run by index.
pub trait Workload {
    /// Units in one pass.
    fn len(&self) -> usize;
    /// Runs unit `i`.
    fn run(&mut self, i: usize) -> UnitOut;
    /// What `failed_frac` counts, for the report line.
    fn base_name(&self) -> &'static str;
    /// Set-up cross-checks of composed units against the program's own
    /// entry points: `(made, mismatched)`.
    fn cross_checks(&self) -> (u64, u64);
    /// Distinct states explored and their distinct fingerprints, where
    /// the workload deduplicates states.
    fn unique(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Deliberate defects for the benchmark's self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Mutation {
    /// None: the real benchmark.
    None = 0,
    /// Busy-wait [`SPIN`] inside every `bench.digest` span.
    Spin = 1,
    /// Perturb the entry-point digest of every set-up cross-check.
    Digest = 2,
}

/// The busy-wait the `spin` mutation adds to every unit.
pub const SPIN: Duration = Duration::from_micros(300);

static MUTATION: AtomicU8 = AtomicU8::new(0);

/// Arms a mutation for the whole run.
pub fn set_mutation(m: Mutation) {
    MUTATION.store(m as u8, Ordering::Relaxed);
}

/// The armed mutation.
pub fn mutation() -> Mutation {
    match MUTATION.load(Ordering::Relaxed) {
        1 => Mutation::Spin,
        2 => Mutation::Digest,
        _ => Mutation::None,
    }
}

/// FNV-1a digest of a row's debug form, inside the `bench.digest` span.
pub fn digest(row: &impl Debug) -> u64 {
    span("bench.digest", || {
        if mutation() == Mutation::Spin {
            // ft-lint: allow(wall-clock): self-test busy-wait on host time
            let t = Instant::now();
            while t.elapsed() < SPIN {
                std::hint::spin_loop();
            }
        }
        fnv1a_64(format!("{row:?}").as_bytes())
    })
}

/// Compares a composed unit's digest with the entry point's; returns
/// whether they differ (the `digest` mutation forces a difference).
pub fn mismatch(composed: u64, entry: u64) -> bool {
    let entry = if mutation() == Mutation::Digest {
        entry ^ 1
    } else {
        entry
    };
    composed != entry
}

/// Deterministic Fisher–Yates shuffle of `0..n` from `seed`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = ft_sim::rng::SplitMix64::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.index(i + 1));
    }
    v
}
