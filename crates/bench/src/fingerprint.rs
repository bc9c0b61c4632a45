//! Stable run fingerprints for cross-version regression gating.
//!
//! PR 1 proved trace determinism *within* a build (same seed + same plan
//! ⇒ same trace); the golden-fixture test turns that into a gate *across*
//! versions by pinning each workload's fingerprint in a committed file.
//! `std`'s `DefaultHasher` makes no stability promise between releases,
//! so the fingerprint is FNV-1a 64 — fixed by construction — over the
//! run's debug-formatted trace, visible outputs, and final simulated
//! time.

use std::fmt::Write as _;

use ft_dc::harness::DcReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte string.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    h.update(bytes);
    h.0
}

/// An FNV-1a 64 state that formatted text can be written into, so a
/// value's `Debug` output is hashed without building the string.
struct Fnv1a(u64);

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// The deterministic fingerprint of a recovery-runtime run: everything an
/// observer could see — the full event trace, the visible outputs with
/// their timestamps, and the final simulated time. The hash of the
/// concatenated `{:?}`/`{:?}`/`{}` text, streamed.
pub fn report_fingerprint(report: &DcReport) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    write!(
        h,
        "{:?}{:?}{}",
        report.trace, report.visibles, report.runtime
    )
    .expect("hashing never fails");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_is_input_sensitive() {
        assert_ne!(fnv1a_64(b"trace-a"), fnv1a_64(b"trace-b"));
    }

    #[test]
    fn streamed_fingerprint_hashes_the_concatenated_text() {
        use crate::scenarios;
        use ft_core::protocol::Protocol;
        use ft_dc::harness::DcHarness;
        use ft_dc::state::DcConfig;
        use ft_sim::MS;

        // A run that crashes and recovers, so the trace carries crash and
        // re-execution events.
        let (mut sim, apps) = scenarios::taskfarm(9, 3).into_parts();
        sim.kill_at(ft_core::event::ProcessId(1), 3 * MS);
        let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps).run();
        assert!(report.all_done);
        assert!(
            report.trace.iter().any(|e| e.kind.is_crash()),
            "the run must crash"
        );
        let concatenated = format!("{:?}{:?}{}", report.trace, report.visibles, report.runtime);
        assert_eq!(
            report_fingerprint(&report),
            fnv1a_64(concatenated.as_bytes())
        );
    }
}
