//! The benchmark can fail: a busy-wait seeded into one benchmark-side
//! span must show up in that layer's self time and in the end-to-end
//! wall metrics, and a forced digest mismatch must fail the run.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;
use std::sync::Mutex;

/// Runs are timed, so they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs the benchmark binary and returns its standard output.
fn run(workload: &str, trace: bool, mutate: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "3", "--seconds", "2"]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(m) = mutate {
        cmd.args(["--mutate", m]);
    }
    let out = cmd.output().expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "benchmark exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("the report is UTF-8")
}

/// The result object: the last line of standard output.
fn result(stdout: &str) -> &str {
    stdout
        .lines()
        .last()
        .expect("the benchmark prints a result")
}

fn metric(json: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {json}"))
        + key.len();
    json[at..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} is not a number in {json}"))
}

fn field<'a>(json: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": ");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {json}"))
        + key.len();
    json[at..]
        .split([',', '}'])
        .next()
        .expect("a value follows")
}

/// The `failed_frac` report line's fraction.
fn failed_frac(stdout: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("failed_frac: "))
        .expect("a failed_frac line");
    line["failed_frac: ".len()..]
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("failed_frac is a number")
}

#[test]
fn seeded_busy_wait_shows_in_its_layer_and_end_to_end() {
    let _serial = SERIAL
        .lock()
        .expect("no other self-test panicked holding the lock");
    let spin_us = 300.0;
    let base = run("check-k1", true, None);
    let spin = run("check-k1", true, Some("spin"));
    let (b, s) = (
        metric(result(&base), "bench.digest_us"),
        metric(result(&spin), "bench.digest_us"),
    );
    assert!(
        s - b > 0.8 * spin_us,
        "bench.digest_us self time must rise by the spin: {b} -> {s}"
    );
    let base = run("check-k1", false, None);
    let spin = run("check-k1", false, Some("spin"));
    let (b, s) = (
        metric(result(&base), "unit_ms_p50"),
        metric(result(&spin), "unit_ms_p50"),
    );
    assert!(
        s - b > 0.5 * spin_us / 1e3,
        "unit_ms_p50 must rise by the spin: {b} -> {s}"
    );
    let (b, s) = (
        metric(result(&base), "units_per_s"),
        metric(result(&spin), "units_per_s"),
    );
    assert!(s < b, "units_per_s must fall: {b} -> {s}");
}

#[test]
fn forced_digest_mismatch_fails_the_run() {
    let _serial = SERIAL
        .lock()
        .expect("no other self-test panicked holding the lock");
    let base = run("fault-matrix", false, None);
    assert_eq!(field(result(&base), "correct"), "true");
    assert_eq!(field(result(&base), "failed"), "0");
    let bad = run("fault-matrix", false, Some("digest"));
    assert_eq!(field(result(&bad), "correct"), "false");
    let failed: u64 = field(result(&bad), "failed").parse().expect("a count");
    assert!(failed > 0, "a digest mismatch must count as failed");
    assert!(
        failed_frac(&bad) > failed_frac(&base),
        "failed_frac must rise: {} -> {}",
        failed_frac(&base),
        failed_frac(&bad)
    );
}
