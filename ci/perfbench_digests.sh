#!/usr/bin/env bash
# Simulated-results gate: run the benchmark's self-test, then one pass of
# each workload at seed 1, and fail if any run reports `"correct": false`
# or a first-pass digest other than the one in ci/perfbench_digests.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

while read -r workload want; do
  [[ -z "$workload" || "$workload" == \#* ]] && continue
  out=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
          --workload "$workload" --seed 1 --seconds 0.01 --trace 0)
  got=$(sed -n 's/^digest: \([0-9a-f]*\) .*/\1/p' <<<"$out")
  if [[ "$got" != "$want" ]]; then
    echo "ci: perfbench $workload digest ${got:-missing}, expected $want" >&2
    exit 1
  fi
  if ! tail -n 1 <<<"$out" | grep -q '^{"correct": true,'; then
    echo "ci: perfbench $workload reported an incorrect run" >&2
    exit 1
  fi
  echo "ci: perfbench $workload digest $got ok"
done < ci/perfbench_digests.txt
