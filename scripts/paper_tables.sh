#!/usr/bin/env bash
# Paper-table gate: run the bench targets and the example that print the
# paper's UDF tables and ablations at SWAN_SCALE=0.05, and compare each
# output byte-for-byte with its golden under tests/golden/paper_tables/.
#
#   scripts/paper_tables.sh            # diff against the goldens (CI)
#   scripts/paper_tables.sh --bless    # rewrite the goldens
#
# Every table is deterministic (seeded data, simulated models), so any
# byte difference is a behaviour change in model calls, tokens, keys
# generated, cache reuse or execution accuracy.
set -euo pipefail
cd "$(dirname "$0")/.."

golden=tests/golden/paper_tables
bless=0
if [[ "${1:-}" == "--bless" ]]; then
    bless=1
    mkdir -p "$golden"
fi
export SWAN_SCALE=0.05

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for bench in table3_udf_ex table5_tokens ablation_batching ablation_pushdown ablation_caching; do
    cargo bench -q -p swan-bench --bench "$bench" >"$out/$bench.txt"
done
cargo run -q --release --example swan_eval >"$out/swan_eval.txt"

status=0
for f in "$out"/*.txt; do
    name=$(basename "$f")
    if [[ $bless == 1 ]]; then
        cp "$f" "$golden/$name"
    elif ! diff -u "$golden/$name" "$f"; then
        echo "paper table $name differs from $golden/$name" >&2
        status=1
    fi
done
exit $status
