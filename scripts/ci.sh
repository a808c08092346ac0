#!/usr/bin/env bash
# CI gate: tier-1 verification plus the serial≡parallel differential
# harness pinned at both ends of the thread matrix.
#
#   scripts/ci.sh            # full gate
#   SWAN_SEED=12345 scripts/ci.sh   # replay a failing property stream
#
# Stages:
#   0. swan-analyze: the workspace seam lints (ANALYSIS.md) — raw
#      std::fs/clock/thread use outside the Vfs/Clock/pool seams,
#      panic-family calls on commit/recovery paths, undocumented
#      `unsafe`, unranked locks. Any finding fails the gate before a
#      single test runs;
#   1. tier-1: release build + workspace test suite (ROADMAP contract),
#      then the workspace suite again at SWAN_THREADS=1, 2 and 8 so no
#      test depends on the host's core count (the default `threads: 0`
#      resolves to SWAN_THREADS, else the machine's parallelism);
#   2. the differential harness (crates/sqlengine/tests/parallel_diff.rs)
#      re-run explicitly with SWAN_THREADS=1 and SWAN_THREADS=8 — the
#      env var drives every default-config statement through the serial
#      and the 8-way morsel-parallel executor respectively, on top of
#      the harness's own per-test thread configs;
#   3. the SharedDb concurrency stress suite (multi-statement
#      transaction conflict/retry, torn-commit visibility, MVCC
#      history GC, leader install handback) and the row-level conflict
#      regression suite (disjoint-PK transactions must not abort), both
#      under SWAN_LOCKDEP=1, plus the cross-session llm_map
#      single-flight test;
#   4. the WAL crash-recovery harness (torn-tail truncation sweep at
#      every byte offset of the final commit record group, durable
#      transactions, auto-checkpoint compaction), then the paged-storage
#      suite (O(dirty pages) checkpoint byte bound, recovery round trips);
#   5. the crash-simulation harness (crates/sqlengine/tests/crash_sim.rs):
#      a fault — transient error or crash with a configurable torn write —
#      injected at EVERY SimFs operation index of the commit, checkpoint,
#      concurrent group-commit and recovery schedules (plus the two-fault
#      dir-sync-fails-then-crash schedule), asserting recovery is always
#      a clean prefix of acknowledged commits;
#   6. the golden SQL suite (tests/slt/*.slt), each file executed on the
#      serial and the 8-thread engine with byte-identical output — then
#      the slt suite and the differential harness again with
#      SWAN_COLUMNAR=0 and =1, so both the columnar kernels and the
#      bit-for-bit row fallback stay pinned to the same goldens;
#   7. the LLM fault-sweep harness (tests/llm_fault_sim.rs): every
#      ModelFault kind injected at every call index of a fixed workload,
#      serial and 8-thread-parallel and concurrent-session single-flight,
#      on a virtual clock — no hangs, failed calls never cached, retries
#      respect the statement deadline, breaker transitions match the
#      fault script;
#   8. one release-build workspace test pass with SWAN_LOCKDEP=1: the
#      runtime lock-order validator (rank inversions + order cycles,
#      normally debug-only) active under the optimized build's real
#      interleavings;
#   9. the paper tables (scripts/paper_tables.sh): table3_udf_ex,
#      table5_tokens, ablation_{batching,pushdown,caching} and
#      examples/swan_eval at SWAN_SCALE=0.05, each byte-identical to its
#      golden under tests/golden/paper_tables/ — model calls, tokens,
#      keys generated, cache reuse and EX may not drift.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== swan-analyze: workspace seam lints =="
cargo run -q -p swan-analyze -- --workspace

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: workspace tests =="
cargo test --workspace -q

for threads in 1 2 8; do
    echo "== workspace tests @ SWAN_THREADS=$threads =="
    SWAN_THREADS=$threads cargo test --workspace -q
done

echo "== differential harness @ SWAN_THREADS=1 (serial engine) =="
SWAN_THREADS=1 cargo test -q -p swan-sqlengine --test parallel_diff

echo "== differential harness @ SWAN_THREADS=8 (morsel-parallel engine) =="
SWAN_THREADS=8 cargo test -q -p swan-sqlengine --test parallel_diff

echo "== SharedDb concurrency + transaction stress (lock-order validated) =="
SWAN_LOCKDEP=1 cargo test -q -p swan-sqlengine --test shared_db_stress

echo "== row-level conflict regression suite (lock-order validated) =="
SWAN_LOCKDEP=1 cargo test -q -p swan-sqlengine --test row_conflicts

echo "== WAL crash-recovery harness =="
cargo test -q -p swan-sqlengine --test wal_recovery

echo "== paged storage integration suite =="
cargo test -q -p swan-sqlengine --test paged_storage

echo "== crash-simulation harness (SimFs fault sweep) =="
cargo test -q -p swan-sqlengine --test crash_sim

echo "== golden SQL suite @ 1 and 8 threads =="
cargo test -q -p swan-sqlengine --test slt

echo "== columnar execution off/on: golden SQL suite =="
SWAN_COLUMNAR=0 cargo test -q -p swan-sqlengine --test slt
SWAN_COLUMNAR=1 cargo test -q -p swan-sqlengine --test slt

echo "== columnar execution off/on: differential harness =="
SWAN_COLUMNAR=0 cargo test -q -p swan-sqlengine --test parallel_diff
SWAN_COLUMNAR=1 cargo test -q -p swan-sqlengine --test parallel_diff

echo "== binary row + column codec round-trip properties =="
cargo test -q -p swan-sqlengine --test prop_codec

echo "== cross-session llm_map single-flight =="
cargo test -q --test concurrency

echo "== LLM fault-sweep harness (deterministic, virtual clock) =="
cargo test -q --test llm_fault_sim

echo "== workspace tests @ SWAN_LOCKDEP=1 (release, lock-order validated) =="
SWAN_LOCKDEP=1 cargo test --workspace -q --release

echo "== paper tables @ SWAN_SCALE=0.05 (byte-identical goldens) =="
scripts/paper_tables.sh

echo "CI gate passed."
