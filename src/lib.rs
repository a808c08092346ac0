//! # swan — hybrid querying over relational databases and large language models
//!
//! A complete, from-scratch reproduction of the SWAN benchmark and the
//! HQDL / hybrid-query-UDF solutions from *"Hybrid Querying Over
//! Relational Databases and Large Language Models"* (CIDR 2025).
//!
//! This facade crate re-exports the full public API; the implementation
//! lives in four workspace crates:
//!
//! * [`sqlengine`] — an embedded, in-memory SQL engine (the SQLite
//!   stand-in): lexer → parser → planner → optimizer → executor, with a
//!   scalar-UDF registry whose *expensive-function* hint drives
//!   LLM-aware optimization. Execution runs on a **zero-copy core**:
//!   interned text (`Value::Text(Arc<str>)`), shared rows
//!   (`Row = Arc<[Value]>`), statistics-driven join ordering, and
//!   column-pruned join emission — see `crates/sqlengine/PERF.md` for the
//!   measured speedups. Scans additionally execute **columnar**
//!   (`OptimizerConfig::columnar`, default on; `SWAN_COLUMNAR=0`
//!   disables): tables cache typed column vectors with validity bitmaps
//!   and dictionary-encoded text, filter predicates evaluate as
//!   word-at-a-time three-valued-logic bitmap kernels, GROUP BY /
//!   hash-join keys and plain-column aggregates read the columns
//!   directly, and rows materialize lazily at the engine boundary —
//!   1.7–2.2× on scan-heavy shapes with the row path preserved
//!   bit-for-bit as the `columnar: false` fallback (PERF.md, "Columnar
//!   execution"). Expensive UDF calls execute **batched**: at every
//!   operator (projection, WHERE, HAVING, join ON) the engine collects
//!   the distinct argument tuples of its input batch and issues one
//!   `ScalarUdf::invoke_batch` instead of one call per row, so `llm_map`
//!   chunks keys per `UdfConfig::batch_size` and fans them out across
//!   parallel workers for every query shape — the one UDF batching path
//!   (60 → 12 model calls and ~27× wall clock against per-row calls on a
//!   join-ON-over-subquery workload; see PERF.md's "Batched
//!   expensive-UDF execution"). Queries over large
//!   inputs execute **morsel-driven parallel** (paper §6 future work):
//!   the optimizer annotates plans with `Plan::Parallel` from catalog
//!   row counts, and filters, partitioned hash-join build/probe,
//!   two-phase GROUP BY and top-k fan out over the shared compute pool —
//!   byte-identical to serial results at every thread count
//!   (`SWAN_THREADS` controls the default; the `parallel_diff`
//!   differential harness enforces the equivalence). `SharedDb` serves
//!   many concurrent sessions over one database: snapshot reads,
//!   per-table writer serialization, panic-transparent locks. Sessions
//!   run **multi-statement transactions** (`BEGIN`/`COMMIT`/`ROLLBACK`)
//!   under snapshot isolation with **row-level** first-committer-wins
//!   conflict detection: commits record per-primary-key write sets,
//!   validation intersects them against every commit since the
//!   transaction's snapshot, disjoint-row transactions rebase and
//!   commit (no false conflicts on one hot table) while true row
//!   overlaps and DDL abort naming the rows, and a watermark GC bounds
//!   the write-set history to the oldest live snapshot, and
//!   `Database::open(path)` / `SharedDb::open(path)` add **crash
//!   durability**: every commit is a checksummed, fsynced write-ahead-log
//!   record group, recovery replays the intact prefix (torn tails are
//!   truncated — the `wal_recovery` harness proves pre-or-post-commit
//!   recovery at every byte offset), and the log auto-checkpoints past a
//!   configurable size (see PERF.md's "Durability" for commit-latency
//!   numbers). Concurrent committers **group-commit**: framed record
//!   groups queue behind one leader that appends the whole batch with a
//!   single fsync and installs it atomically, multiplying write
//!   throughput under contention (3.98 commits per fsync with 8
//!   committers on the `wal_commit` bench;
//!   `DurabilityConfig::group_commit` toggles it). Every byte of WAL and
//!   checkpoint I/O flows through a **virtual filesystem seam**
//!   (`swan_sqlengine::vfs`): `RealFs` in production, and in tests the
//!   fault-injecting `SimFs`, which the `crash_sim` harness drives with
//!   a deterministic fail/crash at every operation index to prove
//!   recovery always lands on a clean prefix of acknowledged commits.
//!   The `slt` golden-file suite replays sqllogictest-style scripts on
//!   the serial and 8-thread engines with byte-identical expected
//!   output. Statements run under a **cooperative deadline**: a
//!   `statement_timeout` on the database, a `SharedDb`, or a single
//!   session arms a cancel token that both executors check between
//!   morsels and that model calls, batch fan-outs and single-flight
//!   waiters all observe — a blown deadline surfaces as the pinned
//!   `statement timeout: deadline exceeded` error, never a hang.
//! * [`llm`] — the language-model layer: prompt templates, token/cost
//!   accounting, caches, a parallel executor over the shared
//!   [`swan_pool`] worker pool, and the calibrated simulated
//!   GPT-3.5/GPT-4 models (see DESIGN.md for the substitution
//!   rationale). Model calls cross a **transport seam**
//!   (`swan_llm::transport`, the LLM boundary's `vfs`): `DirectTransport`
//!   in production, fault-injecting `SimTransport` in tests, and a
//!   `ResilientModel` wrapper adding per-call timeouts, capped
//!   exponential backoff with deterministic jitter, and a per-endpoint
//!   circuit breaker — with terminal failures resolved by the UDF
//!   runner's `OnModelFailure` policy (fail / NULL / stale-cache) and
//!   the whole matrix swept deterministically on a virtual clock by
//!   `tests/llm_fault_sim.rs` (see `crates/llm/RESILIENCE.md`).
//! * [`data`] — the SWAN benchmark: four synthetic domain databases,
//!   schema curation, and 120 beyond-database questions with gold and
//!   hybrid SQL.
//! * [`core`] — the two solutions (HQDL schema expansion; BlendSQL-style
//!   UDFs batched and pushed down by the engine, with answer caching) and
//!   the evaluation harness
//!   (execution accuracy, data-factuality F1, token reports).
//!
//! ## Quick start
//!
//! ```
//! use swan::prelude::*;
//!
//! // A small benchmark instance (scale 1.0 = the paper's Table 1 sizes).
//! let harness = Harness::new(0.02);
//!
//! // Evaluate HQDL with the simulated GPT-4 Turbo at 5-shot.
//! let eval = evaluate_hqdl(
//!     &harness.benchmark,
//!     harness.kb.clone(),
//!     &harness.gold,
//!     ModelKind::Gpt4Turbo,
//!     5,
//!     4,
//! );
//! assert_eq!(eval.overall.total, 120);
//! println!("EX = {:.1}%, F1 = {:.1}%",
//!          100.0 * eval.overall.accuracy(), 100.0 * eval.average_f1());
//! ```
//!
//! ## Enforced seams
//!
//! The Vfs/Clock/pool seams and the workspace lock hierarchy are
//! machine-checked: `swan-analyze` (`crates/analysis`) lints every
//! production source for seam violations, unranked locks, undocumented
//! `unsafe`, and panics on commit/recovery paths, and a runtime lockdep
//! validator in the `parking_lot` shim panics on lock-rank inversions
//! and lock-order cycles (on in debug builds and under `SWAN_LOCKDEP=1`).
//! See `ANALYSIS.md` at the workspace root for the rule catalog and the
//! full lock-rank table.

pub use swan_core as core;
pub use swan_data as data;
pub use swan_llm as llm;
pub use swan_pool as pool;
pub use swan_sqlengine as sqlengine;

/// The most commonly used items in one import.
pub mod prelude {
    pub use swan_core::experiment::{
        evaluate_hqdl, evaluate_udf, GoldSet, Harness, HqdlEvaluation, UdfEvaluation,
    };
    pub use swan_core::hqdl::{materialize, HqdlConfig, HqdlRun};
    pub use swan_core::metrics::{execution_match, factuality, sql_is_ordered, ExTally};
    pub use swan_core::udf::{CacheScope, OnModelFailure, UdfConfig, UdfRunner, UdfStats};
    pub use swan_data::{build_knowledge, GenConfig, SwanBenchmark};
    pub use swan_llm::{
        BreakerPolicy, BreakerState, CachePolicy, CachedModel, LanguageModel, ModelKind,
        ResilientModel, RetryPolicy, SimulatedModel, UsageReport,
    };
    pub use swan_sqlengine::{
        Database, DurabilityConfig, OptimizerConfig, QueryResult, ScalarUdf, Session,
        SharedDb, Value,
    };
}
