//! # swan-core
//!
//! The paper's two hybrid-querying solutions and the evaluation harness:
//!
//! * [`hqdl`] — schema expansion (§4.1): LLM-materialized `llm_*` tables,
//!   then plain SQL;
//! * [`udf`] — hybrid-query UDFs (§4.2, BlendSQL-style): `llm_map` calls
//!   inline in SQL, batched by the engine's vectorized execution after
//!   the optimizer's predicate pushdown, with a configurable caching
//!   policy (§4.3/§5.5);
//! * [`metrics`] — execution accuracy and data-factuality F1 (§5.1);
//! * [`experiment`] — orchestration that regenerates every table of the
//!   paper's evaluation (Tables 1–5) plus the ablations in DESIGN.md.

pub mod experiment;
pub mod hqdl;
pub mod metrics;
pub mod udf;

pub use hqdl::{materialize, HqdlConfig, HqdlRun};
pub use metrics::{execution_match, factuality, ExTally, FactualityReport};
pub use udf::{CacheScope, OnModelFailure, UdfConfig, UdfRunner, UdfStats};
