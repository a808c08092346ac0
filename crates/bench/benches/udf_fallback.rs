//! Engine-level `invoke_batch` vs per-row calls.
//!
//! Every `llm_map` call is batched by the engine: the operator that
//! evaluates it hands its input's distinct argument tuples to one
//! `invoke_batch`. This bench runs `llm_map` in a JOIN ON over a subquery
//! source and reports model-call counts and wall clock for the per-row
//! path (`batch_expensive_udfs` off) vs the vectorized path (default):
//! calls should collapse from `distinct_keys` to `ceil(distinct_keys /
//! batch_size)` and wall clock with it (the batched calls also fan out
//! across `UdfConfig::workers`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use swan_core::experiment::{render_table, Harness};
use swan_core::udf::{UdfConfig, UdfRunner};
use swan_llm::{Completion, LanguageModel, LlmResult, ModelKind, SimulatedModel, UsageMeter};
use swan_sqlengine::OptimizerConfig;

/// Adds per-call latency to the (instant) simulated model, standing in for
/// a network round-trip: LLM traffic is latency-bound, so this is what the
/// wall-clock numbers mean in practice.
struct LatencyModel {
    inner: Arc<SimulatedModel>,
    latency: Duration,
}

impl LanguageModel for LatencyModel {
    fn name(&self) -> &str {
        "latency-sim"
    }
    fn complete(&self, prompt: &str) -> LlmResult<Completion> {
        std::thread::sleep(self.latency);
        self.inner.complete(prompt)
    }
    fn usage_meter(&self) -> &UsageMeter {
        self.inner.usage_meter()
    }
}

/// The key columns come from a subquery source, and the call sits in a
/// JOIN ON condition.
const FALLBACK_SQL: &str =
    "SELECT COUNT(*) FROM (SELECT superhero_name, full_name FROM superhero) h \
     JOIN alignment a \
     ON llm_map('What is the moral alignment of the superhero?', \
                h.superhero_name, h.full_name) = a.alignment";

fn main() {
    let h = Harness::from_env();
    let domain = h.domain("superhero");
    let heroes = domain.curated.catalog().get("superhero").unwrap().len() as u64;
    let config = UdfConfig { workers: 8, ..Default::default() };

    println!("Fallback-path batching: llm_map in JOIN ON over a subquery source");
    println!("(Super Hero, GPT-3.5 Turbo, {heroes} heroes, batch 5, 8 workers)");
    println!();

    let mut rows = Vec::new();
    for (label, batched, latency_ms) in [
        ("per-row fallback", false, 0u64),
        ("engine invoke_batch", true, 0),
        ("per-row fallback, 2ms/call", false, 2),
        ("engine invoke_batch, 2ms/call", true, 2),
    ] {
        let sim = Arc::new(SimulatedModel::new(ModelKind::Gpt35Turbo, h.kb.clone()));
        let model: Arc<dyn LanguageModel> = if latency_ms == 0 {
            sim.clone()
        } else {
            Arc::new(LatencyModel { inner: sim.clone(), latency: Duration::from_millis(latency_ms) })
        };
        let mut runner = UdfRunner::new(domain, model, config);
        if !batched {
            runner.database_mut().set_optimizer(OptimizerConfig {
                batch_expensive_udfs: false,
                ..Default::default()
            });
        }
        let t = Instant::now();
        runner.run_sql(FALLBACK_SQL).expect("fallback workload runs");
        let elapsed = t.elapsed();
        let stats = runner.stats();
        rows.push(vec![
            label.to_string(),
            sim.usage().calls.to_string(),
            stats.fallback_calls.to_string(),
            stats.prefetched_keys.to_string(),
            format!("{:.1} ms", elapsed.as_secs_f64() * 1e3),
        ]);
    }

    println!(
        "{}",
        render_table(
            &["Execution", "LLM calls", "Fallback calls", "Batched keys", "Wall clock"],
            &rows,
        )
    );
    println!(
        "Expected shape: calls fall from {heroes} to ceil({heroes}/5) = {}; a call-count \
         regression here means the engine batching rule stopped covering the fallback path.",
        heroes.div_ceil(5)
    );
}
