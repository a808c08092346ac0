//! Ablation A4 (paper §4.2) — predicate pushdown for `llm_map`: with
//! pushdown (the optimizer's `order_expensive_last`), cheap WHERE
//! conjuncts restrict which keys are sent to the LLM; without it, the
//! engine batches the calls directly over the table scan and generates
//! values for every row (the §5.5 "generated heights for all players"
//! failure).

use std::sync::Arc;

use swan_core::experiment::{render_table, Harness};
use swan_core::udf::{UdfConfig, UdfRunner};
use swan_llm::{LanguageModel, ModelKind, SimulatedModel};
use swan_sqlengine::OptimizerConfig;

fn main() {
    let h = Harness::from_env();
    let domain = h.domain("formula_1");
    let drivers = domain.curated.catalog().get("drivers").unwrap().len();

    // Point-lookup questions benefit most: q01-q05 filter on a single
    // driver by name.
    let point_lookups: Vec<_> = domain.questions.iter().take(5).collect();

    println!("Ablation A4: UDF predicate pushdown on Formula One point lookups");
    println!("({drivers} drivers; 5 single-driver questions)");
    println!();

    let mut rows = Vec::new();
    for (label, pushdown) in [("on (BlendSQL-style)", true), ("off", false)] {
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt35Turbo, h.kb.clone()));
        let mut runner = UdfRunner::new(domain, model.clone(), UdfConfig::default());
        let db = runner.database_mut();
        db.set_optimizer(OptimizerConfig { order_expensive_last: pushdown, ..db.optimizer() });
        for q in &point_lookups {
            runner.run_sql(&q.udf_sql).expect("question runs");
        }
        let usage = model.usage();
        rows.push(vec![
            label.to_string(),
            runner.stats().prefetched_keys.to_string(),
            usage.calls.to_string(),
            format!("{:.1}k", usage.input_tokens as f64 / 1e3),
        ]);
    }

    println!(
        "{}",
        render_table(&["Pushdown", "Keys generated", "LLM calls", "Input tokens"], &rows)
    );
    println!("Expected shape: pushdown touches ~1 key per point lookup; without it,");
    println!("every driver is generated for every question.");
}
