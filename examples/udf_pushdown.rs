//! Hybrid-query UDFs with predicate pushdown (paper §4.2).
//!
//! `llm_map('question', key...)` runs inline in SQL. The engine batches
//! keys (BlendSQL default 5) and — with pushdown, the optimizer's
//! `order_expensive_last` — only generates values for rows that survive
//! the cheap predicates, instead of the paper's §5.5 pathology of
//! "generating heights for all players" on a point lookup.
//!
//! Run with: `cargo run --release --example udf_pushdown`

use std::sync::Arc;

use swan::prelude::*;

fn main() {
    let domain = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.1), "formula_1")
        .expect("domain exists");
    let kb = build_knowledge(std::slice::from_ref(&domain));
    let drivers = domain.curated.catalog().get("drivers").unwrap().len();

    // A point lookup: the driver code of one specific driver.
    let q = &domain.questions[0];
    println!("question: {}", q.text);
    println!("udf SQL : {}\n", q.udf_sql);

    for (label, pushdown) in [("WITH pushdown", true), ("WITHOUT pushdown", false)] {
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb.clone()));
        let mut runner = UdfRunner::new(&domain, model.clone(), UdfConfig::default());
        let db = runner.database_mut();
        db.set_optimizer(OptimizerConfig { order_expensive_last: pushdown, ..db.optimizer() });
        let result = runner.run_sql(&q.udf_sql).expect("query runs");
        let usage = model.usage();
        println!("== {label} ==");
        println!("  answer:        {}", result.rows[0][0].render());
        println!(
            "  keys generated: {} (of {} drivers)",
            runner.stats().prefetched_keys,
            drivers
        );
        println!(
            "  LLM calls: {}, input tokens: {}",
            usage.calls, usage.input_tokens
        );
    }

    println!();
    println!("The same optimizer rule orders expensive predicates last inside filters,");
    println!("so `WHERE year = 2008 AND llm_map(...) = 'x'` evaluates the cheap");
    println!("half first (swan_sqlengine::optimizer, rule 3).");
}
