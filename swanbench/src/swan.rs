//! The two SWAN workloads: the 120 questions through the UDF runner
//! (`swan_udf`) and through HQDL materialization plus plain SQL
//! (`swan_hqdl`).

use std::sync::Arc;
use std::time::Instant;

use swan_core::experiment::GoldSet;
use swan_core::hqdl::{expansion_keys, materialize, HqdlConfig};
use swan_core::metrics::{execution_match, factuality, sql_is_ordered};
use swan_core::udf::{UdfConfig, UdfRunner, UdfStats};
use swan_data::{build_knowledge, GenConfig, SwanBenchmark};
use swan_llm::{LanguageModel, ModelKind, SimulatedModel, StaticKnowledge};
use swan_sqlengine::ast::Statement;
use swan_sqlengine::exec::{run_select, ExecCtx};
use swan_sqlengine::{parser, Database, Error, QueryResult};

use crate::layers::TracedModel;
use crate::report::median;
use crate::trace::Tracer;
use crate::{Outcome, Phase, RunConfig};

/// Benchmark data, knowledge base and gold answers.
pub struct SwanData {
    pub bench: SwanBenchmark,
    pub kb: Arc<StaticKnowledge>,
    pub gold: GoldSet,
}

/// Generate the data set, build the model's knowledge and run the gold
/// SQL; the `data.*` spans split the time.
pub fn setup(gen: GenConfig, tracer: &Tracer) -> SwanData {
    tracer.span("bench.setup", Some(0), || {
        let bench = tracer.span("data.generate", None, || SwanBenchmark::generate(&gen));
        swan_data_parts(bench, tracer)
    })
}

/// Knowledge base and gold answers of an already generated benchmark.
pub fn swan_data_parts(bench: SwanBenchmark, tracer: &Tracer) -> SwanData {
    let kb = tracer.span("data.knowledge", None, || build_knowledge(&bench.domains));
    let gold = tracer.span("data.gold", None, || GoldSet::compute(&bench));
    SwanData { bench, kb, gold }
}

/// Run [`setup`] `setups` times; returns the last data set and the
/// per-setup seconds. Each earlier data set is dropped before the next is
/// built, so peak memory is one data set.
fn repeated_setup(
    cfg: &RunConfig,
    scale: f64,
    setups: usize,
    tracer: &Tracer,
) -> (SwanData, Vec<f64>) {
    let gen = GenConfig {
        scale,
        seed: cfg.seed,
    };
    let mut times = Vec::with_capacity(setups);
    let mut data = None;
    for _ in 0..setups {
        drop(data.take());
        crate::report::release_free_memory();
        let t = Instant::now();
        data = Some(setup(gen, tracer));
        times.push(t.elapsed().as_secs_f64());
    }
    (data.expect("at least one setup"), times)
}

/// Exact-match tally of one pass, kept to check that passes agree.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PassTally {
    correct: u64,
    total: u64,
    calls: u64,
    tokens_in: u64,
    tokens_out: u64,
}

fn check_passes_agree(tallies: &[PassTally], what: &str, checks: &mut Vec<String>) {
    if let Some(first) = tallies.first() {
        for (i, t) in tallies.iter().enumerate().skip(1) {
            if t.correct != first.correct || t.total != first.total {
                checks.push(format!(
                    "{what}: pass {i} matched {}/{} questions, pass 0 matched {}/{}",
                    t.correct, t.total, first.correct, first.total
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// swan_udf
// ---------------------------------------------------------------------------

/// Table 3's conditions: GPT-3.5 Turbo at 0 and 5 shots.
const UDF_SHOTS: [usize; 2] = [0, 5];

pub fn run_udf(cfg: &RunConfig) -> Outcome {
    let scale = cfg.scale.unwrap_or(0.2);
    let setup_tracer = Tracer::new(cfg.trace);
    let (data, setup_times) = repeated_setup(cfg, scale, 5, &setup_tracer);
    let mut out = Outcome::new(&setup_times, &setup_tracer);

    let untraced = udf_phase(&data, Arc::new(Tracer::new(false)), cfg.phase_seconds());
    if cfg.trace {
        let tracer = Arc::new(Tracer::new(true));
        let traced = udf_phase(&data, tracer.clone(), cfg.phase_seconds());
        out.traced(&untraced, &traced, &tracer, cfg);
    }
    out.finish(untraced);
    out
}

fn udf_phase(data: &SwanData, tracer: Arc<Tracer>, seconds: f64) -> Phase {
    let mut phase = Phase {
        median_per_question: true,
        ..Phase::default()
    };
    let mut tallies = Vec::new();
    let mut stats = UdfStats::default();
    let mut prompt_bytes = 0u64;
    let start = Instant::now();
    while phase.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        crate::report::reset_peak_rss();
        let pass_start = Instant::now();
        let mut tally = PassTally::default();
        // Time the benchmark spends scoring answers, left out of the rate.
        let mut check_s = 0.0;
        tracer.span("bench.pass", Some(phase.passes), || {
            for (ci, shots) in UDF_SHOTS.into_iter().enumerate() {
                let model = Arc::new(TracedModel::new(
                    SimulatedModel::new(ModelKind::Gpt35Turbo, data.kb.clone()),
                    tracer.clone(),
                ));
                let config = UdfConfig {
                    shots,
                    workers: 2,
                    ..Default::default()
                };
                for (di, domain) in data.bench.domains.iter().enumerate() {
                    // One runner per domain per condition: its answer store
                    // persists across the domain's 30 questions.
                    let mut runner = UdfRunner::new(domain, model.clone(), config);
                    for (qi, q) in domain.questions.iter().enumerate() {
                        let req = (ci * 1000 + di * 100 + qi) as u64;
                        let t = Instant::now();
                        let result = tracer.span("udf.run_sql", Some(req), || {
                            model.with_pool_parent(tracer.current(), || runner.run_sql(&q.udf_sql))
                        });
                        phase.question(&format!("{}@{shots}", q.id), t.elapsed().as_secs_f64());
                        tally.total += 1;
                        let check = Instant::now();
                        match result {
                            Ok(r) => {
                                let ok = execution_match(
                                    data.gold.get(&q.id),
                                    &r,
                                    sql_is_ordered(&q.gold_sql),
                                );
                                tally.correct += ok as u64;
                            }
                            Err(e) => phase.fail(format!("{}: {e}", q.id)),
                        }
                        check_s += check.elapsed().as_secs_f64();
                    }
                    let s = runner.stats();
                    stats.prefetched_keys += s.prefetched_keys;
                    stats.cache_hits += s.cache_hits;
                    stats.exec_cache_hits += s.exec_cache_hits;
                    stats.fallback_calls += s.fallback_calls;
                    stats.degraded += s.degraded;
                }
                let usage = model.usage();
                tally.calls += usage.calls;
                tally.tokens_in += usage.input_tokens;
                tally.tokens_out += usage.output_tokens;
                prompt_bytes += model.prompt_bytes();
            }
        });
        let pass_s = pass_start.elapsed().as_secs_f64();
        phase.peak_rss_mb.push(crate::report::peak_rss_mb());
        phase.unit_s.push(pass_s);
        phase
            .rate_samples
            .push(tally.total as f64 / (pass_s - check_s));
        crate::report::release_free_memory();
        phase.passes += 1;
        tallies.push(tally);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    check_passes_agree(&tallies, "swan_udf", &mut phase.checks);

    let n = phase.passes as f64;
    let m = &mut phase.metrics;
    let med =
        |f: fn(&PassTally) -> u64| median(&tallies.iter().map(|t| f(t) as f64).collect::<Vec<_>>());
    let first = tallies[0];
    m.put(
        "ex_pct",
        100.0 * first.correct as f64 / first.total as f64,
        "%",
    );
    m.put("model_calls", med(|t| t.calls), "count");
    m.put("model_tokens_in", med(|t| t.tokens_in), "count");
    m.put("model_tokens_out", med(|t| t.tokens_out), "count");
    m.put("llm.tokens_in", med(|t| t.tokens_in), "count");
    m.put("llm.tokens_out", med(|t| t.tokens_out), "count");
    m.put("llm.prompt_bytes", prompt_bytes as f64 / n, "bytes");
    m.put(
        "udf.prefetched_keys",
        stats.prefetched_keys as f64 / n,
        "count",
    );
    m.put("udf.cache_hits", stats.cache_hits as f64 / n, "count");
    m.put(
        "udf.exec_cache_hits",
        stats.exec_cache_hits as f64 / n,
        "count",
    );
    m.put(
        "udf.fallback_calls",
        stats.fallback_calls as f64 / n,
        "count",
    );
    m.put("udf.degraded", stats.degraded as f64 / n, "count");
    let calls: u64 = tallies.iter().map(|t| t.calls).sum();
    m.put(
        "udf.keys_per_call",
        ratio(stats.prefetched_keys as f64, calls as f64),
        "keys/call",
    );
    if first.correct == 0 {
        phase
            .checks
            .push("swan_udf: no question matched its gold answer".into());
    }
    phase
}

// ---------------------------------------------------------------------------
// swan_hqdl
// ---------------------------------------------------------------------------

/// The paper's headline condition: GPT-4 Turbo at 5 shots.
const HQDL_SHOTS: usize = 5;

pub fn run_hqdl(cfg: &RunConfig) -> Outcome {
    let scale = cfg.scale.unwrap_or(1.0);
    let setup_tracer = Tracer::new(cfg.trace);
    // Three set-ups: at Table 1's size one takes about four seconds.
    let (data, setup_times) = repeated_setup(cfg, scale, 3, &setup_tracer);
    let mut out = Outcome::new(&setup_times, &setup_tracer);
    // The output check on model calls: HQDL prompts once per distinct key.
    let expected_calls: Vec<u64> = data
        .bench
        .domains
        .iter()
        .map(|d| {
            d.curation
                .expansions
                .iter()
                .map(|e| expansion_keys(&d.curated, e).len() as u64)
                .sum()
        })
        .collect();

    let untraced = hqdl_phase(
        &data,
        &expected_calls,
        Arc::new(Tracer::new(false)),
        cfg.phase_seconds(),
    );
    if cfg.trace {
        let tracer = Arc::new(Tracer::new(true));
        let traced = hqdl_phase(&data, &expected_calls, tracer.clone(), cfg.phase_seconds());
        out.traced(&untraced, &traced, &tracer, cfg);
    }
    out.finish(untraced);
    out
}

fn hqdl_phase(data: &SwanData, expected_calls: &[u64], tracer: Arc<Tracer>, seconds: f64) -> Phase {
    let mut phase = Phase {
        median_per_question: true,
        ..Phase::default()
    };
    let mut tallies = Vec::new();
    let mut materialize_s = Vec::new();
    let (mut rows_kept, mut malformed, mut prompt_bytes, mut rows_out) = (0u64, 0u64, 0u64, 0u64);
    let mut last_dbs: Vec<Database> = Vec::new();
    let config = HqdlConfig {
        shots: HQDL_SHOTS,
        workers: 2,
    };
    let start = Instant::now();
    while phase.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        crate::report::reset_peak_rss();
        let pass_start = Instant::now();
        let mut tally = PassTally::default();
        // Time the benchmark spends scoring answers, left out of the rate.
        let mut check_s = 0.0;
        let mut pass_materialize = 0.0;
        last_dbs.clear();
        tracer.span("bench.pass", Some(phase.passes), || {
            let model = TracedModel::new(
                SimulatedModel::new(ModelKind::Gpt4Turbo, data.kb.clone()),
                tracer.clone(),
            );
            for (di, domain) in data.bench.domains.iter().enumerate() {
                let calls_before = model.usage().calls;
                let t = Instant::now();
                let run = tracer.span("hqdl.materialize", Some(di as u64 * 100), || {
                    model
                        .with_pool_parent(tracer.current(), || materialize(domain, &model, &config))
                });
                pass_materialize += t.elapsed().as_secs_f64();
                let calls = model.usage().calls - calls_before;
                if calls != expected_calls[di] {
                    phase.checks.push(format!(
                        "{}: materialize made {calls} model calls for {} distinct expansion keys",
                        domain.name, expected_calls[di]
                    ));
                }
                malformed += run.malformed_rows as u64;
                for e in &domain.curation.expansions {
                    rows_kept += run.database.catalog().row_count(&e.table).unwrap_or(0) as u64;
                }
                for (qi, q) in domain.questions.iter().enumerate() {
                    let req = (di * 100 + qi) as u64;
                    let t = Instant::now();
                    let result = query(&run.database, &q.hybrid_sql, &tracer, req);
                    phase.question(&q.id, t.elapsed().as_secs_f64());
                    tally.total += 1;
                    let check = Instant::now();
                    match result {
                        Ok(r) => {
                            rows_out += r.rows.len() as u64;
                            let ok = execution_match(
                                data.gold.get(&q.id),
                                &r,
                                sql_is_ordered(&q.gold_sql),
                            );
                            tally.correct += ok as u64;
                        }
                        Err(e) => phase.fail(format!("{}: {e}", q.id)),
                    }
                    check_s += check.elapsed().as_secs_f64();
                }
                last_dbs.push(run.database);
            }
            let usage = model.usage();
            tally.calls = usage.calls;
            tally.tokens_in = usage.input_tokens;
            tally.tokens_out = usage.output_tokens;
            prompt_bytes += model.prompt_bytes();
        });
        materialize_s.push(pass_materialize);
        let pass_s = pass_start.elapsed().as_secs_f64();
        phase.peak_rss_mb.push(crate::report::peak_rss_mb());
        phase.unit_s.push(pass_s);
        phase
            .rate_samples
            .push(tally.total as f64 / (pass_s - check_s));
        crate::report::release_free_memory();
        phase.passes += 1;
        tallies.push(tally);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    check_passes_agree(&tallies, "swan_hqdl", &mut phase.checks);

    // Data factuality of the last pass's materialized tables (Table 4),
    // outside the timed loop.
    let f1: Vec<f64> = data
        .bench
        .domains
        .iter()
        .zip(&last_dbs)
        .map(|(d, db)| factuality(d, db).average_f1())
        .collect();

    let n = phase.passes as f64;
    let first = tallies[0];
    let m = &mut phase.metrics;
    m.put(
        "ex_pct",
        100.0 * first.correct as f64 / first.total as f64,
        "%",
    );
    m.put("model_calls", first.calls as f64, "count");
    m.put("model_tokens_in", first.tokens_in as f64, "count");
    m.put("model_tokens_out", first.tokens_out as f64, "count");
    m.put("llm.tokens_in", first.tokens_in as f64, "count");
    m.put("llm.tokens_out", first.tokens_out as f64, "count");
    m.put("materialize_s", median(&materialize_s), "s");
    m.put(
        "f1_pct",
        100.0 * f1.iter().sum::<f64>() / f1.len().max(1) as f64,
        "%",
    );
    m.put("llm.prompt_bytes", prompt_bytes as f64 / n, "bytes");
    m.put("hqdl.rows_kept", rows_kept as f64 / n, "count");
    m.put("hqdl.malformed_rows", malformed as f64 / n, "count");
    m.put(
        "hqdl.rows_per_call",
        ratio(rows_kept as f64 / n, first.calls as f64),
        "rows/call",
    );
    m.put("sqlengine.rows_out", rows_out as f64 / n, "count");
    if first.correct == 0 {
        phase
            .checks
            .push("swan_hqdl: no question matched its gold answer".into());
    }
    phase
}

/// One read-only question. Untraced it is `Database::query`; traced, the
/// same two steps with a span each: parse, then execute the SELECT.
pub fn query(
    db: &Database,
    sql: &str,
    tracer: &Tracer,
    req: u64,
) -> swan_sqlengine::Result<QueryResult> {
    if !tracer.enabled() {
        return db.query(sql);
    }
    tracer.span("sqlengine.query", Some(req), || {
        let stmt = tracer.span("sqlengine.parse", None, || parser::parse_statement(sql))?;
        let Statement::Select(select) = &stmt else {
            return Err(Error::Semantic("question is not a SELECT".into()));
        };
        let rel = tracer.span("sqlengine.exec", None, || {
            let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(db.optimizer());
            run_select(select, &ctx, None)
        })?;
        Ok(QueryResult {
            columns: rel.column_names(),
            rows: rel.rows,
            rows_affected: 0,
        })
    })
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
