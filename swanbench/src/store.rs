//! The `answer_store` workload: HQDL answers kept in a durable `SharedDb`
//! while one session writes them and another asks the domain's hybrid
//! questions.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use swan_core::hqdl::{materialize, HqdlConfig};
use swan_core::metrics::{execution_match, factuality, sql_is_ordered};
use swan_data::{GenConfig, SwanBenchmark};
use swan_llm::{LanguageModel, ModelKind, SimulatedModel, UsageReport};
use swan_sqlengine::bufpool::DEFAULT_POOL_PAGES;
use swan_sqlengine::{Database, DurabilityConfig, Row, Session, SharedDb, Table, Value};

use crate::layers::{CountingVfs, IoCounters};
use crate::report::{median, percentile};
use crate::swan::{query, ratio, swan_data_parts, SwanData};
use crate::trace::Tracer;
use crate::{Outcome, Phase, RunConfig};

const DOMAIN: &str = "california_schools";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rows per writer transaction.
const TXN_ROWS: usize = 5;
/// Rows per INSERT statement while loading the curated tables.
const LOAD_ROWS: usize = 200;
/// Log size that triggers a checkpoint. The timed phase writes several
/// MiB of log, so it crosses several checkpoints.
pub const CHECKPOINT_BYTES: u64 = 512 << 10;
/// The stamp column each refresh advances, so every acknowledged row has
/// a distinct last committed value.
const ROUND_COL: &str = "answer_round";

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_bytes: CHECKPOINT_BYTES,
        sync: true,
        paged: true,
        ..DurabilityConfig::default()
    }
}

/// One expansion's answers: the rows HQDL materialized for its `llm_*`
/// table, which the writer commits keyed by entity.
struct AnswerTable {
    name: String,
    columns: Vec<String>,
    key_len: usize,
    rows: Vec<Row>,
}

struct StoreData {
    swan: SwanData,
    answers: Vec<AnswerTable>,
    /// The in-memory database HQDL materialized the answers into: the
    /// reference the recovered store must answer like.
    reference: Database,
    usage: UsageReport,
}

struct Store {
    db: SharedDb,
    io: Arc<IoCounters>,
    path: PathBuf,
}

pub fn run_store(cfg: &RunConfig) -> Outcome {
    let scale = cfg.scale.unwrap_or(0.2);
    let setup_tracer = Tracer::new(cfg.trace);
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for i in 0..SETUPS {
        drop(built.take());
        crate::report::release_free_memory();
        let t = Instant::now();
        let data = build_data(cfg.seed, scale, &setup_tracer);
        let store = open_store(
            &cfg.tmp_dir.join(format!("setup-{i}")),
            &data,
            Arc::new(Tracer::new(false)),
        );
        times.push(t.elapsed().as_secs_f64());
        built = Some((data, store));
    }
    let mut out = Outcome::new(&times, &setup_tracer);
    let (data, store) = built.expect("SETUPS > 0");

    let untraced = store_phase(
        &data,
        store,
        Arc::new(Tracer::new(false)),
        cfg.phase_seconds(),
    );
    if cfg.trace {
        let tracer = Arc::new(Tracer::new(true));
        let store = open_store(&cfg.tmp_dir.join("traced"), &data, tracer.clone());
        let traced = store_phase(&data, store, tracer.clone(), cfg.phase_seconds());
        out.traced(&untraced, &traced, &tracer, cfg);
    }
    out.finish(untraced);
    out
}

/// Generate the domain, its knowledge and gold answers, and materialize
/// the HQDL answers the store will hold (GPT-4 Turbo, 5 shots).
fn build_data(seed: u64, scale: f64, tracer: &Tracer) -> StoreData {
    tracer.span("bench.setup", Some(0), || {
        let gen = GenConfig { scale, seed };
        let domain = tracer
            .span("data.generate", None, || {
                SwanBenchmark::generate_domain(&gen, DOMAIN)
            })
            .expect("known domain");
        let swan = swan_data_parts(
            SwanBenchmark {
                domains: vec![domain],
            },
            tracer,
        );
        let domain = &swan.bench.domains[0];
        let model = SimulatedModel::new(ModelKind::Gpt4Turbo, swan.kb.clone());
        let config = HqdlConfig {
            shots: 5,
            workers: 2,
        };
        let run = tracer.span("hqdl.materialize", None, || {
            materialize(domain, &model, &config)
        });
        let answers = domain
            .curation
            .expansions
            .iter()
            .map(|e| AnswerTable {
                name: e.table.clone(),
                columns: e.all_columns(),
                key_len: e.key_columns.len(),
                rows: run
                    .database
                    .catalog()
                    .get(&e.table)
                    .map_or_else(Vec::new, |t| t.rows.clone()),
            })
            .collect();
        let usage = model.usage();
        StoreData {
            swan,
            answers,
            reference: run.database,
            usage,
        }
    })
}

/// Create a durable store in `dir` and load the curated tables plus the
/// empty answer tables into it.
fn open_store(dir: &Path, data: &StoreData, tracer: Arc<Tracer>) -> Store {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create store directory");
    let path = dir.join("answers.db");
    let vfs = CountingVfs::new(tracer);
    let io = vfs.counters();
    let db = SharedDb::open_on(Arc::new(vfs), &path, durability()).expect("open store");
    let curated = data.swan.bench.domains[0].curated.catalog();
    let tables: Vec<&Table> = curated
        .table_names()
        .iter()
        .map(|n| &**curated.get(n).expect("listed table exists"))
        .collect();
    // One transaction, so loading costs one log sync rather than one per
    // statement.
    let mut session = db.session();
    session.execute("BEGIN").expect("begin load");
    for table in &tables {
        session
            .execute(&create_sql(table))
            .expect("create curated table");
        for chunk in table.rows.chunks(LOAD_ROWS) {
            session
                .execute(&insert_sql(&table.name, chunk, None))
                .expect("load curated rows");
        }
    }
    for a in &data.answers {
        let cols: Vec<String> = a.columns.iter().map(|c| ident(c)).collect();
        let sql = format!(
            "CREATE TABLE {} ({}, {} INTEGER, PRIMARY KEY ({}))",
            ident(&a.name),
            cols.join(", "),
            ident(ROUND_COL),
            cols[..a.key_len].join(", ")
        );
        session.execute(&sql).expect("create answer table");
    }
    session.execute("COMMIT").expect("commit load");
    Store { db, io, path }
}

/// What the writer acknowledged: (answer table, row) -> last round.
type Acked = BTreeMap<(usize, usize), i64>;

#[derive(Default)]
struct WriterOut {
    commit_s: Vec<f64>,
    aborted: u64,
    failed: Vec<String>,
    user_bytes: u64,
    acked: Acked,
    checkpoint_commit_s: Vec<f64>,
    history_max: usize,
}

fn store_phase(data: &StoreData, store: Store, tracer: Arc<Tracer>, seconds: f64) -> Phase {
    let mut phase = Phase {
        passes: 1,
        ..Phase::default()
    };
    tracer.clear();
    let io0 = store.io.snapshot();
    let c0 = store.db.commit_stats();
    let p0 = store.db.pager_stats().expect("the store is paged");
    let done = AtomicBool::new(false);
    crate::report::reset_peak_rss();
    let start = Instant::now();
    let (w, r) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let _done = SetOnDrop(&done);
            tracer.span("bench.writer", Some(0), || {
                writer(&store.db, data, &tracer, start, seconds)
            })
        });
        let reader = s.spawn(|| {
            tracer.span("bench.reader", Some(0), || {
                reader(&store.db, data, &tracer, start, &done)
            })
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.peak_rss_mb.push(crate::report::peak_rss_mb());
    let slice = phase.wall_s / 10.0;
    phase.rate_samples = (0..10)
        .map(|k| {
            let (lo, hi) = (k as f64 * slice, (k + 1) as f64 * slice);
            r.ends.iter().filter(|&&t| t >= lo && t < hi).count() as f64 / slice
        })
        .collect();
    let questions = &data.swan.bench.domains[0].questions;
    for (i, secs) in r.latencies.iter().enumerate() {
        phase.question(&questions[i % questions.len()].id, *secs);
    }
    for e in r.failed.into_iter().chain(w.failed.iter().cloned()) {
        phase.fail(e);
    }
    phase.commits = w.commit_s.len() as u64;
    phase.attempted_commits = phase.commits + w.aborted + w.failed.len() as u64;
    phase.unit_s = r.latencies;

    let io = store.io.snapshot().since(&io0);
    let c = store.db.commit_stats();
    let p = store.db.pager_stats().expect("the store is paged");
    phase.notes.push(format!(
        "store: {} pages at the end, pool of {} pages",
        p.pages, DEFAULT_POOL_PAGES
    ));
    if p.pool.evicted_pinned != 0 {
        phase.checks.push(format!(
            "bufpool evicted {} pinned pages",
            p.pool.evicted_pinned
        ));
    }
    let m = &mut phase.metrics;
    let ms = |v: &[f64], q: f64| 1e3 * percentile(v, q);
    m.put(
        "commits_per_s",
        w.commit_s.len() as f64 / phase.wall_s,
        "1/s",
    );
    m.put("commit_p50_ms", ms(&w.commit_s, 50.0), "ms");
    m.put("commit_p99_ms", ms(&w.commit_s, 99.0), "ms");
    m.put(
        "write_amp",
        ratio(io.written() as f64, w.user_bytes as f64),
        "bytes/byte",
    );
    m.put("shared.commits", (c.commits - c0.commits) as f64, "count");
    m.put(
        "shared.log_appends",
        (c.batches - c0.batches) as f64,
        "count",
    );
    m.put(
        "shared.commits_per_append",
        ratio(
            (c.commits - c0.commits) as f64,
            (c.batches - c0.batches) as f64,
        ),
        "commits/append",
    );
    m.put("sqlengine.rows_out", r.rows_out as f64, "count");
    m.put("txn.aborts", w.aborted as f64, "count");
    m.put("txn.history_entries_max", w.history_max as f64, "count");
    m.put("vfs.wal_bytes", io.wal_bytes as f64, "bytes");
    m.put("vfs.page_bytes", io.page_bytes as f64, "bytes");
    m.put("vfs.meta_bytes", io.meta_bytes as f64, "bytes");
    m.put("vfs.writes", io.writes as f64, "count");
    m.put("vfs.fsyncs", io.fsyncs as f64, "count");
    m.put("vfs.fsync_s", io.fsync_ns as f64 / 1e9, "s");
    m.put("vfs.write_s", io.write_ns as f64 / 1e9, "s");
    m.put("vfs.reads", io.reads as f64, "count");
    m.put("pager.checkpoints", (p.epoch - p0.epoch) as f64, "count");
    let checkpoint_ms = if w.checkpoint_commit_s.is_empty() {
        0.0
    } else {
        1e3 * median(&w.checkpoint_commit_s)
    };
    m.put("pager.checkpoint_commit_ms", checkpoint_ms, "ms");
    let (hits, misses) = (p.pool.hits - p0.pool.hits, p.pool.misses - p0.pool.misses);
    m.put("bufpool.hits", hits as f64, "count");
    m.put("bufpool.misses", misses as f64, "count");
    m.put(
        "bufpool.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m.put(
        "bufpool.evictions",
        (p.pool.evictions - p0.pool.evictions) as f64,
        "count",
    );
    m.put(
        "bufpool.dirty_evictions",
        (p.pool.dirty_evictions - p0.pool.dirty_evictions) as f64,
        "count",
    );
    // The answers were produced in set-up: the timed phase makes no
    // model calls.
    m.put("llm.tokens_in", 0.0, "count");
    m.put("llm.tokens_out", 0.0, "count");
    m.put("llm.prompt_bytes", 0.0, "bytes");
    m.put("model_calls", data.usage.calls as f64, "count");
    m.put("model_tokens_in", data.usage.input_tokens as f64, "count");
    m.put("model_tokens_out", data.usage.output_tokens as f64, "count");

    let Store { db, path, .. } = store;
    drop(db);
    verify_reopened(&path, data, &w.acked, &mut phase);
    phase
}

struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Insert every answer in 5-row transactions, then refresh them with
/// `UPDATE … WHERE <pk>` round after round until the time is up.
fn writer(
    db: &SharedDb,
    data: &StoreData,
    tracer: &Tracer,
    start: Instant,
    seconds: f64,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut session = db.session();
    let work: Vec<(usize, usize)> = data
        .answers
        .iter()
        .enumerate()
        .flat_map(|(ti, a)| (0..a.rows.len()).map(move |ri| (ti, ri)))
        .collect();
    let mut epoch = db.pager_stats().map_or(0, |p| p.epoch);
    let mut round = 0i64;
    'rounds: loop {
        for chunk in work.chunks(TXN_ROWS) {
            if round > 0 && start.elapsed().as_secs_f64() >= seconds {
                break 'rounds;
            }
            let mut stmts = vec!["BEGIN".to_string()];
            let mut bytes = 0;
            if round == 0 {
                for (ti, a) in data.answers.iter().enumerate() {
                    let rows: Vec<Row> = chunk
                        .iter()
                        .filter(|w| w.0 == ti)
                        .map(|w| a.rows[w.1].clone())
                        .collect();
                    if !rows.is_empty() {
                        bytes += rows.iter().map(|r| row_bytes(r) + 8).sum::<u64>();
                        stmts.push(insert_sql(&a.name, &rows, Some(round)));
                    }
                }
            } else {
                for &(ti, ri) in chunk {
                    let a = &data.answers[ti];
                    bytes += row_bytes(&a.rows[ri]) + 8;
                    stmts.push(update_sql(a, &a.rows[ri], round));
                }
            }
            stmts.push("COMMIT".to_string());
            let req = out.commit_s.len() as u64;
            let t = Instant::now();
            match run_txn(&mut session, &stmts, tracer, req) {
                Ok(()) => {
                    let secs = t.elapsed().as_secs_f64();
                    out.commit_s.push(secs);
                    out.user_bytes += bytes;
                    for &(ti, ri) in chunk {
                        out.acked.insert((ti, ri), round);
                    }
                    if tracer.enabled() {
                        let now = db.pager_stats().map_or(0, |p| p.epoch);
                        if now != epoch {
                            out.checkpoint_commit_s.push(secs);
                            epoch = now;
                        }
                        out.history_max = out.history_max.max(db.mvcc_stats().history_entries);
                    }
                }
                Err(swan_sqlengine::Error::Conflict(_)) => out.aborted += 1,
                Err(e) => out.failed.push(format!("commit {req}: {e}")),
            }
        }
        round += 1;
    }
    out
}

fn run_txn(
    session: &mut Session,
    stmts: &[String],
    tracer: &Tracer,
    req: u64,
) -> swan_sqlengine::Result<()> {
    tracer.span("shared.txn", Some(req), || {
        for (i, sql) in stmts.iter().enumerate() {
            let name = if i + 1 == stmts.len() {
                "shared.commit"
            } else {
                "shared.stmt"
            };
            if let Err(e) = tracer.span(name, None, || session.execute(sql)) {
                if session.in_transaction() {
                    let _ = session.execute("ROLLBACK");
                }
                return Err(e);
            }
        }
        Ok(())
    })
}

#[derive(Default)]
struct ReaderOut {
    latencies: Vec<f64>,
    /// Completion time of each query since the phase started.
    ends: Vec<f64>,
    failed: Vec<String>,
    rows_out: u64,
}

/// Ask the domain's hybrid questions in a loop until the writer is done
/// (and at least once each). Times are in seconds.
fn reader(
    db: &SharedDb,
    data: &StoreData,
    tracer: &Tracer,
    start: Instant,
    done: &AtomicBool,
) -> ReaderOut {
    let session = db.session();
    let questions = &data.swan.bench.domains[0].questions;
    let mut out = ReaderOut::default();
    let mut i = 0;
    while !done.load(Ordering::Acquire) || i < questions.len() {
        let q = &questions[i % questions.len()];
        let req = i as u64;
        let t = Instant::now();
        let result = if tracer.enabled() {
            // `Session::query` outside a transaction: a snapshot, then
            // the same parse and execute as `Database::query`.
            let snapshot = tracer.span("shared.snapshot", Some(req), || db.snapshot());
            query(&snapshot, &q.hybrid_sql, tracer, req)
        } else {
            session.query(&q.hybrid_sql)
        };
        out.latencies.push(t.elapsed().as_secs_f64());
        out.ends.push(start.elapsed().as_secs_f64());
        match result {
            Ok(r) => out.rows_out += r.rows.len() as u64,
            Err(e) => out.failed.push(format!("{}: {e}", q.id)),
        }
        i += 1;
    }
    out
}

/// Reopen the closed store from disk and check that every acknowledged
/// answer row holds its last committed value; then score the domain's
/// questions and the answers' factuality on the recovered state.
fn verify_reopened(path: &Path, data: &StoreData, acked: &Acked, phase: &mut Phase) {
    let db = match Database::open_with(path, durability()) {
        Ok(db) => db,
        Err(e) => {
            phase
                .checks
                .push(format!("reopening the store failed: {e}"));
            return;
        }
    };
    let mut wrong = 0usize;
    for (ti, a) in data.answers.iter().enumerate() {
        let Some(table) = db.catalog().get(&a.name) else {
            phase
                .checks
                .push(format!("{} is missing after reopen", a.name));
            continue;
        };
        let expected_rows = acked.keys().filter(|k| k.0 == ti).count();
        if table.rows.len() != expected_rows {
            phase.checks.push(format!(
                "{} holds {} rows after reopen, {} were acknowledged",
                a.name,
                table.rows.len(),
                expected_rows
            ));
        }
        for (&(_, ri), &round) in acked.range((ti, 0)..(ti + 1, 0)) {
            let answer = &a.rows[ri];
            let mut expected: Vec<Value> = answer.to_vec();
            expected.push(Value::Integer(round));
            match table.find_by_pk(&answer[..a.key_len]) {
                Some(row) if row[..] == expected[..] => {}
                _ => wrong += 1,
            }
        }
    }
    if wrong > 0 {
        phase.checks.push(format!(
            "{wrong} acknowledged answer rows lost their last committed value"
        ));
    }
    // The recovered store must answer every question exactly like the
    // in-memory materialization it was written from; its execution
    // accuracy is scored against the gold SQL as in the other workloads.
    let domain = &data.swan.bench.domains[0];
    let (mut correct, mut differ) = (0, Vec::new());
    for q in &domain.questions {
        let ordered = sql_is_ordered(&q.gold_sql);
        match (db.query(&q.hybrid_sql), data.reference.query(&q.hybrid_sql)) {
            (Ok(r), Ok(want)) => {
                if !execution_match(&want, &r, ordered) {
                    differ.push(q.id.clone());
                }
                correct += execution_match(data.swan.gold.get(&q.id), &r, ordered) as u64;
            }
            _ => differ.push(q.id.clone()),
        }
    }
    if !differ.is_empty() {
        phase.checks.push(format!(
            "reopened store answers differently: {}",
            differ.join(", ")
        ));
    }
    let m = &mut phase.metrics;
    m.put(
        "ex_pct",
        100.0 * correct as f64 / domain.questions.len() as f64,
        "%",
    );
    m.put("f1_pct", 100.0 * factuality(domain, &db).average_f1(), "%");
}

// ---------------------------------------------------------------------------
// SQL text
// ---------------------------------------------------------------------------

fn ident(name: &str) -> String {
    format!("\"{}\"", name.replace('"', "\"\""))
}

/// A literal that parses back to exactly `v`.
fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Integer(i) => i.to_string(),
        Value::Real(f) => {
            let s = f.to_string();
            if s.contains(['.', 'e', 'E']) || !f.is_finite() {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Text(t) => format!("'{}'", t.replace('\'', "''")),
    }
}

fn create_sql(table: &Table) -> String {
    let mut cols: Vec<String> = table
        .columns
        .iter()
        .map(|c| {
            let mut def = ident(&c.name);
            if let Some(t) = &c.decl_type {
                def.push(' ');
                def.push_str(t);
            }
            if c.not_null {
                def.push_str(" NOT NULL");
            }
            def
        })
        .collect();
    if !table.primary_key.is_empty() {
        let pk: Vec<String> = table
            .primary_key
            .iter()
            .map(|&i| ident(&table.columns[i].name))
            .collect();
        cols.push(format!("PRIMARY KEY ({})", pk.join(", ")));
    }
    format!("CREATE TABLE {} ({})", ident(&table.name), cols.join(", "))
}

/// `INSERT` of `rows`, each followed by the round stamp when given.
fn insert_sql(table: &str, rows: &[Row], round: Option<i64>) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut cells: Vec<String> = r.iter().map(literal).collect();
            if let Some(round) = round {
                cells.push(round.to_string());
            }
            format!("({})", cells.join(", "))
        })
        .collect();
    format!("INSERT INTO {} VALUES {}", ident(table), tuples.join(", "))
}

fn update_sql(a: &AnswerTable, row: &Row, round: i64) -> String {
    let sets: Vec<String> = a.columns[a.key_len..]
        .iter()
        .zip(&row[a.key_len..])
        .map(|(c, v)| format!("{} = {}", ident(c), literal(v)))
        .chain(std::iter::once(format!("{} = {round}", ident(ROUND_COL))))
        .collect();
    let key: Vec<String> = a.columns[..a.key_len]
        .iter()
        .zip(&row[..a.key_len])
        .map(|(c, v)| format!("{} = {}", ident(c), literal(v)))
        .collect();
    format!(
        "UPDATE {} SET {} WHERE {}",
        ident(&a.name),
        sets.join(", "),
        key.join(" AND ")
    )
}

/// Bytes of row data: 8 per number, the UTF-8 length of text.
fn row_bytes(row: &Row) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Null => 0,
            Value::Integer(_) | Value::Real(_) => 8,
            Value::Text(t) => t.len() as u64,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_round_trip_through_the_parser() {
        let values = [
            Value::Null,
            Value::Integer(-7),
            Value::Real(3.0),
            Value::Real(-0.125),
            Value::Real(1e-9),
            Value::text("St. Mary's"),
        ];
        let cells: Vec<String> = values.iter().map(literal).collect();
        let db = Database::new();
        let r = db.query(&format!("SELECT {}", cells.join(", "))).unwrap();
        assert_eq!(&r.rows[0][..], &values[..]);
    }
}
