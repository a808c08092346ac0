//! Serial ≡ parallel differential-test harness.
//!
//! Concurrency claims are only credible when backed by controlled
//! differential testing (cf. ZEUS), so this harness pins the morsel-driven
//! parallel executor against the serial engine: a query generator over the
//! four SWAN domain shapes runs every statement through the serial
//! executor (`threads: 1` — no [`Plan::Parallel`] node is ever inserted)
//! and through the parallel executor at thread counts **2 and 8**
//! (`parallel_threshold: 1`, so even tiny generated tables exercise the
//! parallel operators), and asserts equivalent results:
//!
//! * statements with `ORDER BY` must match **exactly** (including the
//!   tie-break contract: `LIMIT k` keeps the stable-sort prefix);
//! * statements without `ORDER BY` are compared order-insensitively
//!   (the SQL contract) **and** byte-exactly — the parallel executor
//!   promises morsel-order concatenation, making results identical to
//!   serial execution, and this harness is where that stronger promise
//!   is enforced.
//!
//! Coverage: filtered scans/projections, inner/LEFT/three-way joins,
//! GROUP BY + HAVING, DISTINCT, ORDER BY + LIMIT with deliberate ties,
//! compound UNION, subquery-bearing predicates (IN, correlated EXISTS,
//! scalar aggregates — the statement-shared `Send + Sync` subquery cache
//! lets these run under `Plan::Parallel` instead of falling back to the
//! serial operator), and expensive-UDF batching (a counting UDF stands in
//! for an LLM call; the parallel engine must return the same rows and
//! never evaluate more distinct argument tuples than the serial engine).
//!
//! A second differential axis pins **columnar ≡ row** execution: every
//! generated query also runs with `OptimizerConfig::columnar` off (the
//! reference row path) and on, at 1 and 8 threads, under the same
//! equivalence contract — plus a NULL-heavy generator that stresses the
//! validity bitmaps, Kleene kernels and NULL-never-joins rules.
//!
//! Reproducibility: case streams honour `SWAN_SEED` (see the proptest
//! shim); a failure prints the seed to replay it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use swan_sqlengine::value::Value;
use swan_sqlengine::{Database, OptimizerConfig, QueryResult, ScalarUdf};

/// The thread counts the parallel side runs at.
const THREAD_COUNTS: &[usize] = &[2, 8];

/// Schemas shaped like the four SWAN domains (a fact table, a dimension,
/// and a small lookup each), populated deterministically from the
/// generated rows so serial and parallel runs see identical data.
const DOMAINS: &[(&str, &str, &str, &str)] = &[
    (
        "superhero",
        "CREATE TABLE superhero (id INTEGER PRIMARY KEY, publisher_id INTEGER, height_cm INTEGER, hero_name TEXT)",
        "CREATE TABLE publisher (id INTEGER PRIMARY KEY, publisher_name TEXT)",
        "superhero s JOIN publisher p ON s.publisher_id = p.id",
    ),
    (
        "formula_1",
        "CREATE TABLE results (id INTEGER PRIMARY KEY, driver_id INTEGER, points INTEGER, status TEXT)",
        "CREATE TABLE drivers (id INTEGER PRIMARY KEY, surname TEXT)",
        "results s JOIN drivers p ON s.driver_id = p.id",
    ),
    (
        "california_schools",
        "CREATE TABLE satscores (id INTEGER PRIMARY KEY, school_id INTEGER, avg_scr_math INTEGER, rtype TEXT)",
        "CREATE TABLE schools (id INTEGER PRIMARY KEY, school_name TEXT)",
        "satscores s JOIN schools p ON s.school_id = p.id",
    ),
    (
        "european_football",
        "CREATE TABLE player_attributes (id INTEGER PRIMARY KEY, player_id INTEGER, overall_rating INTEGER, foot TEXT)",
        "CREATE TABLE player (id INTEGER PRIMARY KEY, player_name TEXT)",
        "player_attributes s JOIN player p ON s.player_id = p.id",
    ),
];

fn fact_table(domain: usize) -> &'static str {
    ["superhero", "results", "satscores", "player_attributes"][domain]
}

fn dim_table(domain: usize) -> &'static str {
    ["publisher", "drivers", "schools", "player"][domain]
}

fn fact_num(domain: usize) -> &'static str {
    ["height_cm", "points", "avg_scr_math", "overall_rating"][domain]
}

fn fact_fk(domain: usize) -> &'static str {
    ["publisher_id", "driver_id", "school_id", "player_id"][domain]
}

fn fact_text(domain: usize) -> &'static str {
    ["hero_name", "status", "rtype", "foot"][domain]
}

/// Build one SWAN-shaped domain database. Fact rows link into the
/// dimension (with some dangling/NULL keys so LEFT-join and NULL
/// semantics get exercised); `tiny` is a 4-row lookup.
fn domain_db(domain: usize, rows: &[(i64, i64, String)]) -> Database {
    let (_, fact_ddl, dim_ddl, _) = DOMAINS[domain];
    let mut db = Database::new();
    db.execute(fact_ddl).unwrap();
    db.execute(dim_ddl).unwrap();
    db.execute("CREATE TABLE tiny (k INTEGER PRIMARY KEY, tag TEXT)").unwrap();

    let dim_rows = (rows.len() / 3).max(2);
    {
        let dim = db.catalog_mut().get_mut(dim_table(domain)).unwrap();
        for i in 0..dim_rows {
            dim.insert_row(vec![Value::Integer(i as i64), Value::text(format!("name-{i}"))])
                .unwrap();
        }
    }
    {
        let fact = db.catalog_mut().get_mut(fact_table(domain)).unwrap();
        for (i, (raw, n, s)) in rows.iter().enumerate() {
            let fk = match raw.rem_euclid(10) {
                0 => Value::Null,
                _ => Value::Integer(raw.rem_euclid(dim_rows as i64 + 3)),
            };
            fact.insert_row(vec![
                Value::Integer(i as i64),
                fk,
                // Narrow numeric range on purpose: ORDER BY ties abound.
                Value::Integer(n.rem_euclid(7)),
                Value::text(s.clone()),
            ])
            .unwrap();
        }
    }
    {
        let tiny = db.catalog_mut().get_mut("tiny").unwrap();
        for k in 0..4i64 {
            tiny.insert_row(vec![Value::Integer(k), Value::text(format!("tag-{k}"))]).unwrap();
        }
    }
    db
}

/// A deterministic "expensive" UDF standing in for an LLM call; counts
/// evaluated argument tuples across `invoke` and `invoke_batch`.
#[derive(Default)]
struct TagUdf {
    tuples: AtomicU64,
}

impl ScalarUdf for TagUdf {
    fn name(&self) -> &str {
        "slow_tag"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        self.tuples.fetch_add(1, Ordering::SeqCst);
        let tag = args.iter().map(Value::render).collect::<Vec<_>>().join("-");
        Ok(Value::text(format!("v{tag}")))
    }
    fn is_expensive(&self) -> bool {
        true
    }
}

fn serial_config() -> OptimizerConfig {
    OptimizerConfig { threads: 1, ..Default::default() }
}

fn parallel_config(threads: usize) -> OptimizerConfig {
    // Threshold 1: even the smallest generated table goes parallel.
    OptimizerConfig { threads, parallel_threshold: 1, ..Default::default() }
}

/// Sorted row texts for order-insensitive comparison.
fn multiset(result: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = result
        .rows
        .iter()
        .map(|r| r.iter().map(Value::render).collect::<Vec<_>>().join("\u{1}"))
        .collect();
    rows.sort();
    rows
}

/// Assert the parallel result is equivalent to the serial one: exact for
/// ORDER BY; order-insensitive *and* byte-exact otherwise (the parallel
/// executor's morsel-order concatenation makes results identical).
fn assert_equivalent(sql: &str, threads: usize, serial: &QueryResult, parallel: &QueryResult) {
    assert_eq!(
        serial.columns, parallel.columns,
        "column names diverge at {threads} threads for {sql}"
    );
    let has_order_by = sql.to_ascii_uppercase().contains("ORDER BY");
    if !has_order_by {
        assert_eq!(
            multiset(serial),
            multiset(parallel),
            "row multiset diverges at {threads} threads for {sql}"
        );
    }
    assert_eq!(
        serial.rows, parallel.rows,
        "rows diverge at {threads} threads for {sql} (byte-identical contract)"
    );
}

/// Run `sql` serially and at every parallel thread count over fresh,
/// identically-populated databases; assert equivalence. Then run the
/// columnar ≡ row axis: the row path (`columnar: false`) is the
/// reference, and the columnar kernels must agree byte-for-byte at 1
/// and 8 threads.
fn diff_query(domain: usize, rows: &[(i64, i64, String)], sql: &str) {
    let mut serial_db = domain_db(domain, rows);
    serial_db.set_optimizer(serial_config());
    let serial = serial_db.query(sql).unwrap_or_else(|e| panic!("serial {sql}: {e}"));
    for &threads in THREAD_COUNTS {
        let mut par_db = domain_db(domain, rows);
        par_db.set_optimizer(parallel_config(threads));
        let parallel =
            par_db.query(sql).unwrap_or_else(|e| panic!("{threads}-thread {sql}: {e}"));
        assert_equivalent(sql, threads, &serial, &parallel);
    }

    let run_columnar = |threads: usize, columnar: bool| -> QueryResult {
        let mut db = domain_db(domain, rows);
        db.set_optimizer(OptimizerConfig {
            threads,
            parallel_threshold: 1,
            columnar,
            ..Default::default()
        });
        db.query(sql)
            .unwrap_or_else(|e| panic!("columnar={columnar} {threads}-thread {sql}: {e}"))
    };
    let row_ref = run_columnar(1, false);
    for &threads in &[1usize, 8] {
        let columnar = run_columnar(threads, true);
        assert_equivalent(sql, threads, &row_ref, &columnar);
    }
}

proptest! {
    /// The generated query family: joins, GROUP BY/HAVING, DISTINCT,
    /// LIMIT (with ties), LEFT joins, three-way chains and compounds,
    /// across the four SWAN domain shapes.
    #[test]
    fn parallel_execution_matches_serial(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..48),
        domain in 0usize..4,
        threshold in -40i64..120,
        k in 0usize..9,
        shape in 0usize..12,
    ) {
        let (_, _, _, join) = DOMAINS[domain];
        let fact = fact_table(domain);
        let dim = dim_table(domain);
        let num = fact_num(domain);
        let fk = fact_fk(domain);
        let text = fact_text(domain);
        let threshold = threshold.rem_euclid(7);
        let sql = match shape {
            // Filtered scan + projection (morsel filter + projection).
            0 => format!(
                "SELECT s.id, s.{num} + 1, UPPER(s.{text}) FROM {fact} s \
                 WHERE s.{num} > {threshold}"
            ),
            // Inner hash join (partitioned build/probe).
            1 => format!(
                "SELECT s.id, p.id FROM {join} WHERE s.{num} <= {threshold} ORDER BY s.id"
            ),
            // LEFT join with NULL-padded non-matches.
            2 => format!(
                "SELECT s.id, p.id FROM {fact} s LEFT JOIN {dim} p ON s.{fk} = p.id \
                 ORDER BY s.id"
            ),
            // Two-phase GROUP BY + HAVING over a join.
            3 => format!(
                "SELECT p.id, COUNT(*), SUM(s.{num}) FROM {join} \
                 GROUP BY p.id HAVING COUNT(*) > 1 ORDER BY p.id"
            ),
            // GROUP BY without ORDER BY: first-seen group order must
            // survive the parallel merge.
            4 => format!(
                "SELECT s.{num}, COUNT(*), MIN(s.{text}) FROM {fact} s GROUP BY s.{num}"
            ),
            // DISTINCT (first-occurrence dedupe over parallel input).
            5 => format!("SELECT DISTINCT s.{num}, s.{fk} FROM {fact} s"),
            // ORDER BY a low-cardinality key + LIMIT: the top-k
            // tie-break contract at every thread count.
            6 => format!(
                "SELECT s.id, s.{num} FROM {fact} s ORDER BY s.{num} LIMIT {k}"
            ),
            // Three-way chain (join reordering + Permute under Parallel).
            7 => format!(
                "SELECT COUNT(*) FROM {fact} s JOIN {dim} p ON s.{fk} = p.id \
                 JOIN tiny t ON p.id = t.k WHERE s.{num} > {threshold}"
            ),
            // Compound UNION over two parallel cores.
            8 => format!(
                "SELECT s.{num} FROM {fact} s WHERE s.{num} > {threshold} \
                 UNION SELECT k FROM tiny ORDER BY 1"
            ),
            // Uncorrelated IN-subquery predicate: runs morsel-parallel
            // against the statement-shared subquery cache (executes the
            // inner SELECT at most once across all workers).
            9 => format!(
                "SELECT s.id, s.{num} FROM {fact} s \
                 WHERE s.{fk} IN (SELECT p.id FROM {dim} p WHERE p.id > 1) \
                 ORDER BY s.id"
            ),
            // Correlated EXISTS: re-executes per row on whichever worker
            // owns the row; classification (correlated vs not) must agree
            // with the serial engine.
            10 => format!(
                "SELECT s.id FROM {fact} s \
                 WHERE EXISTS (SELECT 1 FROM {dim} p WHERE p.id = s.{fk} \
                               AND p.id > {threshold} - 3) \
                 ORDER BY s.id"
            ),
            // Scalar-aggregate subquery in a comparison (uncorrelated,
            // shared result) next to a cheap conjunct.
            _ => format!(
                "SELECT s.id, s.{num} FROM {fact} s \
                 WHERE s.{num} >= (SELECT AVG(s2.{num}) FROM {fact} s2) \
                 AND s.id >= 0 ORDER BY s.id"
            ),
        };
        diff_query(domain, &rows, &sql);
    }

    /// Expensive-UDF batching under parallel execution: same rows, and the
    /// parallel engine never evaluates more distinct argument tuples than
    /// the serial engine (the statement-level prefetch answers workers
    /// from their snapshot).
    #[test]
    fn parallel_udf_batching_matches_serial(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..40),
        domain in 0usize..4,
        threshold in -40i64..120,
        shape in 0usize..3,
    ) {
        let (_, _, _, join) = DOMAINS[domain];
        let fact = fact_table(domain);
        let num = fact_num(domain);
        let threshold = threshold.rem_euclid(7);
        let sql = match shape {
            // Expensive call in the projection.
            0 => format!("SELECT s.id, slow_tag('p', s.{num}) FROM {fact} s ORDER BY s.id"),
            // Expensive conjunct in WHERE next to a cheap one
            // (Filter(expensive) ← Batch ← Filter(cheap), under Parallel).
            1 => format!(
                "SELECT s.id FROM {join} WHERE s.{num} > {threshold} \
                 AND slow_tag('w', p.id) LIKE 'vw%' ORDER BY s.id"
            ),
            // Expensive call in HAVING over grouped output.
            _ => format!(
                "SELECT p.id, COUNT(*) FROM {join} GROUP BY p.id \
                 HAVING slow_tag('h', p.id) LIKE 'vh%' ORDER BY p.id"
            ),
        };

        let serial_udf = Arc::new(TagUdf::default());
        let mut serial_db = domain_db(domain, &rows);
        serial_db.register_udf(serial_udf.clone());
        serial_db.set_optimizer(serial_config());
        let serial = serial_db.query(&sql).unwrap();
        let serial_tuples = serial_udf.tuples.load(Ordering::SeqCst);

        for &threads in THREAD_COUNTS {
            let par_udf = Arc::new(TagUdf::default());
            let mut par_db = domain_db(domain, &rows);
            par_db.register_udf(par_udf.clone());
            par_db.set_optimizer(parallel_config(threads));
            let parallel = par_db.query(&sql).unwrap();
            assert_equivalent(&sql, threads, &serial, &parallel);
            let par_tuples = par_udf.tuples.load(Ordering::SeqCst);
            prop_assert!(
                par_tuples <= serial_tuples,
                "{sql}: parallel evaluated {par_tuples} tuples at {threads} threads, \
                 serial {serial_tuples}"
            );
        }
    }

    /// INSERT … SELECT and UPDATE/DELETE write paths agree after a
    /// parallel read side produced the rows.
    #[test]
    fn parallel_write_paths_match_serial(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..32),
        domain in 0usize..4,
        threshold in -40i64..120,
    ) {
        let fact = fact_table(domain);
        let num = fact_num(domain);
        let threshold = threshold.rem_euclid(7);
        let script = [
            format!("CREATE TABLE sink (id INTEGER, v INTEGER)"),
            format!(
                "INSERT INTO sink SELECT s.id, s.{num} FROM {fact} s WHERE s.{num} > {threshold}"
            ),
            format!("UPDATE sink SET v = v * 2 WHERE v < 4"),
            format!("DELETE FROM sink WHERE v % 3 = 0"),
        ];
        let run = |config: OptimizerConfig| -> Vec<String> {
            let mut db = domain_db(domain, &rows);
            db.set_optimizer(config);
            for stmt in &script {
                db.execute(stmt).unwrap();
            }
            multiset(&db.query("SELECT id, v FROM sink").unwrap())
        };
        let serial = run(serial_config());
        for &threads in THREAD_COUNTS {
            prop_assert_eq!(&serial, &run(parallel_config(threads)), "threads {}", threads);
        }
    }

    /// Columnar ≡ row on NULL-heavy tables: every column type carries a
    /// validity bitmap, and the kernels' three-valued logic, aggregate
    /// NULL-skipping and join NULL-never-matches rules must agree with
    /// the row evaluator on tables where NULLs dominate — at 1 and 8
    /// threads.
    #[test]
    fn columnar_matches_row_on_null_heavy_tables(
        cells in proptest::collection::vec(
            (0u8..8, any::<i64>(), -8i64..8, 0usize..5), 4..60),
        shape in 0usize..9,
        threshold in -4i64..4,
    ) {
        // ~half of every nullable column is NULL; `t` mixes plain and
        // numeric strings (text→number coercion in kernels), `r` carries
        // -0.0 and fractions, `b` is 0/1 so it classifies as a Bool
        // column with a validity bitmap.
        const TEXTS: &[&str] = &["a", "b", "3", "-1.5", ""];
        let build = || {
            let mut db = Database::new();
            db.execute(
                "CREATE TABLE n (id INTEGER PRIMARY KEY, i INTEGER, r REAL, t TEXT, b INTEGER)",
            )
            .unwrap();
            let tbl = db.catalog_mut().get_mut("n").unwrap();
            for (row_id, (nulls, raw, small, ti)) in cells.iter().enumerate() {
                let i = if nulls & 1 == 0 { Value::Integer(raw % 5) } else { Value::Null };
                let r = if nulls & 2 == 0 {
                    let f = if *small == 0 { -0.0 } else { *small as f64 / 2.0 };
                    Value::Real(f)
                } else {
                    Value::Null
                };
                let t = if nulls & 4 == 0 { Value::text(TEXTS[*ti]) } else { Value::Null };
                let b = if raw % 3 == 0 { Value::Null } else { Value::Integer(raw.rem_euclid(2)) };
                tbl.insert_row(vec![Value::Integer(row_id as i64), i, r, t, b]).unwrap();
            }
            db
        };
        let sql = match shape {
            0 => format!("SELECT id, i FROM n WHERE i > {threshold}"),
            1 => "SELECT id FROM n WHERE t = 'a' OR i IS NULL".to_string(),
            2 => format!(
                "SELECT id FROM n WHERE i BETWEEN {threshold} AND {} ORDER BY id",
                threshold + 3
            ),
            3 => "SELECT COUNT(*), COUNT(i), SUM(i), AVG(r), MIN(t), MAX(t), SUM(t) FROM n"
                .to_string(),
            4 => "SELECT b, COUNT(*), SUM(r) FROM n GROUP BY b".to_string(),
            5 => "SELECT i, COUNT(r), AVG(i) FROM n GROUP BY i ORDER BY 1".to_string(),
            6 => "SELECT a.id, c.id FROM n a JOIN n c ON a.i = c.i ORDER BY a.id, c.id"
                .to_string(),
            7 => "SELECT id FROM n WHERE i IN (1, 2, NULL)".to_string(),
            _ => format!("SELECT id FROM n WHERE NOT (i > {threshold} AND b = 1)"),
        };
        let run = |threads: usize, columnar: bool| -> QueryResult {
            let mut db = build();
            db.set_optimizer(OptimizerConfig {
                threads,
                parallel_threshold: 1,
                columnar,
                ..Default::default()
            });
            db.query(&sql)
                .unwrap_or_else(|e| panic!("columnar={columnar} {threads}-thread {sql}: {e}"))
        };
        let row_ref = run(1, false);
        for &threads in &[1usize, 8] {
            let columnar = run(threads, true);
            assert_equivalent(&sql, threads, &row_ref, &columnar);
        }
    }

    /// Text→number coercion parity on adversarial spellings: the columnar
    /// truthiness and SUM/AVG kernels parse each dictionary entry once
    /// through `parse_text_f64` — the same helper `Value::as_f64` uses —
    /// and this generator throws every numeric-ish edge the `f64` grammar
    /// distinguishes (signs, bare dots, inf/NaN spellings, overflow to
    /// ±inf, underscores/hex/empty strings that must NOT parse) at both
    /// paths. Any parser divergence shows up as a row or aggregate diff.
    #[test]
    fn columnar_matches_row_on_adversarial_numeric_text(
        picks in proptest::collection::vec(
            (0usize..ADVERSARIAL_TEXTS.len(), 0i64..4, any::<bool>()), 3..48),
        shape in 0usize..6,
    ) {
        let build = || {
            let mut db = Database::new();
            db.execute("CREATE TABLE adv (id INTEGER PRIMARY KEY, g INTEGER, t TEXT)")
                .unwrap();
            let tbl = db.catalog_mut().get_mut("adv").unwrap();
            for (row_id, (ti, g, null)) in picks.iter().enumerate() {
                let t = if *null { Value::Null } else { Value::text(ADVERSARIAL_TEXTS[*ti]) };
                tbl.insert_row(vec![Value::Integer(row_id as i64), Value::Integer(*g), t])
                    .unwrap();
            }
            db
        };
        let sql = match shape {
            // Truthiness kernel: text is true iff it parses non-zero.
            0 => "SELECT id FROM adv WHERE t".to_string(),
            1 => "SELECT id FROM adv WHERE NOT t".to_string(),
            // SUM/AVG text kernel: non-numeric text counts as 0.0, and
            // inf/NaN must poison the accumulator identically.
            2 => "SELECT g, COUNT(*), SUM(t), AVG(t) FROM adv GROUP BY g ORDER BY g"
                .to_string(),
            3 => "SELECT COUNT(t), SUM(t), AVG(t), MIN(t), MAX(t) FROM adv".to_string(),
            // Comparison against a numeric literal (text→number affinity
            // in the compare kernel).
            4 => "SELECT id FROM adv WHERE t > 0 ORDER BY id".to_string(),
            _ => "SELECT t, COUNT(*) FROM adv GROUP BY t ORDER BY 2, 1".to_string(),
        };
        let run = |threads: usize, columnar: bool| -> QueryResult {
            let mut db = build();
            db.set_optimizer(OptimizerConfig {
                threads,
                parallel_threshold: 1,
                columnar,
                ..Default::default()
            });
            db.query(&sql)
                .unwrap_or_else(|e| panic!("columnar={columnar} {threads}-thread {sql}: {e}"))
        };
        let row_ref = run(1, false);
        for &threads in &[1usize, 8] {
            let columnar = run(threads, true);
            assert_equivalent(&sql, threads, &row_ref, &columnar);
        }
    }
}

/// Numeric-ish strings chosen to disagree under *almost*-equivalent
/// parsers: Rust's `f64` grammar accepts leading `+`, bare-dot forms,
/// case-insensitive `inf`/`infinity`/`NaN` and overflows `1e309` to
/// `inf`, while rejecting `1_000`, hex, lone exponents and whitespace-only
/// strings. A LUT that, say, trimmed differently or used `as_i64` first
/// would diverge on at least one of these.
const ADVERSARIAL_TEXTS: &[&str] = &[
    "+5", "-0.0", "0.0", ".5", "5.", "+.5", "-.5", " 42\t", "1e309", "-1e309", "1e-320",
    "9007199254740993", " inf ", "-inf", "Infinity", "NaN", "-nan", "1_000", "0x10", "", " ",
    "1e", "e1", "- 5", "++5", "5 .", "abc",
];

/// An expensive UDF whose `invoke_batch` always fails: the statement
/// prefetch answers nothing, so per-row invokes inside workers are the
/// only source of results. Counts every evaluated tuple.
#[derive(Default)]
struct BrokenBatchUdf {
    tuples: AtomicU64,
}

impl ScalarUdf for BrokenBatchUdf {
    fn name(&self) -> &str {
        "flaky_tag"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        self.tuples.fetch_add(1, Ordering::SeqCst);
        Ok(Value::text(format!(
            "v{}",
            args.iter().map(Value::render).collect::<Vec<_>>().join("-")
        )))
    }
    fn invoke_batch(&self, _rows: &[Vec<Value>]) -> swan_sqlengine::Result<Vec<Value>> {
        Err(swan_sqlengine::Error::Udf {
            name: "flaky_tag".into(),
            message: "simulated batch failure".into(),
        })
    }
    fn is_expensive(&self) -> bool {
        true
    }
}

/// When the vectorized prefetch fails, workers invoke per row against
/// their private stores — results a worker computes must merge back into
/// the statement store so a later operator (here: the projection reusing
/// the WHERE clause's call) is served without re-invoking. Rows stay
/// identical to serial, and the tuple count stays bounded by
/// threads × distinct tuples (not operators × threads × distinct).
#[test]
fn failed_invoke_batch_merges_worker_results_back() {
    const DISTINCT: u64 = 5;
    let build = |threads: usize| {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        {
            let t = db.catalog_mut().get_mut("t").unwrap();
            for i in 0..200i64 {
                t.insert_row(vec![Value::Integer(i), Value::Integer(i % DISTINCT as i64)])
                    .unwrap();
            }
        }
        let udf = Arc::new(BrokenBatchUdf::default());
        db.register_udf(udf.clone());
        db.set_optimizer(if threads == 1 {
            serial_config()
        } else {
            parallel_config(threads)
        });
        (db, udf)
    };
    let sql = "SELECT id, flaky_tag(n) FROM t WHERE flaky_tag(n) LIKE 'v%' ORDER BY id";

    let (serial_db, serial_udf) = build(1);
    let serial = serial_db.query(sql).unwrap();
    assert_eq!(serial.rows.len(), 200);
    assert_eq!(
        serial_udf.tuples.load(Ordering::SeqCst),
        DISTINCT,
        "serial: one invoke per distinct tuple, shared across WHERE and projection"
    );

    for &threads in THREAD_COUNTS {
        let (par_db, par_udf) = build(threads);
        let parallel = par_db.query(sql).unwrap();
        assert_eq!(parallel.rows, serial.rows, "rows diverge at {threads} threads");
        let tuples = par_udf.tuples.load(Ordering::SeqCst);
        assert!(
            tuples <= threads as u64 * DISTINCT,
            "at {threads} threads expected ≤ {} tuples (merge-back must serve the \
             projection from the WHERE phase's results), got {tuples}",
            threads as u64 * DISTINCT
        );
    }
}

/// Subquery-bearing predicates now run under `Plan::Parallel` against
/// the statement-shared `Send + Sync` subquery cache. The observable
/// contract: an uncorrelated subquery's rows are evaluated exactly once
/// per statement at *every* thread count — with per-worker caches the
/// counting UDF inside the subquery would fire up to `threads ×` as
/// often. Rows must stay byte-identical to serial throughout.
#[test]
fn uncorrelated_subquery_executes_once_at_every_thread_count() {
    let build = |threads: usize| {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        db.execute("CREATE TABLE lookup (k INTEGER PRIMARY KEY)").unwrap();
        {
            let t = db.catalog_mut().get_mut("t").unwrap();
            for i in 0..500i64 {
                t.insert_row(vec![Value::Integer(i), Value::Integer(i % 7)]).unwrap();
            }
            let l = db.catalog_mut().get_mut("lookup").unwrap();
            for k in 0..5i64 {
                l.insert_row(vec![Value::Integer(k)]).unwrap();
            }
        }
        let udf = Arc::new(TagUdf::default());
        db.register_udf(udf.clone());
        db.set_optimizer(if threads == 1 {
            serial_config()
        } else {
            parallel_config(threads)
        });
        (db, udf)
    };
    // slow_tag runs once per lookup row iff the subquery runs once.
    let sql = "SELECT id FROM t \
               WHERE n IN (SELECT k FROM lookup WHERE slow_tag('q', k) LIKE 'vq%') \
               ORDER BY id";

    let (serial_db, serial_udf) = build(1);
    let serial = serial_db.query(sql).unwrap();
    assert!(!serial.rows.is_empty());
    assert_eq!(serial_udf.tuples.load(Ordering::SeqCst), 5, "one call per lookup row");

    for &threads in THREAD_COUNTS {
        let (par_db, par_udf) = build(threads);
        let parallel = par_db.query(sql).unwrap();
        assert_eq!(parallel.rows, serial.rows, "rows diverge at {threads} threads");
        assert_eq!(
            par_udf.tuples.load(Ordering::SeqCst),
            5,
            "shared subquery cache: the subquery must execute exactly once \
             at {threads} threads"
        );
    }
}

/// Correlated subqueries in a parallel filter: per-row re-execution on
/// worker threads agrees with serial row for row.
#[test]
fn correlated_subquery_filter_matches_serial() {
    let build = |threads: usize| {
        let mut db = Database::new();
        db.execute("CREATE TABLE o (id INTEGER PRIMARY KEY, grp INTEGER)").unwrap();
        db.execute("CREATE TABLE i (id INTEGER PRIMARY KEY, grp INTEGER)").unwrap();
        {
            let o = db.catalog_mut().get_mut("o").unwrap();
            for k in 0..300i64 {
                o.insert_row(vec![Value::Integer(k), Value::Integer(k % 11)]).unwrap();
            }
            let i = db.catalog_mut().get_mut("i").unwrap();
            for k in 0..40i64 {
                i.insert_row(vec![Value::Integer(k), Value::Integer(k % 5)]).unwrap();
            }
        }
        db.set_optimizer(if threads == 1 {
            serial_config()
        } else {
            parallel_config(threads)
        });
        db
    };
    let sql = "SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.grp = o.grp) ORDER BY id";
    let serial = build(1).query(sql).unwrap();
    assert!(!serial.rows.is_empty() && serial.rows.len() < 300, "filter must discriminate");
    for &threads in THREAD_COUNTS {
        let parallel = build(threads).query(sql).unwrap();
        assert_eq!(parallel.rows, serial.rows, "rows diverge at {threads} threads");
    }
}

/// ORDER BY ties at the LIMIT boundary: the kept prefix must be exactly
/// the stable-sort prefix (first-come-first-kept) at every thread count —
/// the documented tie-break contract.
#[test]
fn topk_tie_break_is_stable_at_every_thread_count() {
    let build = |threads: usize| {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        {
            let t = db.catalog_mut().get_mut("t").unwrap();
            for i in 0..6000i64 {
                // Heavy ties: only 3 distinct sort keys.
                t.insert_row(vec![Value::Integer(i), Value::Integer(i % 3)]).unwrap();
            }
        }
        db.set_optimizer(if threads == 1 {
            serial_config()
        } else {
            parallel_config(threads)
        });
        db
    };
    // Stable expectation: among n == 0 ties, the lowest ids win, in order.
    let expect: Vec<i64> = (0..5).map(|i| i * 3).collect();
    for threads in [1usize, 2, 8] {
        let db = build(threads);
        let r = db.query("SELECT id FROM t ORDER BY n LIMIT 5").unwrap();
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(got, expect, "tie-break diverged at {threads} thread(s)");
        // And LIMIT k is a prefix of the full ordered result.
        let full = db.query("SELECT id FROM t ORDER BY n").unwrap();
        let prefix: Vec<i64> =
            full.rows[..5].iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(got, prefix, "LIMIT must be a stable-sort prefix at {threads} thread(s)");
    }
}

/// `SWAN_THREADS=1` (== `threads: 1`) reproduces the serial engine
/// exactly: no `Parallel` node is ever inserted.
#[test]
fn single_thread_config_never_parallelizes() {
    use swan_sqlengine::optimizer::optimize;
    use swan_sqlengine::plan::{plan_from, Plan};
    use swan_sqlengine::UdfRegistry;

    let mut db = Database::new();
    db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
    {
        let t = db.catalog_mut().get_mut("big").unwrap();
        for i in 0..5000i64 {
            t.insert_row(vec![Value::Integer(i), Value::Integer(i % 10)]).unwrap();
        }
    }
    let stmt = swan_sqlengine::parser::parse_statement("SELECT * FROM big WHERE n > 3").unwrap();
    let swan_sqlengine::ast::Statement::Select(s) = stmt else { panic!() };
    let swan_sqlengine::ast::SelectBody::Simple(core) = s.body else { panic!() };
    let plan = plan_from(core.from.as_ref(), core.filter.as_ref()).unwrap();

    let serial = optimize(
        plan.clone(),
        &UdfRegistry::new(),
        &OptimizerConfig { threads: 1, parallel_threshold: 1, ..Default::default() },
        db.catalog(),
        None,
        &[],
    )
    .unwrap();
    assert!(
        !matches!(serial, Plan::Parallel { .. }),
        "threads == 1 must never grow a Parallel node"
    );

    let parallel = optimize(
        plan,
        &UdfRegistry::new(),
        &OptimizerConfig { threads: 8, ..Default::default() },
        db.catalog(),
        None,
        &[],
    )
    .unwrap();
    let Plan::Parallel { partitions, .. } = parallel else {
        panic!("8-thread config over a 5000-row table must parallelize")
    };
    assert_eq!(partitions, 8);
}

/// Small tables stay serial under the default threshold even with many
/// threads configured — the row-count statistic drives the decision.
#[test]
fn small_tables_stay_serial_under_default_threshold() {
    use swan_sqlengine::optimizer::optimize;
    use swan_sqlengine::plan::{plan_from, Plan};
    use swan_sqlengine::UdfRegistry;

    let mut db = Database::new();
    db.execute("CREATE TABLE small (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO small VALUES (1), (2), (3)").unwrap();
    let stmt = swan_sqlengine::parser::parse_statement("SELECT * FROM small").unwrap();
    let swan_sqlengine::ast::Statement::Select(s) = stmt else { panic!() };
    let swan_sqlengine::ast::SelectBody::Simple(core) = s.body else { panic!() };
    let plan = plan_from(core.from.as_ref(), core.filter.as_ref()).unwrap();
    let optimized = optimize(
        plan,
        &UdfRegistry::new(),
        &OptimizerConfig { threads: 8, ..Default::default() },
        db.catalog(),
        None,
        &[],
    )
    .unwrap();
    assert!(!matches!(optimized, Plan::Parallel { .. }));
}

// ---- keyed correlated subqueries ≡ per-row execution ------------------

/// Outer table `o` and inner table `i` for the keyed-subquery axis. Keys
/// carry NULLs on both sides, `i.r` holds `Real` keys that equal integer
/// outer keys (`Integer(1) = Real(1.0)`) or miss them by a half, and
/// `i.v` holds NULLs so `NOT IN` and `SUM` see unknowns.
fn keyed_db(outer: &[(i64, i64)], inner: &[(i64, i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE o (id INTEGER PRIMARY KEY, k INTEGER, t TEXT, k2 INTEGER)")
        .unwrap();
    db.execute(
        "CREATE TABLE i (id INTEGER PRIMARY KEY, k INTEGER, r REAL, t TEXT, k2 INTEGER, v INTEGER)",
    )
    .unwrap();
    let key = |raw: i64| match raw.rem_euclid(9) {
        0 => Value::Null,
        n => Value::Integer(n % 6),
    };
    let text = |raw: i64| match raw.rem_euclid(5) {
        0 => Value::Null,
        n => Value::text(["", "a", "b", "ab"][n as usize - 1]),
    };
    {
        let o = db.catalog_mut().get_mut("o").unwrap();
        for (id, &(a, b)) in outer.iter().enumerate() {
            let k2 = key((a / 9).wrapping_add(b));
            o.insert_row(vec![Value::Integer(id as i64), key(a), text(b), k2]).unwrap();
        }
        let i = db.catalog_mut().get_mut("i").unwrap();
        for (id, &(a, b, c)) in inner.iter().enumerate() {
            let r = match key(b) {
                Value::Integer(n) if c % 2 == 0 => Value::Real(n as f64),
                Value::Integer(n) => Value::Real(n as f64 + 0.5),
                other => other,
            };
            let v = match c.rem_euclid(7) {
                0 => Value::Null,
                n => Value::Integer(n % 4),
            };
            i.insert_row(vec![Value::Integer(id as i64), key(a), r, text(b), key(c), v])
                .unwrap();
        }
    }
    db
}

/// Keyed-path query templates. Each `{{inner = outer}}` marks a
/// correlation conjunct: the keyed form writes it as `=`, the reference
/// form as `NOT (inner <> outer)` — the same predicate in three-valued
/// logic, which the keyed rule does not match, so the reference always
/// runs per row.
const KEYED_SHAPES: &[&str] = &[
    // COUNT over NULL keys on both sides; empty partitions count 0.
    "SELECT o.id, (SELECT COUNT(*) FROM i WHERE {{i.k = o.k}}) FROM o ORDER BY o.id",
    // Integer outer keys against Real inner keys; SUM of an empty
    // partition is NULL.
    "SELECT o.id, (SELECT SUM(i.v) FROM i WHERE {{i.r = o.k}}) FROM o ORDER BY o.id",
    // Text keys under EXISTS and NOT EXISTS, with a local conjunct.
    "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE {{i.t = o.t}} AND i.v > 0) \
     ORDER BY o.id",
    "SELECT o.id FROM o WHERE NOT EXISTS (SELECT 1 FROM i WHERE {{i.t = o.t}}) ORDER BY o.id",
    // NOT IN / IN over partitions holding NULLs: unknown rows drop out.
    "SELECT o.id FROM o WHERE o.k2 NOT IN (SELECT i.v FROM i WHERE {{i.k = o.k}}) ORDER BY o.id",
    "SELECT o.id, o.k2 IN (SELECT i.v FROM i WHERE {{i.k = o.k}}) FROM o ORDER BY o.id",
    // The formula_1 q22 shape: a correlated COUNT compared in WHERE.
    "SELECT o.t FROM o WHERE (SELECT COUNT(*) FROM i WHERE {{i.k = o.id}} AND i.v = 1) > 1",
    // Keyed subqueries in WHERE and in the projection of one statement:
    // each keeps its own cache cell.
    "SELECT o.id, (SELECT COUNT(*) FROM i WHERE {{i.k = o.k}}) FROM o \
     WHERE (SELECT COUNT(*) FROM i WHERE {{i.k = o.k}} AND i.v > 2) = 0 ORDER BY o.id",
    // Empty partitions under COUNT and SUM after a local filter.
    "SELECT o.id, (SELECT COUNT(*) FROM i WHERE {{i.k = o.k}} AND i.v > 2), \
     (SELECT SUM(i.v) FROM i WHERE {{i.k = o.k}} AND i.v > 2) FROM o ORDER BY o.id",
    // GROUP BY + HAVING inside the subquery.
    "SELECT o.id FROM o WHERE EXISTS (SELECT i.v FROM i WHERE {{i.k = o.k}} \
     GROUP BY i.v HAVING COUNT(*) > 1) ORDER BY o.id",
    "SELECT o.id, (SELECT i.v FROM i WHERE {{i.k = o.k}} GROUP BY i.v \
     ORDER BY COUNT(*) DESC, i.v LIMIT 1) FROM o ORDER BY o.id",
    // ORDER BY … LIMIT/OFFSET with ties: the stable-sort prefix.
    "SELECT o.id, (SELECT i.id FROM i WHERE {{i.k = o.k}} ORDER BY i.v DESC LIMIT 1 OFFSET 1) \
     FROM o ORDER BY o.id",
    // Unordered first row and GROUP_CONCAT: partition order must be the
    // inner scan order.
    "SELECT o.id, (SELECT i.id FROM i WHERE {{i.t = o.t}}), \
     (SELECT GROUP_CONCAT(i.id) FROM i WHERE {{i.k = o.k}}) FROM o ORDER BY o.id",
    // Two correlation columns, one written outer-side first.
    "SELECT o.id, (SELECT COUNT(*) FROM i WHERE {{i.k = o.k}} AND {{o.k2 = i.k2}}) \
     FROM o ORDER BY o.id",
    // An outer key expression, DISTINCT, and an outer column in the
    // subquery's projection.
    "SELECT o.id, (SELECT COUNT(DISTINCT i.v) FROM i WHERE {{i.k = o.k + 1}}), \
     (SELECT MAX(i.v) + o.id FROM i WHERE {{i.k2 = o.k2}}) FROM o ORDER BY o.id",
    // A join inside the subquery: its rows must come out in the per-row
    // order.
    "SELECT o.id, (SELECT GROUP_CONCAT(i.id) FROM i JOIN o o2 ON i.k = o2.id \
     WHERE {{i.k2 = o.k}}) FROM o ORDER BY o.id",
    // A DISTINCT outer projection over keyed scalars.
    "SELECT DISTINCT (SELECT COUNT(*) FROM i WHERE {{i.t = o.t}}) FROM o",
];

/// Render a template in its keyed (`=`) or per-row reference form.
fn keyed_form(template: &str, keyed: bool) -> String {
    let mut out = String::new();
    let mut rest = template;
    while let Some(start) = rest.find("{{") {
        let end = rest[start..].find("}}").expect("closed marker") + start;
        let (inner, outer) = rest[start + 2..end].split_once(" = ").expect("an equality");
        out.push_str(&rest[..start]);
        if keyed {
            out.push_str(&format!("{inner} = {outer}"));
        } else {
            out.push_str(&format!("NOT ({inner} <> {outer})"));
        }
        rest = &rest[end + 2..];
    }
    out.push_str(rest);
    out
}

proptest! {
    /// Keyed ≡ per-row: every keyed shape returns the reference's rows
    /// byte for byte at 1 and 8 threads, the keyed form never
    /// re-executes per row, and the reference form never builds.
    #[test]
    fn keyed_subqueries_match_per_row_execution(
        outer in proptest::collection::vec((any::<i64>(), any::<i64>()), 0..24),
        inner in proptest::collection::vec((any::<i64>(), any::<i64>(), any::<i64>()), 0..40),
    ) {
        let run = |sql: &str, threads: usize| {
            let mut db = keyed_db(&outer, &inner);
            db.set_optimizer(if threads == 1 {
                serial_config()
            } else {
                parallel_config(threads)
            });
            let result = db.query(sql).unwrap_or_else(|e| panic!("{threads}-thread {sql}: {e}"));
            (result, db.subquery_stats())
        };
        let mut builds = 0;
        for template in KEYED_SHAPES {
            let reference_sql = keyed_form(template, false);
            let keyed_sql = keyed_form(template, true);
            let (reference, ref_stats) = run(&reference_sql, 1);
            prop_assert_eq!(ref_stats.keyed_builds, 0, "{}", reference_sql);
            for threads in [1, 8] {
                let (keyed, stats) = run(&keyed_sql, threads);
                assert_equivalent(&keyed_sql, threads, &reference, &keyed);
                prop_assert_eq!(stats.correlated_reruns, 0, "{} at {} threads", keyed_sql, threads);
                builds += stats.keyed_builds;
            }
        }
        // An empty inner table resolves without the outer row (it is
        // then uncorrelated); otherwise the keyed path must serve.
        if !outer.is_empty() && !inner.is_empty() {
            prop_assert!(builds > 0);
        }
    }
}

/// Shapes outside the keyed rule stay on the per-row path: no build,
/// one re-execution per outer row, rows unchanged.
#[test]
fn declined_shapes_stay_per_row() {
    let outer: Vec<(i64, i64)> = (0..30).map(|n| (n * 7 + 1, n)).collect();
    let inner: Vec<(i64, i64, i64)> = (0..50).map(|n| (n * 5 + 2, n * 3, n)).collect();
    let declined = [
        // Non-equality correlation.
        "SELECT o.id, (SELECT COUNT(*) FROM i WHERE i.k < o.k) FROM o ORDER BY o.id",
        // An outer reference in JOIN ON.
        "SELECT o.id, (SELECT COUNT(*) FROM i JOIN o o2 ON o2.id = i.k AND o2.k = o.k) \
         FROM o ORDER BY o.id",
        // A derived table in FROM.
        "SELECT o.id, (SELECT COUNT(*) FROM (SELECT 1) z, i WHERE i.k = o.k) FROM o ORDER BY o.id",
        // A compound body.
        "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.k = o.k \
         UNION SELECT 1 FROM i WHERE i.k2 = o.k2) ORDER BY o.id",
        // An outer reference mixed into a non-key conjunct.
        "SELECT o.id, (SELECT COUNT(*) FROM i WHERE i.k = o.k AND (i.v = 1 OR o.k2 = 2)) \
         FROM o ORDER BY o.id",
    ];
    for sql in declined {
        let mut db = keyed_db(&outer, &inner);
        db.set_optimizer(serial_config());
        db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let stats = db.subquery_stats();
        assert_eq!(stats.keyed_builds, 0, "{sql}");
        assert_eq!(stats.correlated_reruns, outer.len() as u64, "{sql}");
    }
}

/// A subquery holding an expensive UDF stays on the per-row path: the
/// keyed rule declines it, so serial execution pays exactly the
/// per-row model calls, and no thread count builds it keyed.
#[test]
fn expensive_udf_subquery_stays_per_row() {
    let outer: Vec<(i64, i64)> = (0..30).map(|n| (n * 7 + 1, n)).collect();
    let inner: Vec<(i64, i64, i64)> = (0..50).map(|n| (n * 5 + 2, n * 3, n)).collect();
    let template = "SELECT o.id, (SELECT COUNT(*) FROM i WHERE {{i.k = o.k}} \
                    AND slow_tag(i.v) LIKE 'v%') FROM o ORDER BY o.id";
    let run = |sql: &str, threads: usize| {
        let mut db = keyed_db(&outer, &inner);
        let udf = Arc::new(TagUdf::default());
        db.register_udf(udf.clone());
        db.set_optimizer(if threads == 1 { serial_config() } else { parallel_config(threads) });
        let result = db.query(sql).unwrap();
        (result, db.subquery_stats(), udf.tuples.load(Ordering::SeqCst))
    };
    let keyed_sql = keyed_form(template, true);
    let (reference, _, reference_calls) = run(&keyed_form(template, false), 1);
    assert!(reference_calls > 0);
    for threads in [1, 8] {
        let (rows, stats, calls) = run(&keyed_sql, threads);
        assert_equivalent(&keyed_sql, threads, &reference, &rows);
        assert_eq!(stats.keyed_builds, 0, "an expensive UDF keeps the per-row path");
        assert_eq!(stats.correlated_reruns, outer.len() as u64);
        // Morsel workers keep private UDF result stores, so only the
        // serial count is exact.
        if threads == 1 {
            assert_eq!(calls, reference_calls, "model calls unchanged");
        }
    }
}

/// The formula_1 q22 gold shape takes the keyed path: one build per
/// statement, no per-row re-execution, at 1 and 8 threads.
#[test]
fn q22_shape_builds_once_per_statement() {
    let sql = "SELECT T1.code FROM drivers T1 WHERE \
               (SELECT COUNT(*) FROM results r WHERE r.driver_id = T1.id AND r.position = 1) > 3";
    for threads in [1, 8] {
        let mut db = Database::new();
        db.execute("CREATE TABLE drivers (id INTEGER PRIMARY KEY, code TEXT)").unwrap();
        db.execute(
            "CREATE TABLE results (id INTEGER PRIMARY KEY, driver_id INTEGER, position INTEGER)",
        )
        .unwrap();
        {
            let d = db.catalog_mut().get_mut("drivers").unwrap();
            for n in 0..40i64 {
                d.insert_row(vec![Value::Integer(n), Value::text(format!("D{n}"))]).unwrap();
            }
            let r = db.catalog_mut().get_mut("results").unwrap();
            for n in 0..2000i64 {
                r.insert_row(vec![
                    Value::Integer(n),
                    Value::Integer(n % 40),
                    Value::Integer((n / 40) % (1 + n % 5)),
                ])
                .unwrap();
            }
        }
        db.set_optimizer(if threads == 1 { serial_config() } else { parallel_config(threads) });
        let rows = db.query(sql).unwrap();
        assert!(!rows.rows.is_empty() && rows.rows.len() < 40, "the filter must discriminate");
        let stats = db.subquery_stats();
        assert_eq!(stats.keyed_builds, 1, "one keyed build at {threads} threads");
        assert_eq!(stats.correlated_reruns, 0, "no per-row re-execution at {threads} threads");
        db.query(sql).unwrap();
        assert_eq!(db.subquery_stats().keyed_builds, 2, "one build per statement");
    }
}
