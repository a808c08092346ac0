//! The public database facade.
//!
//! A [`Database`] owns a catalog and a UDF registry and executes SQL text.
//! This is the substrate both hybrid-query solutions build on: HQDL
//! materializes LLM-generated tables into it, and hybrid-query UDFs
//! register LLM functions on it.
//!
//! # Transactions and durability
//!
//! A `Database` is one session, so it holds at most one active
//! transaction: `BEGIN` pins the current catalog as the rollback point,
//! subsequent statements mutate the working catalog (reads see the
//! session's own uncommitted writes), `COMMIT` publishes — appending the
//! transaction's per-table deltas to the WAL when the database was opened
//! with [`Database::open`] — and `ROLLBACK` restores the pinned catalog.
//! Outside a transaction every statement auto-commits (and auto-logs) by
//! itself. WAL-backed and in-transaction statements are statement-atomic:
//! a failed statement restores the pre-statement catalog instead of
//! leaving partial effects.
//!
//! Every write statement additionally reports *which rows* it touched
//! (the primary keys of inserted/updated/deleted rows, see
//! [`crate::txn::StmtWrites`]): the per-transaction write sets drive the
//! compact row-level WAL encodings here and the row-level
//! first-committer-wins conflict detection on a
//! [`SharedDb`](crate::shared::SharedDb).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use swan_pool::{lockrank, CancelToken, ClockHandle, RealClock};

use crate::ast::{InsertSource, Statement};
use crate::error::{Error, Result};
use crate::eval::{eval, RowCtx};
use crate::exec::{run_select, ExecCtx, Relation};
use crate::functions::{ScalarUdf, UdfRegistry};
use crate::optimizer::OptimizerConfig;
use crate::parser::{parse_script, parse_statement};
use crate::plan::RelSchema;
use crate::storage::{Catalog, Column, Table};
use crate::subquery::{SubqueryCounters, SubqueryStats};
use crate::txn::{
    catalog_deltas, commit_records, StmtWrites, TableDelta, Txn, TxnManager, WriteSet,
};
use crate::value::{Row, Value};
use crate::wal::{DurabilityConfig, Wal};

/// Result of executing one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names (empty for DDL/DML).
    pub columns: Vec<String>,
    /// Result rows (empty for DDL/DML), shared with the engine: cloning a
    /// result (or a row) is O(rows), not O(cells).
    pub rows: Vec<Row>,
    /// Rows inserted / updated / deleted for DML.
    pub rows_affected: usize,
}

impl QueryResult {
    fn from_relation(rel: Relation) -> Self {
        QueryResult {
            columns: rel.column_names(),
            rows: rel.rows,
            rows_affected: 0,
        }
    }

    /// The single scalar of a one-row, one-column result.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// An embedded SQL database: in-memory by default, WAL-durable when
/// opened with [`Database::open`].
pub struct Database {
    catalog: Catalog,
    udfs: UdfRegistry,
    optimizer: OptimizerConfig,
    /// Write-ahead log; `None` for a purely in-memory database. Clones
    /// share the log (appends serialize on the mutex).
    wal: Option<Arc<Mutex<Wal>>>,
    /// Transaction-id allocator, shared by clones and by any
    /// [`SharedDb`](crate::shared::SharedDb) built from this database.
    txns: Arc<TxnManager>,
    /// The session's active transaction, if a `BEGIN` is open. The
    /// database's own catalog is the transaction's working state; the
    /// `Txn` pins the rollback snapshot.
    txn: Option<Txn>,
    /// Per-statement deadline; `None` disables it. Each statement arms a
    /// fresh [`CancelToken`] on entry; the executor checks it at plan-node
    /// and morsel boundaries and fails with [`Error::Deadline`].
    statement_timeout: Option<Duration>,
    /// Clock the deadlines are armed against — [`RealClock`] normally, a
    /// [`SimClock`](swan_pool::SimClock) in deterministic tests.
    clock: ClockHandle,
    /// The rows the most recent write statement touched, reported by the
    /// DML executors and consumed (via [`Database::take_stmt_writes`]) by
    /// whoever turns the statement into a commit: the transaction's write
    /// set, the auto-commit WAL encoder, or a `SharedDb` session.
    stmt_writes: StmtWrites,
    /// Correlated-subquery path counters of the statements run here.
    subquery_counters: Arc<SubqueryCounters>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            catalog: Catalog::default(),
            udfs: UdfRegistry::new(),
            optimizer: OptimizerConfig::default(),
            wal: None,
            txns: Arc::new(TxnManager::default()),
            txn: None,
            statement_timeout: None,
            clock: RealClock::handle(),
            stmt_writes: StmtWrites::Whole,
            subquery_counters: Arc::default(),
        }
    }
}

impl Database {
    /// A fresh, empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Open (or create) a WAL-durable database at `path`. Replays the
    /// longest intact prefix of the log — truncating a torn tail from a
    /// crash mid-append — so the recovered catalog is always exactly the
    /// state as of the last durable commit.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Database::open_with(path, DurabilityConfig::default())
    }

    /// [`Database::open`] with explicit durability tuning (checkpoint
    /// threshold, fsync policy, group commit).
    pub fn open_with(path: impl AsRef<Path>, config: DurabilityConfig) -> Result<Database> {
        Database::open_on(Arc::new(crate::vfs::RealFs), path, config)
    }

    /// [`Database::open_with`] on an explicit [`Vfs`](crate::vfs::Vfs) —
    /// the seam crash-simulation tests thread a fault-injecting
    /// [`SimFs`](crate::vfs::SimFs) through; all WAL and checkpoint I/O
    /// goes through `vfs`.
    pub fn open_on(
        vfs: Arc<dyn crate::vfs::Vfs>,
        path: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<Database> {
        let recovered = Wal::open_on(vfs, path, config)?;
        Ok(Database {
            catalog: recovered.catalog,
            wal: Some(Arc::new(Mutex::with_rank("wal", lockrank::WAL, recovered.wal))),
            txns: Arc::new(TxnManager::new(recovered.max_txn + 1)),
            ..Default::default()
        })
    }

    /// Assemble a database from parts. This is how a
    /// [`SharedDb`](crate::shared::SharedDb) session materializes a
    /// consistent snapshot: the catalog shares the `Arc<Table>` storage,
    /// so the construction is O(tables), not O(rows).
    pub fn from_parts(catalog: Catalog, udfs: UdfRegistry, optimizer: OptimizerConfig) -> Self {
        Database { catalog, udfs, optimizer, ..Default::default() }
    }

    /// The WAL handle, if this database is durable (shared with
    /// [`SharedDb`](crate::shared::SharedDb) on promotion).
    pub(crate) fn wal_handle(&self) -> Option<Arc<Mutex<Wal>>> {
        self.wal.clone()
    }

    /// The transaction-id allocator (shared on promotion to `SharedDb`).
    pub(crate) fn txn_manager(&self) -> Arc<TxnManager> {
        self.txns.clone()
    }

    /// True while a `BEGIN` is open on this session.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Register a scalar UDF (e.g. an LLM function).
    pub fn register_udf(&mut self, udf: Arc<dyn ScalarUdf>) {
        self.udfs.register(udf);
    }

    /// Toggle optimizer rules (used by the ablation benchmarks).
    pub fn set_optimizer(&mut self, config: OptimizerConfig) {
        self.optimizer = config;
    }

    /// Set (or clear) the per-statement deadline. Every subsequent
    /// statement arms a fresh cancel token with this timeout; a statement
    /// that runs past it fails with [`Error::Deadline`] at the next
    /// cooperative checkpoint, leaving no partial effects (statement
    /// atomicity rolls write statements back like any other error).
    pub fn set_statement_timeout(&mut self, timeout: Option<Duration>) {
        self.statement_timeout = timeout;
    }

    pub fn statement_timeout(&self) -> Option<Duration> {
        self.statement_timeout
    }

    /// Swap the clock statement deadlines are armed against. Tests inject
    /// a [`SimClock`](swan_pool::SimClock) for deterministic expiry.
    pub fn set_clock(&mut self, clock: ClockHandle) {
        self.clock = clock;
    }

    pub fn clock(&self) -> ClockHandle {
        self.clock.clone()
    }

    /// The cancel token for one statement: an already-installed caller
    /// token wins (a [`Session`](crate::shared::Session) or test that
    /// scoped the whole call keeps its deadline authoritative); otherwise
    /// arm a fresh token from `statement_timeout`.
    fn statement_token(&self) -> CancelToken {
        if let Some(outer) = swan_pool::cancel::current() {
            return outer;
        }
        match self.statement_timeout {
            Some(d) => CancelToken::with_timeout(self.clock.clone(), d),
            None => CancelToken::unbounded(),
        }
    }

    pub fn optimizer(&self) -> OptimizerConfig {
        self.optimizer
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (bulk loading bypasses SQL).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Decompose into the catalog. A [`Session`](crate::shared::Session)
    /// transaction hands its working catalog to a throwaway `Database`
    /// for each statement and takes it back here — ownership round-trips,
    /// so the working tables keep unique `Arc`s and batch DML stays
    /// in-place instead of copy-on-write cloning per statement.
    pub(crate) fn into_catalog(self) -> Catalog {
        self.catalog
    }

    /// Take the row write set the last write statement reported,
    /// resetting to the conservative table-granular default.
    pub(crate) fn take_stmt_writes(&mut self) -> StmtWrites {
        std::mem::replace(&mut self.stmt_writes, StmtWrites::Whole)
    }

    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// Force a checkpoint now (durable databases only; no-op in memory).
    /// It flushes only the pages dirtied since the last checkpoint —
    /// O(dirty), not O(database).
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = &self.wal else { return Ok(()) };
        wal.lock().checkpoint(&self.catalog)
    }

    /// Page-store counters: durable epoch, allocated pages, buffer-pool
    /// hit/miss/eviction stats. `None` only for an in-memory database.
    pub fn pager_stats(&self) -> Option<crate::pager::PagerStats> {
        self.wal.as_ref().map(|w| w.lock().pager_stats())
    }

    /// Execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute a semicolon-separated script; returns the last result.
    ///
    /// Outside an explicit transaction each statement commits (and, on a
    /// durable database, logs) by itself, exactly like [`execute`]
    /// (Database::execute). A `BEGIN … COMMIT` span inside the script is
    /// atomic: if any statement inside it fails, the whole transaction is
    /// rolled back before the error is returned. A transaction that was
    /// already open *before* the script keeps SQLite semantics instead —
    /// the failing statement has no effect but the transaction stays open
    /// for the session to commit or roll back.
    pub fn execute_script(&mut self, sql: &str) -> Result<QueryResult> {
        let stmts = parse_script(sql)?;
        let mut last = QueryResult::default();
        let mut script_txn = false;
        for stmt in &stmts {
            match self.execute_statement(stmt) {
                Ok(r) => last = r,
                Err(e) => {
                    if script_txn && self.txn.is_some() {
                        self.rollback_active();
                    }
                    return Err(e);
                }
            }
            match stmt {
                Statement::Begin => script_txn = true,
                Statement::Commit | Statement::Rollback => script_txn = false,
                _ => {}
            }
        }
        Ok(last)
    }

    /// Discard the active transaction, restoring its pinned snapshot.
    fn rollback_active(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.catalog = txn.snapshot;
        }
    }

    /// How this handle's statements ran their correlated subqueries:
    /// keyed builds versus per-row re-executions (see [`SubqueryStats`]).
    pub fn subquery_stats(&self) -> SubqueryStats {
        self.subquery_counters.snapshot()
    }

    /// A statement execution context over this database.
    fn exec_ctx(&self) -> ExecCtx<'_> {
        ExecCtx::new(&self.catalog, &self.udfs)
            .with_optimizer(self.optimizer)
            .with_subquery_counters(self.subquery_counters.clone())
    }

    /// Execute a read-only query without `&mut self`.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(sql)?;
        match &stmt {
            Statement::Select(s) => {
                let token = self.statement_token();
                swan_pool::cancel::with_current(&token, || {
                    let ctx = self.exec_ctx();
                    Ok(QueryResult::from_relation(run_select(s, &ctx, None)?))
                })
            }
            _ => Err(Error::Semantic("query() only accepts SELECT statements".into())),
        }
    }

    /// Arm the statement's deadline token, install it as the thread's
    /// current token (so every [`ExecCtx`] built below — including the
    /// throwaway contexts of DML source evaluation — and every model call
    /// observes it), and run the statement.
    pub(crate) fn execute_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        let token = self.statement_token();
        swan_pool::cancel::with_current(&token, || self.execute_statement_inner(stmt))
    }

    fn execute_statement_inner(&mut self, stmt: &Statement) -> Result<QueryResult> {
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(Error::Txn("a transaction is already active".into()));
                }
                // Pin the rollback point; the catalog itself is the
                // transaction's working state from here on.
                self.txn = Some(self.txns.begin(self.catalog.clone()));
                return Ok(QueryResult::default());
            }
            Statement::Commit => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| Error::Txn("COMMIT without an active transaction".into()))?;
                let deltas = catalog_deltas(txn.written(), &txn.snapshot, &self.catalog);
                if let Err(e) =
                    self.log_commit(txn.id(), &txn.snapshot, &deltas, txn.write_sets())
                {
                    // A commit that could not reach the log must not
                    // stay visible in memory: roll back instead.
                    self.catalog = txn.snapshot;
                    return Err(e);
                }
                return Ok(QueryResult::default());
            }
            Statement::Rollback => {
                if self.txn.is_none() {
                    return Err(Error::Txn("ROLLBACK without an active transaction".into()));
                }
                self.rollback_active();
                return Ok(QueryResult::default());
            }
            _ => {}
        }

        let Some(target) = stmt.write_target().map(str::to_string) else {
            return self.apply_statement(stmt); // read-only
        };

        if self.txn.is_some() {
            // Inside a transaction the catalog *is* the working state and
            // `apply_statement` is statement-atomic by construction (a
            // failing statement rolls its own partial effects back), so no
            // per-statement catalog backup is needed — which keeps the
            // working table's `Arc` unique and batch INSERTs O(1) per row
            // instead of copy-on-write cloning the table every statement.
            let r = self.apply_statement(stmt)?;
            let writes = self.take_stmt_writes();
            if let Some(txn) = self.txn.as_mut() {
                txn.record_write(&target, writes);
            }
            Ok(r)
        } else if self.wal.is_some() {
            // Durable auto-commit: run the statement, then log it as a
            // single-statement transaction. Failure (of the statement or
            // of the log append) restores the pre-statement catalog.
            let base = self.catalog.clone();
            match self.apply_statement(stmt) {
                Ok(r) => {
                    let writes = self.take_stmt_writes();
                    let key = target.to_ascii_lowercase();
                    let deltas =
                        catalog_deltas(std::slice::from_ref(&key), &base, &self.catalog);
                    let mut write_sets = HashMap::with_capacity(1);
                    write_sets.insert(key, WriteSet::from_stmt(writes));
                    if let Err(e) =
                        self.log_commit(self.txns.fresh_id(), &base, &deltas, &write_sets)
                    {
                        self.catalog = base;
                        return Err(e);
                    }
                    Ok(r)
                }
                Err(e) => {
                    self.catalog = base;
                    Err(e)
                }
            }
        } else {
            self.apply_statement(stmt)
        }
    }

    /// Append one committed transaction's records to the WAL (when
    /// durable), then compact the log if it outgrew its budget. No-op for
    /// empty delta sets and in-memory databases.
    fn log_commit(
        &self,
        txn_id: u64,
        base: &Catalog,
        deltas: &[(String, TableDelta)],
        writes: &HashMap<String, WriteSet>,
    ) -> Result<()> {
        if deltas.is_empty() {
            return Ok(());
        }
        let Some(wal) = &self.wal else { return Ok(()) };
        let mut wal = wal.lock();
        wal.append(&commit_records(txn_id, base, deltas, writes))?;
        if wal.wants_checkpoint() {
            // Past the commit point: the append fsynced, so the
            // transaction IS durably committed — a failed compaction must
            // not be reported as a failed commit (the caller would roll
            // back in memory and a retry would double-apply). The log
            // just stays long; the next commit retries the checkpoint,
            // and a handle left unusable poisons itself and surfaces on
            // the next append.
            let _ = wal.checkpoint(&self.catalog);
        }
        Ok(())
    }

    /// The raw single-statement executor: no transaction routing, no
    /// durability — exactly the statement's effect on this catalog.
    fn apply_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        // Conservative default: a write that does not report per-row keys
        // (DDL, tables without a primary key) counts as touching the
        // whole table. The DML executors overwrite this on success.
        self.stmt_writes = StmtWrites::Whole;
        match stmt {
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                // Routed by execute_statement before it gets here; a typed
                // error beats aborting a shared process on a routing bug.
                Err(Error::Internal(
                    "transaction control reached the statement executor".into(),
                ))
            }
            Statement::Select(s) => {
                let ctx = self.exec_ctx();
                Ok(QueryResult::from_relation(run_select(s, &ctx, None)?))
            }
            Statement::CreateTable(ct) => {
                if self.catalog.contains(&ct.name) {
                    if ct.if_not_exists {
                        return Ok(QueryResult::default());
                    }
                    return Err(Error::AlreadyExists(ct.name.clone()));
                }
                let mut pk: Vec<String> = ct.primary_key.clone();
                let columns: Vec<Column> = ct
                    .columns
                    .iter()
                    .map(|c| {
                        if c.primary_key && !pk.iter().any(|p| p.eq_ignore_ascii_case(&c.name)) {
                            pk.push(c.name.clone());
                        }
                        Column {
                            name: c.name.clone(),
                            decl_type: c.decl_type.clone(),
                            not_null: c.not_null,
                        }
                    })
                    .collect();
                self.catalog.create_table(Table::new(ct.name.clone(), columns, &pk)?)?;
                Ok(QueryResult::default())
            }
            Statement::DropTable { name, if_exists } => {
                match self.catalog.drop_table(name) {
                    Ok(()) => Ok(QueryResult::default()),
                    Err(Error::NotFound(_)) if *if_exists => Ok(QueryResult::default()),
                    Err(e) => Err(e),
                }
            }
            Statement::AlterTableAddColumn { table, column } => {
                let col = Column {
                    name: column.name.clone(),
                    decl_type: column.decl_type.clone(),
                    not_null: column.not_null,
                };
                self.catalog.get_mut(table)?.add_column(col)?;
                Ok(QueryResult::default())
            }
            Statement::Insert(ins) => self.execute_insert(ins),
            Statement::Update(upd) => self.execute_update(upd),
            Statement::Delete(del) => self.execute_delete(del),
        }
    }

    fn execute_insert(&mut self, ins: &crate::ast::Insert) -> Result<QueryResult> {
        // Compute the source rows first (they may SELECT from the target).
        // INSERT ... SELECT re-shares the SELECT's rows without copying.
        let source_rows: Vec<Row> = match &ins.source {
            InsertSource::Values(rows) => {
                let ctx = self.exec_ctx();
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        vals.push(eval(e, &ctx, None)?);
                    }
                    out.push(vals.into());
                }
                out
            }
            InsertSource::Select(sel) => {
                let ctx = self.exec_ctx();
                run_select(sel, &ctx, None)?.rows
            }
        };

        // Map the provided column list onto the table's full width.
        let (width, col_map, pk_cols) = {
            let table = self.catalog.get_required(&ins.table)?;
            let width = table.width();
            let col_map: Option<Vec<usize>> = if ins.columns.is_empty() {
                None
            } else {
                let mut map = Vec::with_capacity(ins.columns.len());
                for c in &ins.columns {
                    map.push(table.column_index(c).ok_or_else(|| {
                        Error::Unresolved(format!("{}.{}", ins.table, c))
                    })?);
                }
                Some(map)
            };
            (width, col_map, table.primary_key.clone())
        };

        // Statement atomicity: a failure part-way through the batch rolls
        // the appended prefix back — no partial INSERT is ever visible,
        // inside or outside a transaction.
        let table = self.catalog.get_mut(&ins.table)?;
        let start_len = table.len();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let insert_all = || -> Result<usize> {
            let mut n = 0;
            for vals in source_rows {
                let row: Row = match &col_map {
                    None => {
                        if vals.len() != width {
                            return Err(Error::Semantic(format!(
                                "INSERT has {} values but table '{}' has {width} columns",
                                vals.len(),
                                ins.table
                            )));
                        }
                        vals
                    }
                    Some(map) => {
                        if vals.len() != map.len() {
                            return Err(Error::Semantic(format!(
                                "INSERT has {} values for {} named columns",
                                vals.len(),
                                map.len()
                            )));
                        }
                        let mut row = vec![Value::Null; width];
                        for (v, &i) in vals.iter().zip(map.iter()) {
                            row[i] = v.clone();
                        }
                        row.into()
                    }
                };
                if !pk_cols.is_empty() {
                    keys.push(pk_cols.iter().map(|&i| row[i].clone()).collect());
                }
                table.insert_shared_row(row)?;
                n += 1;
            }
            Ok(n)
        };
        match insert_all() {
            Ok(n) => {
                self.stmt_writes = if pk_cols.is_empty() {
                    StmtWrites::Whole
                } else {
                    StmtWrites::Rows { keys, inserted: true, reorder: false }
                };
                Ok(QueryResult { rows_affected: n, ..Default::default() })
            }
            Err(e) => {
                self.catalog.get_mut(&ins.table)?.truncate_rows(start_len);
                Err(e)
            }
        }
    }

    fn execute_update(&mut self, upd: &crate::ast::Update) -> Result<QueryResult> {
        // Resolve assignment targets and snapshot the evaluation context.
        let (schema, assign_idx, pk_cols): (RelSchema, Vec<usize>, Vec<usize>) = {
            let table = self.catalog.get_required(&upd.table)?;
            let schema = RelSchema::qualified(&table.name.clone(), table.column_names());
            let mut idx = Vec::with_capacity(upd.assignments.len());
            for (col, _) in &upd.assignments {
                idx.push(table.column_index(col).ok_or_else(|| {
                    Error::Unresolved(format!("{}.{}", upd.table, col))
                })?);
            }
            (schema, idx, table.primary_key.clone())
        };

        // Compute new rows against an immutable snapshot, then swap in.
        // Untouched rows stay shared; only hit rows are rebuilt.
        let snapshot = self.catalog.get_required(&upd.table)?.clone();
        let ctx = self.exec_ctx();
        let mut new_rows = snapshot.rows.clone();
        let mut n = 0;
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut reorder = false;
        for row in &mut new_rows {
            let hit = match &upd.filter {
                None => true,
                Some(f) => {
                    let rc = RowCtx::new(&schema, row);
                    eval(f, &ctx, Some(&rc))?.truthiness() == Some(true)
                }
            };
            if !hit {
                continue;
            }
            let mut updated = row.to_vec();
            for ((_, e), &i) in upd.assignments.iter().zip(assign_idx.iter()) {
                let rc = RowCtx::new(&schema, row);
                updated[i] = eval(e, &ctx, Some(&rc))?;
            }
            if !pk_cols.is_empty() {
                keys.push(pk_cols.iter().map(|&i| row[i].clone()).collect());
                let moved = pk_cols
                    .iter()
                    .any(|&i| row[i].group_key() != updated[i].group_key());
                if moved {
                    // The row leaves its primary key: both keys are part
                    // of the write set, and the in-place WAL patch can no
                    // longer reproduce row order.
                    keys.push(pk_cols.iter().map(|&i| updated[i].clone()).collect());
                    reorder = true;
                }
            }
            *row = updated.into();
            n += 1;
        }
        drop(ctx);

        // Rebuild the table to re-validate constraints.
        let table = self.catalog.get_mut(&upd.table)?;
        let old_rows = std::mem::take(&mut table.rows);
        table.clear_rows();
        for row in new_rows {
            if let Err(e) = table.insert_shared_row(row) {
                // Restore on failure. The old rows were valid when taken
                // out, so re-inserting them cannot fail; if it somehow
                // does, surface the corruption instead of aborting.
                table.clear_rows();
                for r in old_rows {
                    if let Err(restore) = table.insert_shared_row(r) {
                        return Err(Error::Internal(format!(
                            "UPDATE of '{}' failed ({e}) and restoring the                              previously valid rows also failed: {restore}",
                            upd.table
                        )));
                    }
                }
                return Err(e);
            }
        }
        self.stmt_writes = if pk_cols.is_empty() {
            StmtWrites::Whole
        } else {
            StmtWrites::Rows { keys, inserted: false, reorder }
        };
        Ok(QueryResult { rows_affected: n, ..Default::default() })
    }

    fn execute_delete(&mut self, del: &crate::ast::Delete) -> Result<QueryResult> {
        let schema = {
            let table = self.catalog.get_required(&del.table)?;
            RelSchema::qualified(&table.name.clone(), table.column_names())
        };
        // Evaluate the filter against a snapshot to decide which rows go.
        let (keep, keys, has_pk): (Vec<bool>, Vec<Vec<Value>>, bool) = {
            let table = self.catalog.get_required(&del.table)?.clone();
            let pk_cols = table.primary_key.clone();
            let ctx = self.exec_ctx();
            let mut keep = Vec::with_capacity(table.rows.len());
            let mut keys = Vec::new();
            for row in &table.rows {
                let hit = match &del.filter {
                    None => true,
                    Some(f) => {
                        let rc = RowCtx::new(&schema, row);
                        eval(f, &ctx, Some(&rc))?.truthiness() == Some(true)
                    }
                };
                keep.push(!hit);
                if hit && !pk_cols.is_empty() {
                    keys.push(pk_cols.iter().map(|&i| row[i].clone()).collect());
                }
            }
            (keep, keys, !pk_cols.is_empty())
        };
        let table = self.catalog.get_mut(&del.table)?;
        let mut it = keep.iter();
        let removed = table.retain_rows(|_| *it.next().unwrap_or(&true));
        self.stmt_writes = if has_pk {
            StmtWrites::Rows { keys, inserted: false, reorder: false }
        } else {
            StmtWrites::Whole
        };
        Ok(QueryResult { rows_affected: removed, ..Default::default() })
    }
}

impl Clone for Database {
    /// A clone is a detached **in-memory** fork: it shares the row
    /// storage (`Arc<Table>` copy-on-write, O(tables)) but deliberately
    /// not the write-ahead log — two handles logging deltas against
    /// diverging catalogs would corrupt the recoverable state (and a
    /// checkpoint from either would erase the other's commits). For
    /// shared durable writes, promote with
    /// [`SharedDb::from_database`](crate::shared::SharedDb::from_database)
    /// instead of cloning.
    fn clone(&self) -> Self {
        Database {
            catalog: self.catalog.clone(),
            udfs: self.udfs.clone(),
            optimizer: self.optimizer,
            wal: None,
            txns: self.txns.clone(),
            txn: self.txn.clone(),
            statement_timeout: self.statement_timeout,
            clock: self.clock.clone(),
            stmt_writes: self.stmt_writes.clone(),
            subquery_counters: Arc::default(),
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog.table_names())
            .field("udfs", &self.udfs)
            .finish()
    }
}
