//! Subquery execution within a statement.
//!
//! Every subquery expression owns one single-flight cell in the
//! statement's [`SubqueryCache`]. The first arriver classifies the
//! subquery by executing it without the outer scope:
//!
//! * **uncorrelated** — it resolves; the rows are shared for the rest of
//!   the statement, and an `IN` probe hashes them once ([`InSet`]);
//! * **keyed** — it needs the outer row, and every outer reference in
//!   its WHERE is a top-level conjunct `inner_column = outer_expr`
//!   (`keyed_shape`). The FROM plus the remaining local conjuncts run
//!   **once**, through the normal optimizer, and the rows are
//!   hash-partitioned by the inner key. Each outer row then evaluates
//!   its outer keys, picks its partition (empty on a NULL or missing
//!   key) and runs only the rest of the core over it: projection or
//!   aggregation, GROUP BY/HAVING, DISTINCT, ORDER BY and LIMIT. An
//!   empty partition gives `COUNT(*) = 0` and `SUM = NULL`, exactly like
//!   the per-row filter that matched nothing;
//! * **correlated** — any other shape: re-executed per outer row. This
//!   is also where a keyed build that fails lands, so its error (if any)
//!   surfaces exactly where the per-row path raises it.
//!
//! [`SubqueryStats`] counts keyed builds and per-row re-executions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::ast::{BinaryOp, Expr, SelectBody, SelectCore, SelectItem, SelectStmt, TableRef};
use crate::error::{Error, Result};
use crate::eval::{bind_columns, eval, RowCtx};
use crate::exec::{
    core_input, finish_select, needed_columns, run_select, CoreInput, ExecCtx, JoinKey, KeySide,
    Relation, CANCEL_CHECK_ROWS,
};
use crate::functions::UdfRegistry;
use crate::hash::{FxHashMap, FxHashSet};
use crate::optimizer::{expr_columns, expr_has_subquery};
use crate::plan::{conjoin, plan_from, split_conjuncts, RelSchema};
use crate::value::{GroupKey, Row, Value};

/// Cached execution state of one subquery within a statement.
pub enum SubqueryState {
    /// Executed once; the rows are shared. `in_set` hashes the first
    /// column on the first `IN` probe.
    Uncorrelated { rel: Arc<Relation>, in_set: OnceLock<InSet> },
    /// Equality-correlated: the inner side is built once, partitioned by
    /// key, and finished per outer row.
    Keyed(KeyedSubquery),
    /// Correlated in any other way: re-executed per outer row.
    Correlated,
}

/// The statement-scoped subquery result cache, keyed by the subquery's
/// AST node address. `Send + Sync` (an `Arc<Mutex<..>>` map of shared
/// cells) so morsel workers share one cache with the statement thread,
/// letting subquery-bearing predicates run under
/// [`Plan::Parallel`](crate::plan::Plan) instead of falling back to
/// serial. Each entry is a [`OnceLock`] **single-flight cell**: the first
/// arriver classifies (and, for uncorrelated and keyed subqueries,
/// executes or builds) the subquery while concurrent arrivers block on
/// the cell — that work therefore happens *exactly once* per statement at
/// every thread count, never once per worker.
pub type SubqueryCache = Arc<Mutex<HashMap<usize, Arc<OnceLock<Result<SubqueryState>>>>>>;

/// Snapshot of the correlated-subquery path counters, named for the
/// engine metrics as `subquery.keyed_builds` and
/// `subquery.correlated_reruns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubqueryStats {
    /// Correlated subqueries served by the keyed path: one per subquery
    /// per statement that built its partitioned inner side.
    pub keyed_builds: u64,
    /// Per-outer-row re-executions of a correlated subquery — the
    /// fallback for every shape the keyed rule declines.
    pub correlated_reruns: u64,
}

/// Live counters behind [`SubqueryStats`], shared by a database and every
/// statement context it builds.
#[derive(Debug, Default)]
pub struct SubqueryCounters {
    keyed_builds: AtomicU64,
    correlated_reruns: AtomicU64,
}

impl SubqueryCounters {
    pub fn snapshot(&self) -> SubqueryStats {
        SubqueryStats {
            keyed_builds: self.keyed_builds.load(Ordering::Relaxed),
            correlated_reruns: self.correlated_reruns.load(Ordering::Relaxed),
        }
    }
}

/// The hashed first column of an uncorrelated `IN` subquery.
pub struct InSet {
    keys: FxHashSet<GroupKey>,
    /// A NULL member makes a miss unknown rather than false.
    has_null: bool,
}

impl InSet {
    fn build(rel: &Relation) -> InSet {
        let mut keys = FxHashSet::default();
        let mut has_null = false;
        for r in &rel.rows {
            match r.first() {
                None | Some(Value::Null) => has_null = true,
                Some(v) => {
                    if let Some(k) = eq_key(v) {
                        keys.insert(k);
                    }
                }
            }
        }
        InSet { keys, has_null }
    }

    /// Three-valued membership of a non-NULL value.
    fn contains(&self, v: &Value) -> Option<bool> {
        if eq_key(v).is_some_and(|k| self.keys.contains(&k)) {
            Some(true)
        } else if self.has_null {
            None
        } else {
            Some(false)
        }
    }
}

/// Hash key under which two values are SQL-`=` equal: [`Value::group_key`],
/// except that NULL and NaN (which `=` never matches, not even with
/// themselves) get no key. The one definition of "can match under `=`"
/// for every hashed equality: hash-join keys (row and columnar), keyed
/// subquery partitions and `IN` sets.
#[inline]
pub(crate) fn eq_key(v: &Value) -> Option<GroupKey> {
    match v {
        Value::Null => None,
        Value::Real(r) if r.is_nan() => None,
        _ => Some(v.group_key()),
    }
}

/// A correlated subquery whose inner side was built once per statement.
pub struct KeyedSubquery {
    /// The outer side of each correlation conjunct, in key order.
    outer_keys: Vec<Expr>,
    /// Schema of the filtered inner rows (every partition's schema).
    schema: RelSchema,
    /// Filtered inner rows by inner key, each in inner-scan order;
    /// rows with a NULL key are dropped (they can never match).
    partitions: FxHashMap<JoinKey, Vec<Row>>,
}

/// The split of a keyed subquery's WHERE clause.
struct KeyedShape<'q> {
    core: &'q SelectCore,
    inner_keys: Vec<Expr>,
    outer_keys: Vec<Expr>,
    local: Vec<Expr>,
}

/// Execute (or fetch the cached result of) a subquery for one outer row.
pub(crate) fn subquery_relation(
    query: &SelectStmt,
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
) -> Result<Arc<Relation>> {
    let cell = subquery_cell(query, ctx);
    match classify(&cell, query, ctx, row) {
        Ok(SubqueryState::Uncorrelated { rel, .. }) => Ok(rel.clone()),
        Ok(SubqueryState::Keyed(keyed)) => keyed_relation(keyed, query, ctx, row).map(Arc::new),
        Ok(SubqueryState::Correlated) => rerun(query, ctx, row).map(Arc::new),
        // The cache is statement-scoped, so a pinned error only
        // short-circuits re-evaluations within the failing statement.
        Err(e) => Err(e.clone()),
    }
}

/// Three-valued `v IN (query)` for a non-NULL `v`: `Some(true)` on a
/// match, `None` when there is none but the subquery returned a NULL,
/// else `Some(false)`. An uncorrelated subquery probes a hash set built
/// once per statement; correlated results are scanned.
pub(crate) fn in_subquery(
    v: &Value,
    query: &SelectStmt,
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
) -> Result<Option<bool>> {
    let cell = subquery_cell(query, ctx);
    let rel = match classify(&cell, query, ctx, row) {
        Ok(SubqueryState::Uncorrelated { rel, in_set }) => {
            return Ok(in_set.get_or_init(|| InSet::build(rel)).contains(v));
        }
        Ok(SubqueryState::Keyed(keyed)) => keyed_relation(keyed, query, ctx, row)?,
        Ok(SubqueryState::Correlated) => rerun(query, ctx, row)?,
        Err(e) => return Err(e.clone()),
    };
    let mut saw_null = false;
    for r in &rel.rows {
        let item = r.first().cloned().unwrap_or(Value::Null);
        match v.sql_eq(&item) {
            Some(true) => return Ok(Some(true)),
            Some(false) => {}
            None => saw_null = true,
        }
    }
    Ok(if saw_null { None } else { Some(false) })
}

/// Grab (or create) this subquery's single-flight cell. The map lock is
/// held only for the lookup — never while a subquery executes (which can
/// be arbitrarily expensive and recursively re-enter this cache for
/// nested subqueries).
fn subquery_cell(query: &SelectStmt, ctx: &ExecCtx<'_>) -> Arc<OnceLock<Result<SubqueryState>>> {
    let key = query as *const SelectStmt as usize;
    let mut cache = ctx.subqueries.lock();
    cache.entry(key).or_default().clone()
}

/// Single-flight classification: the first arriver executes the subquery
/// without the outer scope — uncorrelated on success; on an unresolved
/// column with an outer row present it is correlated, and the keyed
/// build is attempted. Concurrent arrivers block on the cell instead of
/// racing a duplicate execution. Nested subqueries use their own cells,
/// so initialization cannot cycle.
fn classify<'c>(
    cell: &'c OnceLock<Result<SubqueryState>>,
    query: &SelectStmt,
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
) -> &'c Result<SubqueryState> {
    cell.get_or_init(|| match run_select(query, ctx, None) {
        Ok(rel) => Ok(SubqueryState::Uncorrelated { rel: Arc::new(rel), in_set: OnceLock::new() }),
        Err(Error::Unresolved(_)) if row.is_some() => Ok(correlated_state(query, ctx)),
        Err(e) => Err(e),
    })
}

/// The keyed state when the shape qualifies and the one-time build
/// succeeds; the per-row state otherwise.
fn correlated_state(query: &SelectStmt, ctx: &ExecCtx<'_>) -> SubqueryState {
    let Some(shape) = keyed_shape(query, ctx) else {
        return SubqueryState::Correlated;
    };
    match build_keyed(query, shape, ctx) {
        Ok(keyed) => {
            ctx.subquery_counters.keyed_builds.fetch_add(1, Ordering::Relaxed);
            SubqueryState::Keyed(keyed)
        }
        // The per-row path re-raises whatever is a real error, at the row
        // and in the order it always did.
        Err(_) => SubqueryState::Correlated,
    }
}

/// One per-row re-execution of a correlated subquery.
fn rerun(query: &SelectStmt, ctx: &ExecCtx<'_>, row: Option<&RowCtx<'_>>) -> Result<Relation> {
    ctx.subquery_counters.correlated_reruns.fetch_add(1, Ordering::Relaxed);
    run_select(query, ctx, row)
}

/// Decide whether a correlated subquery can run keyed, and split its
/// WHERE into correlation keys and local conjuncts. Declines (`None`):
/// compound bodies; derived tables in FROM; a JOIN ON that holds a
/// subquery or reaches outside the FROM; any expensive UDF anywhere in
/// the subquery (so model-call counts never change); an ambiguous column;
/// and any WHERE conjunct that references the outer scope other than as
/// `inner_column = outer_expr` with an aggregate- and subquery-free outer
/// side. Conjuncts holding a subquery count as local: if that subquery
/// reaches the outer scope, the build fails on it and the statement falls
/// back to per-row execution.
fn keyed_shape<'q>(query: &'q SelectStmt, ctx: &ExecCtx<'_>) -> Option<KeyedShape<'q>> {
    let SelectBody::Simple(core) = &query.body else { return None };
    let filter = core.filter.as_ref()?;
    let from = core.from.as_ref()?;
    if calls_expensive_udf(query, ctx.udfs) {
        return None;
    }
    let schema = plan_from(Some(from), None).ok()?.schema(ctx.catalog).ok()?;
    if !from_is_local(from, &schema) {
        return None;
    }
    let mut shape =
        KeyedShape { core, inner_keys: Vec::new(), outer_keys: Vec::new(), local: Vec::new() };
    for c in split_conjuncts(filter) {
        if expr_has_subquery(&c) || scope_of(&c, &schema)? == Scope::Local {
            shape.local.push(c);
            continue;
        }
        let Expr::Binary { op: BinaryOp::Eq, left, right } = &c else { return None };
        let (inner, outer) = if is_inner_column(left, &schema) {
            (left, right)
        } else if is_inner_column(right, &schema) {
            (right, left)
        } else {
            return None;
        };
        if scope_of(outer, &schema)? != Scope::Outer || outer.contains_aggregate() {
            return None;
        }
        shape.inner_keys.push((**inner).clone());
        shape.outer_keys.push((**outer).clone());
    }
    (!shape.inner_keys.is_empty()).then_some(shape)
}

#[derive(PartialEq, Eq)]
enum Scope {
    /// Only inner columns (or none).
    Local,
    /// Only outer columns.
    Outer,
    Mixed,
}

/// Which scopes an expression's columns resolve in; `None` on an
/// ambiguous reference.
fn scope_of(e: &Expr, inner: &RelSchema) -> Option<Scope> {
    let (mut saw_inner, mut saw_outer, mut ambiguous) = (false, false, false);
    e.walk(&mut |x| {
        if let Expr::Column { table, name } = x {
            match inner.resolve(table.as_deref(), name) {
                Ok(Some(_)) => saw_inner = true,
                Ok(None) => saw_outer = true,
                Err(_) => ambiguous = true,
            }
        }
    });
    match (ambiguous, saw_inner, saw_outer) {
        (true, _, _) => None,
        (false, true, true) => Some(Scope::Mixed),
        (false, _, true) => Some(Scope::Outer),
        (false, _, false) => Some(Scope::Local),
    }
}

fn is_inner_column(e: &Expr, inner: &RelSchema) -> bool {
    matches!(e, Expr::Column { table, name }
        if matches!(inner.resolve(table.as_deref(), name), Ok(Some(_))))
}

/// True when the FROM tree is base tables joined on conditions that
/// resolve entirely inside it.
fn from_is_local(t: &TableRef, schema: &RelSchema) -> bool {
    match t {
        TableRef::Table { .. } => true,
        TableRef::Subquery { .. } => false,
        TableRef::Join { left, right, on, .. } => {
            on.as_ref().is_none_or(|on| !expr_has_subquery(on) && schema.covers(on))
                && from_is_local(left, schema)
                && from_is_local(right, schema)
        }
    }
}

/// Does any expression of `query` — nested subqueries and derived tables
/// included — call an expensive UDF?
fn calls_expensive_udf(query: &SelectStmt, udfs: &UdfRegistry) -> bool {
    let mut found = false;
    visit_exprs(query, &mut |e| {
        e.walk(&mut |x| match x {
            Expr::Function { name, .. } if udfs.is_expensive(name) => found = true,
            Expr::InSubquery { query, .. }
            | Expr::Exists { query, .. }
            | Expr::ScalarSubquery(query) => found |= calls_expensive_udf(query, udfs),
            _ => {}
        })
    });
    found
}

/// Visit every top-level expression of a SELECT, recursing into derived
/// tables (but not into expression subqueries — [`Expr::walk`] callers
/// handle those).
fn visit_exprs(query: &SelectStmt, f: &mut dyn FnMut(&Expr)) {
    fn body(b: &SelectBody, f: &mut dyn FnMut(&Expr)) {
        match b {
            SelectBody::Simple(core) => {
                for item in &core.projection {
                    if let SelectItem::Expr { expr, .. } = item {
                        f(expr);
                    }
                }
                if let Some(t) = &core.from {
                    table(t, f);
                }
                core.filter.iter().chain(&core.group_by).chain(&core.having).for_each(&mut *f);
            }
            SelectBody::Compound { left, right, .. } => {
                body(left, f);
                body(right, f);
            }
        }
    }
    fn table(t: &TableRef, f: &mut dyn FnMut(&Expr)) {
        match t {
            TableRef::Table { .. } => {}
            TableRef::Subquery { query, .. } => visit_exprs(query, f),
            TableRef::Join { left, right, on, .. } => {
                table(left, f);
                table(right, f);
                if let Some(on) = on {
                    f(on);
                }
            }
        }
    }
    body(&query.body, f);
    for o in &query.order_by {
        f(&o.expr);
    }
    query.limit.iter().chain(&query.offset).for_each(f);
}

/// Run the FROM plus the local conjuncts once, then hash-partition the
/// rows by the inner key with the hash join's [`KeySide`] keying.
fn build_keyed(
    query: &SelectStmt,
    shape: KeyedShape<'_>,
    ctx: &ExecCtx<'_>,
) -> Result<KeyedSubquery> {
    let KeyedShape { core, inner_keys, outer_keys, local } = shape;
    // The key columns are read above the plan: keep them through pruning.
    let needed = needed_columns(core, &query.order_by).map(|mut cols| {
        cols.extend(inner_keys.iter().filter_map(expr_columns).flatten());
        cols
    });
    let filter = conjoin(local);
    let input = core_input(core, filter.as_ref(), needed, &[], None, ctx, None)?;
    let Relation { schema, rows } = input.rel;
    let key = KeySide::new(inner_keys.iter().map(|e| bind_columns(e, &schema)).collect());
    let mut partitions: FxHashMap<JoinKey, Vec<Row>> = FxHashMap::default();
    for (i, row) in rows.into_iter().enumerate() {
        if i % CANCEL_CHECK_ROWS == CANCEL_CHECK_ROWS - 1 {
            ctx.check_cancel()?;
        }
        if let Some(k) = key.key(&row, &schema, ctx, None)? {
            partitions.entry(k).or_default().push(row);
        }
    }
    Ok(KeyedSubquery { outer_keys, schema, partitions })
}

/// Finish a keyed subquery over one outer row's partition.
fn keyed_relation(
    keyed: &KeyedSubquery,
    query: &SelectStmt,
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
) -> Result<Relation> {
    let SelectBody::Simple(core) = &query.body else {
        return Err(Error::Internal("keyed subquery with a compound body".into()));
    };
    let key = match outer_key(&keyed.outer_keys, ctx, row) {
        Ok(key) => key,
        // The per-row path evaluates the outer side only when an inner row
        // reaches the conjunct: let it decide whether this error surfaces.
        Err(_) => return rerun(query, ctx, row),
    };
    let rows = key.and_then(|k| keyed.partitions.get(&k)).cloned().unwrap_or_default();
    let input = CoreInput::rows(Relation { schema: keyed.schema.clone(), rows });
    finish_select(query, core, &input, ctx, row)
}

/// The outer row's key; `None` when any component is NULL or NaN, which
/// `=` never matches.
fn outer_key(
    exprs: &[Expr],
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
) -> Result<Option<JoinKey>> {
    let mut keys = Vec::with_capacity(exprs.len());
    for e in exprs {
        let Some(k) = eq_key(&eval(e, ctx, row)?) else { return Ok(None) };
        keys.push(k);
    }
    Ok(Some(match keys.len() {
        1 => JoinKey::One(keys.swap_remove(0)),
        _ => JoinKey::Many(keys),
    }))
}
