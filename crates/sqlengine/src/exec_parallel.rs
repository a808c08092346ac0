//! Morsel-driven parallel plan execution.
//!
//! [`exec_parallel`] executes the subtree under a [`Plan::Parallel`]
//! annotation with up to `partitions` worker threads from the shared
//! [`swan_pool`] compute pool:
//!
//! * **filters and permutes** split their input into fixed-size morsels;
//!   workers steal morsel indices from a shared counter, and per-morsel
//!   outputs are concatenated in morsel order — so the operator's row
//!   order (and therefore the whole query result) is **byte-identical to
//!   the serial engine at every partition count**;
//! * **hash joins** build a *partitioned* table — workers first compute
//!   the build side's keys (plus their hashes) morsel-parallel, then each
//!   of `partitions` workers owns the keys with `hash % partitions == p`
//!   and builds its own map with zero cross-worker synchronization; the
//!   probe side then probes morsel-parallel against the read-only
//!   partition maps, emitting in probe order exactly like the serial
//!   loop;
//! * **nested-loop joins** morsel the outer (left) side;
//! * **GROUP BY / aggregation** (driven from `exec::run_aggregate`) is
//!   two-phase: thread-local morsels evaluate every row's grouping key,
//!   a serial merge partitions rows in input order (preserving the
//!   serial first-seen group order), and the independent per-group
//!   aggregate/HAVING/projection work fans back out over the groups;
//! * **ORDER BY … LIMIT k** selects per-morsel top-k candidates in
//!   parallel before one final selection (see
//!   [`parallel_topk_candidates`]).
//!
//! # Worker execution contexts
//!
//! [`ExecCtx`] holds a statement-scoped `RefCell` UDF-result store and is
//! therefore not shareable across threads. Each morsel runs against a
//! fresh worker-local context over the same catalog/UDF registry, seeded
//! with a snapshot of the statement's prefetched expensive-UDF results
//! (so the vectorized batching of [`Plan::Batch`] keeps paying off inside
//! workers). The statement's **subquery cache is shared** by every worker
//! (it is `Send + Sync`, see [`crate::subquery::SubqueryCache`]): an
//! uncorrelated subquery still executes at most once per statement, a
//! keyed correlated subquery builds its partitioned inner side once, and
//! other correlated subqueries re-execute per row on whichever worker
//! owns the row — so subquery-bearing predicates parallelize like any other
//! expression. Expensive-UDF *residual* join predicates still fall back
//! to the serial join: the serial path owns the candidate-replay batching
//! machinery, and splitting it across workers would silently degrade call
//! batching.
//!
//! Errors are deterministic: each worker stops at its morsel's first
//! error, and the caller surfaces the error of the earliest morsel — the
//! same row the serial loop would have failed on.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::ast::Expr;
use crate::error::Result;
use crate::eval::{bind_columns, eval, BatchableCalls, RowCtx};
use crate::exec::{
    exec_join, exec_plan, filter_relation, prefetch_row, split_equi_join, Bucket, Emission,
    ExecCtx, JoinInput, JoinKey, KeySide, Relation, PREFETCH_AHEAD,
};
use crate::hash::{map_with_capacity, FxHashMap, FxHasher};
use crate::optimizer::{expr_cost, OptimizerConfig};
use crate::plan::{Plan, PlanJoinKind, RelSchema};
use crate::value::{Row, Value};

/// Upper bound on morsel size (rows). Small enough that a skewed morsel
/// cannot serialize the batch, large enough to amortize dispatch.
pub const MORSEL_ROWS: usize = 1024;

/// Resolve a config's thread count: an explicit value wins; `0` defers to
/// [`swan_pool::configured_threads`] (the `SWAN_THREADS` environment
/// variable, else the machine's available parallelism). `SWAN_THREADS=1`
/// therefore reproduces the serial engine exactly.
pub fn effective_threads(config: &OptimizerConfig) -> usize {
    match config.threads {
        0 => swan_pool::configured_threads(),
        n => n,
    }
}

/// Morsel size for `count` items across `partitions` workers: aim for a
/// few morsels per worker (stealing headroom for skew), capped at
/// [`MORSEL_ROWS`].
fn morsel_size(count: usize, partitions: usize) -> usize {
    count.div_ceil((partitions * 4).max(1)).clamp(1, MORSEL_ROWS)
}

/// Run `f` over morsels of `0..count` on up to `partitions` workers, each
/// against a fresh worker-local [`ExecCtx`] seeded with a snapshot of the
/// statement's prefetched expensive-UDF results. Results come back in
/// morsel order; the first error (in morsel order) wins — matching the
/// serial loop's first-failing-row semantics.
///
/// Expensive-UDF results a worker computed itself (tuples the
/// statement-level prefetch missed, e.g. after a failed or short
/// `invoke_batch`) are **merged back** into the statement store when the
/// worker retires, so downstream operators of the same statement are
/// served from the store instead of re-invoking. Within one parallel
/// operator such a missed tuple can still be invoked by more than one
/// worker concurrently (bounded by the partition count; stateful UDFs
/// like `llm_map` deduplicate further in their own single-flight layer) —
/// the statement-level prefetch keeps this path cold.
pub(crate) fn try_morsels<'a, T, F>(
    count: usize,
    partitions: usize,
    ctx: &ExecCtx<'a>,
    f: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>, &ExecCtx<'a>) -> Result<T> + Sync,
{
    let snapshot = ctx.udf_results.borrow().clone();
    let catalog = ctx.catalog;
    let udfs = ctx.udfs;
    let optimizer = ctx.optimizer;
    let subqueries = ctx.subqueries.clone();
    let subquery_counters = ctx.subquery_counters.clone();
    let cancel = ctx.cancel.clone();
    type NewResults = Vec<(String, Vec<(Vec<crate::value::UdfArgKey>, Value)>)>;
    let merge_sink: parking_lot::Mutex<NewResults> =
        parking_lot::Mutex::with_rank("merge_sink", swan_pool::lockrank::MERGE_SINK, Vec::new());

    /// Worker context wrapper: on drop (worker retirement — normal or
    /// unwinding), entries absent from the seed snapshot drain into the
    /// shared sink for the statement thread to merge.
    struct WorkerCtx<'a, 'env> {
        wctx: ExecCtx<'a>,
        snapshot: &'env FxHashMap<String, crate::exec::UdfResults>,
        sink: &'env parking_lot::Mutex<NewResults>,
    }
    impl Drop for WorkerCtx<'_, '_> {
        fn drop(&mut self) {
            let store = self.wctx.udf_results.borrow();
            let mut fresh: NewResults = Vec::new();
            for (name, map) in store.iter() {
                let seed = self.snapshot.get(name);
                let new: Vec<_> = map
                    .iter()
                    .filter(|(k, _)| !seed.is_some_and(|s| s.contains_key(*k)))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                if !new.is_empty() {
                    fresh.push((name.clone(), new));
                }
            }
            if !fresh.is_empty() {
                self.sink.lock().extend(fresh);
            }
        }
    }

    let out: Result<Vec<T>> = swan_pool::parallel_morsels_with(
        count,
        morsel_size(count, partitions),
        partitions,
        // One context (and one snapshot clone) per worker, not per morsel.
        || WorkerCtx {
            wctx: ExecCtx {
                catalog,
                udfs,
                optimizer,
                // One shared statement-wide subquery cache: uncorrelated
                // subqueries run once no matter which worker needs them.
                subqueries: subqueries.clone(),
                subquery_counters: subquery_counters.clone(),
                udf_results: RefCell::new(snapshot.clone()),
                // Workers share the statement's cancel token: a deadline
                // firing mid-statement stops every worker at its next
                // morsel boundary.
                cancel: cancel.clone(),
            },
            snapshot: &snapshot,
            sink: &merge_sink,
        },
        |worker, range| {
            // Morsel-boundary cooperative checkpoint: each worker gives up
            // before starting its next morsel once the statement is done.
            worker.wctx.check_cancel()?;
            // Re-install the statement token as this pool thread's current
            // token so model calls made from inside the morsel observe the
            // statement deadline (pool threads don't inherit thread-locals).
            swan_pool::cancel::with_current(&worker.wctx.cancel, || f(range, &worker.wctx))
        },
    )
    .into_iter()
    .collect();

    let fresh = merge_sink.into_inner();
    if !fresh.is_empty() {
        let mut store = ctx.udf_results.borrow_mut();
        for (name, entries) in fresh {
            store.entry(name).or_default().extend(entries);
        }
    }
    out
}

/// Execute the subtree under a [`Plan::Parallel`] annotation.
pub(crate) fn exec_parallel(
    plan: &Plan,
    partitions: usize,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Relation> {
    match plan {
        Plan::Parallel { input, partitions: p } => exec_parallel(input, *p, ctx, outer),

        Plan::Filter { input, predicate } => {
            // Columnar filters beat morsel-parallel row evaluation on the
            // predicate shapes the kernels support: one serial pass over
            // the key columns, no per-row dispatch. Order is identical to
            // the serial path by construction (ascending selection).
            if let Some((rel, _)) = crate::exec::columnar_filter(input, predicate, ctx)? {
                return Ok(rel);
            }
            let mut rel = exec_parallel(input, partitions, ctx, outer)?;
            if partitions <= 1 || rel.rows.len() < 2 {
                filter_relation(&mut rel, predicate, ctx, outer)?;
                return Ok(rel);
            }
            // Morsel-parallel predicate evaluation into a keep-bitmap;
            // the serial compaction preserves input order (and shares
            // surviving rows, never cloning them).
            let bound = bind_columns(predicate, &rel.schema);
            let schema = rel.schema.clone();
            let rows = &rel.rows;
            let chunks = try_morsels(rows.len(), partitions, ctx, |range, wctx| {
                let mut keep = Vec::with_capacity(range.len());
                for (off, row) in rows[range.clone()].iter().enumerate() {
                    prefetch_row(rows, range.start + off + PREFETCH_AHEAD);
                    let rc = RowCtx { schema: &schema, row, outer };
                    keep.push(eval(&bound, wctx, Some(&rc))?.truthiness() == Some(true));
                }
                Ok(keep)
            })?;
            let keep: Vec<bool> = chunks.into_iter().flatten().collect();
            let mut it = keep.iter();
            rel.rows.retain(|_| *it.next().unwrap_or(&false));
            Ok(rel)
        }

        Plan::Batch { input, calls } => {
            let rel = exec_parallel(input, partitions, ctx, outer)?;
            // The vectorized prefetch stays on the statement thread: it
            // issues one `invoke_batch` whose implementation fans out
            // through the same shared pool. Workers above this node then
            // see the results via their snapshot.
            if let Some(batch) = BatchableCalls::find(calls.iter(), ctx.udfs) {
                batch.prefetch_rows(ctx, &rel.schema, &rel.rows, outer)?;
            }
            Ok(rel)
        }

        Plan::Permute { input, mapping } => {
            let rel = exec_parallel(input, partitions, ctx, outer)?;
            let schema = RelSchema::new(
                mapping.iter().map(|&i| rel.schema.cols[i].clone()).collect(),
            );
            let rows_in = &rel.rows;
            let chunks = swan_pool::parallel_morsels(
                rows_in.len(),
                morsel_size(rows_in.len(), partitions),
                partitions,
                |range| {
                    rows_in[range]
                        .iter()
                        .map(|r| mapping.iter().map(|&i| r[i].clone()).collect::<Row>())
                        .collect::<Vec<Row>>()
                },
            );
            Ok(Relation { schema, rows: chunks.into_iter().flatten().collect() })
        }

        Plan::Join { left, right, kind, on, emit } => {
            let l = exec_source_parallel(left, partitions, ctx, outer)?;
            let r = exec_source_parallel(right, partitions, ctx, outer)?;
            exec_join_parallel(&l, &r, *kind, on.as_ref(), emit.as_deref(), ctx, outer, partitions)
        }

        // Scans (refcount bumps), derived tables (whose inner SELECT
        // re-enters the optimizer and may parallelize itself) and Empty
        // execute serially.
        other => exec_plan(other, ctx, outer),
    }
}

/// Join input for the parallel executor: scans are borrowed straight out
/// of the catalog, everything else materializes through [`exec_parallel`].
fn exec_source_parallel<'a>(
    plan: &Plan,
    partitions: usize,
    ctx: &ExecCtx<'a>,
    outer: Option<&RowCtx<'_>>,
) -> Result<JoinInput<'a>> {
    match plan {
        Plan::Scan { table, qualifier } => {
            let t = ctx.catalog.get_required(table)?;
            Ok(JoinInput::Borrowed {
                schema: RelSchema::qualified(qualifier, t.column_names()),
                rows: &t.rows,
                cols: ctx.optimizer.columnar.then(|| t.column_set()),
            })
        }
        other => Ok(JoinInput::Owned(exec_parallel(other, partitions, ctx, outer)?)),
    }
}

fn fx_hash<T: Hash>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

#[allow(clippy::too_many_arguments)]
fn exec_join_parallel(
    left: &JoinInput<'_>,
    right: &JoinInput<'_>,
    kind: PlanJoinKind,
    on: Option<&Expr>,
    emit: Option<&[usize]>,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
    partitions: usize,
) -> Result<Relation> {
    let full_schema = left.schema().join(right.schema());
    let out_schema = match emit {
        None => full_schema.clone(),
        Some(idx) => {
            RelSchema::new(idx.iter().map(|&i| full_schema.cols[i].clone()).collect())
        }
    };
    let emission = Emission::new(emit, left.schema().len());

    let (equi, residual) = match on {
        Some(pred) if kind != PlanJoinKind::Cross => {
            split_equi_join(pred, left.schema(), right.schema())
        }
        Some(pred) => (Vec::new(), Some(pred.clone())),
        None => (Vec::new(), None),
    };

    // Serial fallbacks: expensive UDF calls in the residual (the serial
    // path owns the candidate-replay batching, and splitting it across
    // workers would degrade call batching) or inputs too small to
    // amortize fan-out. Subqueries are fine: workers share the
    // statement's subquery cache.
    let unsafe_pred = residual.as_ref().is_some_and(|r| {
        ctx.optimizer.batch_expensive_udfs && expr_cost(r, ctx.udfs) >= 2
    });
    if partitions <= 1 || unsafe_pred || left.rows().len().max(right.rows().len()) < 2 {
        return exec_join(left, right, kind, on, emit, ctx, outer);
    }

    // ---- nested-loop join: morsel the outer (left) side ----------------
    if equi.is_empty() {
        let on_bound = residual.map(|p| bind_columns(&p, &full_schema));
        let used: Vec<usize> = match &on_bound {
            None => Vec::new(),
            Some(p) => {
                let mut used = Vec::new();
                p.walk(&mut |e| {
                    if let Expr::BoundColumn(i) = e {
                        if !used.contains(i) {
                            used.push(*i);
                        }
                    }
                });
                used
            }
        };
        let lw = left.schema().len();
        let rw = right.schema().len();
        let lrows = left.rows();
        let rrows = right.rows();
        let chunks = try_morsels(lrows.len(), partitions, ctx, |range, wctx| {
            let mut out = Vec::new();
            let mut scratch: Vec<Value> = vec![Value::Null; full_schema.len()];
            for lrow in &lrows[range] {
                let mut matched = false;
                for rrow in rrows {
                    if let Some(pred) = &on_bound {
                        for &i in &used {
                            scratch[i] =
                                if i < lw { lrow[i].clone() } else { rrow[i - lw].clone() };
                        }
                        let cc = RowCtx { schema: &full_schema, row: &scratch, outer };
                        if eval(pred, wctx, Some(&cc))?.truthiness() != Some(true) {
                            continue;
                        }
                    }
                    matched = true;
                    out.push(emission.matched(lrow, rrow));
                }
                if !matched && kind == PlanJoinKind::Left {
                    out.push(emission.unmatched(lrow, rw));
                }
            }
            Ok(out)
        })?;
        return Ok(Relation { schema: out_schema, rows: chunks.into_iter().flatten().collect() });
    }

    // ---- partitioned hash join ------------------------------------------
    // Build on the smaller side — legal for inner joins only: a LEFT join
    // must probe from the left to emit its NULL-padded non-matches.
    let build_left = kind == PlanJoinKind::Inner && left.rows().len() < right.rows().len();
    let (build, probe) = if build_left { (left, right) } else { (right, left) };

    let bind_side = |exprs: Vec<&Expr>, schema: &RelSchema| -> KeySide {
        KeySide::new(exprs.iter().map(|e| bind_columns(e, schema)).collect())
    };
    let left_raw: Vec<&Expr> = equi.iter().map(|(l, _)| l).collect();
    let right_raw: Vec<&Expr> = equi.iter().map(|(_, r)| r).collect();
    let (build_key, probe_key) = if build_left {
        (bind_side(left_raw, build.schema()), bind_side(right_raw, probe.schema()))
    } else {
        (bind_side(right_raw, build.schema()), bind_side(left_raw, probe.schema()))
    };
    let residual = residual.map(|r| bind_columns(&r, &full_schema));

    // Expensive calls in a join key vectorize over that side's batch on
    // the statement thread; workers then serve them from their snapshot.
    if ctx.optimizer.batch_expensive_udfs {
        if let KeySide::Exprs(exprs) = &build_key {
            if let Some(batch) = BatchableCalls::find(exprs.iter(), ctx.udfs) {
                batch.prefetch_rows(ctx, build.schema(), build.rows(), outer)?;
            }
        }
        if let KeySide::Exprs(exprs) = &probe_key {
            if let Some(batch) = BatchableCalls::find(exprs.iter(), ctx.udfs) {
                batch.prefetch_rows(ctx, probe.schema(), probe.rows(), outer)?;
            }
        }
    }

    // Build phase 1 (parallel): every build row's key + hash, in row order.
    // With a scan input and a single direct-column key, the key comes
    // straight out of the table's column vector — no row deref per key.
    let build_rows = build.rows();
    let build_schema = build.schema();
    let build_col = build.key_column(&build_key);
    let key_chunks = try_morsels(build_rows.len(), partitions, ctx, |range, wctx| {
        let mut keys = Vec::with_capacity(range.len());
        if let Some(col) = build_col {
            for ri in range {
                keys.push(col.join_key_at(ri).map(|k| {
                    let k = JoinKey::One(k);
                    (fx_hash(&k), k)
                }));
            }
            return Ok(keys);
        }
        for (off, row) in build_rows[range.clone()].iter().enumerate() {
            prefetch_row(build_rows, range.start + off + PREFETCH_AHEAD);
            keys.push(match build_key.key(row, build_schema, wctx, outer)? {
                Some(k) => {
                    let h = fx_hash(&k);
                    Some((h, k))
                }
                None => None,
            });
        }
        Ok(keys)
    })?;
    let keys: Vec<Option<(u64, JoinKey)>> = key_chunks.into_iter().flatten().collect();

    // Build phase 2 (parallel over partitions): worker `p` owns the keys
    // with `hash % partitions == p` and builds its map without any
    // cross-worker synchronization. Scanning rows in index order keeps
    // bucket contents in build-row order — the serial insertion order.
    let np = partitions;
    let tables: Vec<FxHashMap<&JoinKey, Bucket>> = swan_pool::parallel_items(np, np, |p| {
        let mut table: FxHashMap<&JoinKey, Bucket> =
            map_with_capacity(build_rows.len() / np + 1);
        for (ri, slot) in keys.iter().enumerate() {
            if let Some((h, k)) = slot {
                if (*h as usize) % np == p {
                    match table.entry(k) {
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(Bucket::One(ri as u32));
                        }
                        std::collections::hash_map::Entry::Occupied(mut o) => {
                            o.get_mut().push(ri as u32)
                        }
                    }
                }
            }
        }
        table
    });

    // Morsel-parallel probe against the read-only partition maps; emission
    // order within a morsel is probe order, and morsel concatenation makes
    // the overall order identical to the serial probe loop.
    let probe_rows = probe.rows();
    let probe_schema = probe.schema();
    let right_w = right.schema().len();
    let probe_col = probe.key_column(&probe_key);
    let chunks = try_morsels(probe_rows.len(), partitions, ctx, |range, wctx| {
        let mut out = Vec::new();
        let mut scratch: Vec<Value> = Vec::with_capacity(full_schema.len());
        for (off, prow) in probe_rows[range.clone()].iter().enumerate() {
            prefetch_row(probe_rows, range.start + off + PREFETCH_AHEAD);
            let key = match probe_col {
                Some(col) => col.join_key_at(range.start + off).map(JoinKey::One),
                None => probe_key.key(prow, probe_schema, wctx, outer)?,
            };
            let mut matched = false;
            if let Some(key) = key {
                let h = fx_hash(&key);
                if let Some(cands) = tables[(h as usize) % np].get(&key) {
                    for &ri in cands.as_slice() {
                        let brow = &build_rows[ri as usize];
                        let (lrow, rrow): (&[Value], &[Value]) =
                            if build_left { (brow, prow) } else { (prow, brow) };
                        if let Some(res) = &residual {
                            scratch.clear();
                            scratch.extend_from_slice(lrow);
                            scratch.extend_from_slice(rrow);
                            let cc = RowCtx { schema: &full_schema, row: &scratch, outer };
                            if eval(res, wctx, Some(&cc))?.truthiness() != Some(true) {
                                continue;
                            }
                        }
                        matched = true;
                        out.push(emission.matched(lrow, rrow));
                    }
                }
            }
            if !matched && kind == PlanJoinKind::Left {
                // probe == left here (build_left is false for LEFT joins).
                out.push(emission.unmatched(prow, right_w));
            }
        }
        Ok(out)
    })?;
    Ok(Relation { schema: out_schema, rows: chunks.into_iter().flatten().collect() })
}

/// Parallel top-k candidate selection for `ORDER BY … LIMIT k`: every
/// morsel selects its own k smallest indices under `cmp` (a **total**
/// order — the caller tie-breaks on row index), and the concatenated
/// candidates go through one final serial selection. Because the
/// comparator totally orders rows, the final k are exactly the serial
/// stable-sort prefix at every thread count.
///
/// Returns `None` when `k` is not smaller than a morsel — per-morsel
/// selection could not prune anything, so the pass would be pure
/// dispatch overhead on top of the identical serial selection; the
/// caller falls through to the serial path.
pub(crate) fn parallel_topk_candidates<F>(
    count: usize,
    k: usize,
    threads: usize,
    cmp: &F,
) -> Option<Vec<usize>>
where
    F: Fn(&usize, &usize) -> std::cmp::Ordering + Sync,
{
    let morsel = morsel_size(count, threads);
    if k >= morsel {
        return None;
    }
    let chunks = swan_pool::parallel_morsels(count, morsel, threads, |range| {
        let mut idx: Vec<usize> = range.collect();
        if k < idx.len() {
            idx.select_nth_unstable_by(k - 1, |a, b| cmp(a, b));
            idx.truncate(k);
        }
        idx
    });
    Some(chunks.into_iter().flatten().collect())
}
