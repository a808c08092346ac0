//! Hybrid-query UDFs (paper §4.2) — the BlendSQL-style solution.
//!
//! `llm_map('question', key...)` is registered as an *expensive* scalar
//! UDF on the curated database, and every call is batched by one
//! mechanism: the engine's optimizer rule 5 places a `Plan::Batch` node
//! for the expensive calls, and the operator above it hands the distinct
//! argument tuples of its input to [`ScalarUdf::invoke_batch`]. That
//! looks each key up in the answer store, chunks the misses per
//! [`UdfConfig::batch_size`] (BlendSQL's default is 5, §5.4) into
//! [`UdfPrompt`]s and fans them out across [`UdfConfig::workers`]. Keys a
//! short batch response leaves unanswered are re-batched once; only what
//! is still missing then falls back to single-key model calls, which are
//! single-flighted across concurrent rows.
//!
//! Predicate pushdown (§4.2: "pushing down predicates to avoid generating
//! unnecessary data entries") is the optimizer's job too: with
//! `OptimizerConfig::order_expensive_last` on (the default) the batch sits
//! above the cheap conjuncts, so only surviving rows reach the model;
//! turning it off places the batch directly over the base-table scan —
//! the ablation (A4) that generates a value for every row. The
//! answer-store key policy implements the caching spectrum of §4.3/§5.5
//! (see [`CacheScope`]).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use swan_pool::lockrank;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};

use swan_data::DomainData;
use swan_llm::knowledge::normalize_question;
use swan_llm::{parallel, BreakerState, LanguageModel, LlmError, ResilientModel, UdfExample, UdfPrompt};
use swan_sqlengine::{Database, Error, QueryResult, Result, ScalarUdf, Value};

use crate::hqdl::infer_value;

/// How the answer store keys cached LLM results across questions (§5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheScope {
    /// No reuse at all: the store is cleared before every question.
    PerQuestion,
    /// BlendSQL's behaviour: reuse only when the prompt's question text
    /// is (modulo whitespace/case) identical. Paraphrases miss.
    ExactPrompt,
    /// §4.3's query-rewriting idea: resolve the question to a canonical
    /// attribute first, so paraphrases share entries.
    Semantic,
}

/// What a failed (post-retry) model call degrades to, instead of failing
/// the whole statement. A statement-deadline failure
/// ([`LlmError::Deadline`]) is **never** degraded — the statement aborts
/// with [`Error::Deadline`] under every policy, because the deadline
/// belongs to the statement, not the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnModelFailure {
    /// Surface the model error; the statement fails (the default).
    #[default]
    Fail,
    /// The row's answer becomes NULL. Never cached: a later statement
    /// retries the key.
    Null,
    /// Serve the last known-good answer for this key — surviving even
    /// [`CacheScope::PerQuestion`] store clears — falling back to NULL
    /// when the key has never been answered. Never re-cached either.
    StaleCache,
}

/// UDF-solution configuration.
#[derive(Debug, Clone, Copy)]
pub struct UdfConfig {
    /// Few-shot demonstrations in each prompt (0 or 5 in Table 3).
    pub shots: usize,
    /// Keys per batched prompt (BlendSQL default: 5).
    pub batch_size: usize,
    /// Cross-question caching policy (ablation A2).
    pub cache: CacheScope,
    /// Parallel LLM workers each batch's prompts fan out across.
    pub workers: usize,
    /// Degradation policy for model calls that still fail after the
    /// resilience layer's retries.
    pub on_model_failure: OnModelFailure,
}

impl Default for UdfConfig {
    fn default() -> Self {
        UdfConfig {
            shots: 0,
            batch_size: 5,
            cache: CacheScope::ExactPrompt,
            workers: 1,
            on_model_failure: OnModelFailure::Fail,
        }
    }
}

/// Execution statistics for cost analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct UdfStats {
    /// Keys answered through batched model calls (the engine's
    /// vectorized `invoke_batch` execution).
    pub prefetched_keys: u64,
    /// Keys already present in the answer store when `invoke_batch`
    /// assembled a batch.
    pub cache_hits: u64,
    /// Per-row answer-store hits: rows served from previously fetched
    /// answers at `invoke`/`fetch_single` time, including reuse across
    /// concurrent rows coalesced by the single-flight fallback.
    pub exec_cache_hits: u64,
    /// Per-row fallback model calls during execution (attempts, whether
    /// or not the model answered).
    pub fallback_calls: u64,
    /// Failed model calls absorbed by [`UdfConfig::on_model_failure`]
    /// (degraded to NULL or a stale answer) instead of failing the
    /// statement.
    pub degraded: u64,
    /// The resilience layer's per-endpoint circuit-breaker state, when
    /// the runner was built with [`UdfRunner::with_resilient`].
    pub breaker: Option<BreakerState>,
}

/// Domain metadata the runner needs (question → attribute, value lists,
/// few-shot pools). This is the hybrid system's own metadata, provided by
/// the benchmark (§3.5), not the model's knowledge.
struct DomainMeta {
    db: String,
    question_attr: HashMap<String, String>,
    value_lists: HashMap<String, Vec<String>>,
    examples: HashMap<String, Vec<UdfExample>>,
}

impl DomainMeta {
    fn build(domain: &DomainData, max_examples: usize) -> Self {
        let mut question_attr = HashMap::new();
        for p in &domain.phrases {
            question_attr.insert(normalize_question(&p.text), p.attribute.clone());
        }
        let mut value_lists = HashMap::new();
        for e in &domain.curation.expansions {
            for g in &e.generated {
                if let Some(vs) = &g.value_list {
                    value_lists.insert(g.name.clone(), vs.clone());
                }
            }
        }
        let mut examples: HashMap<String, Vec<UdfExample>> = HashMap::new();
        for f in &domain.facts {
            let pool = examples.entry(f.attribute.clone()).or_default();
            if pool.len() < max_examples {
                pool.push(UdfExample { key: f.key.clone(), answer: f.value.condensed() });
            }
        }
        DomainMeta {
            db: domain.name.clone(),
            question_attr,
            value_lists,
            examples,
        }
    }

    fn attribute_of(&self, question: &str) -> Option<&String> {
        self.question_attr.get(&normalize_question(question))
    }
}

/// An answer-store key under the configured [`CacheScope`].
type CacheKey = (String, Vec<String>);

/// One in-flight model fetch for a cache key. The leader (the thread that
/// created the flight) publishes its outcome here; waiters receive it
/// directly — a leader's *error* is delivered to every waiter instead of
/// leaving them to retry as surprise leaders (or hang). The flight is
/// removed from the map once resolved, so *later* calls for the same key
/// start a fresh flight and may retry.
#[derive(Default)]
struct Flight {
    /// `None` while the fetch is in flight. `Ok(Some(v))` = answered;
    /// `Ok(None)` = the flight ended without answering this key (a short
    /// batch response) — the waiter retries with its own flight;
    /// `Err(e)` = the leader's failure, propagated to every waiter.
    outcome: StdMutex<Option<Result<Option<Value>>>>,
    done: Condvar,
}

impl Flight {
    /// Publish the leader's outcome and wake every waiter.
    fn resolve(&self, outcome: Result<Option<Value>>) {
        *self.outcome.lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
        self.done.notify_all();
    }

    /// Wait for the leader's outcome, honoring the calling statement's
    /// cancel token: a waiter whose deadline fires while parked returns
    /// [`Error::Deadline`] instead of staying parked behind a slow flight.
    fn wait(&self) -> Result<Option<Value>> {
        let token = swan_pool::cancel::current();
        let mut outcome = self.outcome.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(r) = outcome.as_ref() {
                return r.clone();
            }
            if let Some(t) = &token {
                if let Err(reason) = t.check() {
                    return Err(Error::from(reason));
                }
            }
            let wait = self
                .done
                .wait_timeout(outcome, Duration::from_millis(10))
                .unwrap_or_else(|p| p.into_inner());
            outcome = wait.0;
        }
    }
}

/// Shared state between the runner and the registered `llm_map` UDF.
struct Shared {
    meta: DomainMeta,
    model: Arc<dyn LanguageModel>,
    /// The resilience wrapper's handle when the runner was built with
    /// [`UdfRunner::with_resilient`] — exposes breaker state in stats.
    resilient: Option<Arc<ResilientModel>>,
    config: UdfConfig,
    answers: Mutex<HashMap<CacheKey, Value>>,
    /// Last known-good answer per key, written on every successful model
    /// answer and **surviving** [`CacheScope::PerQuestion`] store clears:
    /// the [`OnModelFailure::StaleCache`] degradation source.
    stale: Mutex<HashMap<CacheKey, Value>>,
    prefetched_keys: AtomicU64,
    cache_hits: AtomicU64,
    fallback_calls: AtomicU64,
    exec_hits: AtomicU64,
    degraded: AtomicU64,
    /// Cache keys currently being fetched, mapped to their [`Flight`].
    /// Concurrent rows asking for the same key wait on the flight instead
    /// of issuing duplicate model calls (single-flight). Lock ordering
    /// (lockdep ranks `udf_flight` < `udf_answers`): `in_flight` may take
    /// `answers` briefly, never the reverse.
    in_flight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

impl Shared {
    /// Store key under the configured cache scope.
    fn cache_key(&self, question: &str, key: &[String]) -> (String, Vec<String>) {
        let part = match self.config.cache {
            CacheScope::Semantic => self
                .meta
                .attribute_of(question)
                .cloned()
                .unwrap_or_else(|| normalize_question(question)),
            // Prompt-text identity (BlendSQL): the "[qNN]" tag marking
            // which question produced the prompt stays in the key, so
            // per-question phrasings never share entries (§5.5).
            _ => question.trim().to_ascii_lowercase(),
        };
        (part, key.to_vec())
    }

    fn prompt_for(&self, question: &str, keys: Vec<Vec<String>>) -> UdfPrompt {
        let attr = self.meta.attribute_of(question);
        let value_list = attr.and_then(|a| self.meta.value_lists.get(a)).cloned();
        let examples = attr
            .and_then(|a| self.meta.examples.get(a))
            .map(|pool| pool.iter().take(self.config.shots).cloned().collect())
            .unwrap_or_default();
        UdfPrompt {
            db: self.meta.db.clone(),
            question: question.to_string(),
            value_list,
            examples,
            keys,
        }
    }

    /// Record a successful answer: the live store *and* the last-known-
    /// good store (degradation source). Only ever called with a value the
    /// model actually produced — failed calls never populate either.
    fn remember(&self, cache_key: &CacheKey, value: &Value) {
        self.answers.lock().insert(cache_key.clone(), value.clone());
        self.stale.lock().insert(cache_key.clone(), value.clone());
    }

    /// Single-key fallback call (cache miss during execution),
    /// single-flighted: concurrent rows asking for the same key wait for
    /// the one in-flight model call instead of each paying their own, and
    /// receive the leader's outcome — error included.
    fn fetch_single(&self, question: &str, key: &[String]) -> Result<Value> {
        let cache_key = self.cache_key(question, key);
        loop {
            if let Some(v) = self.answers.lock().get(&cache_key) {
                self.exec_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v.clone());
            }
            // Join an existing flight, or register ourselves as leader.
            let joined = {
                let mut fl = self.in_flight.lock();
                match fl.get(&cache_key) {
                    Some(f) => Some(f.clone()),
                    None => {
                        // Re-check under the map lock: a completing flight
                        // caches its answer *before* removing itself.
                        if let Some(v) = self.answers.lock().get(&cache_key) {
                            self.exec_hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(v.clone());
                        }
                        fl.insert(cache_key.clone(), Arc::new(Flight::default()));
                        None
                    }
                }
            };
            let Some(flight) = joined else {
                // We lead: perform the call, publish the outcome to any
                // waiters, and retire the flight so later calls retry
                // rather than inherit a stale error.
                let result = self.fetch_uncoalesced(question, key, &cache_key);
                let flight = {
                    let mut fl = self.in_flight.lock();
                    fl.remove(&cache_key)
                };
                if let Some(f) = flight {
                    f.resolve(result.clone().map(Some));
                }
                return result;
            };
            match flight.wait()? {
                Some(v) => {
                    self.exec_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(v);
                }
                // The flight (a batch) ended without this key: retry
                // with a fresh flight of our own.
                None => continue,
            }
        }
    }

    fn fetch_uncoalesced(
        &self,
        question: &str,
        key: &[String],
        cache_key: &CacheKey,
    ) -> Result<Value> {
        let prompt = self.prompt_for(question, vec![key.to_vec()]).render();
        self.fallback_calls.fetch_add(1, Ordering::Relaxed);
        match self.model.complete(&prompt) {
            Ok(completion) => {
                let answer = swan_llm::prompt::parse_udf_response(&completion.text)
                    .into_iter()
                    .next()
                    .unwrap_or_default();
                let value = infer_value(&answer);
                self.remember(cache_key, &value);
                Ok(value)
            }
            Err(e) => self.degrade(cache_key, e),
        }
    }

    /// Apply [`UdfConfig::on_model_failure`] to a model call that still
    /// failed after the resilience layer's retries. A statement-deadline
    /// failure always aborts the statement — degrading it would silently
    /// turn "too slow" into wrong answers.
    fn degrade(&self, cache_key: &CacheKey, e: LlmError) -> Result<Value> {
        if e == LlmError::Deadline {
            return Err(Error::Deadline);
        }
        let fail = || Error::Udf { name: "llm_map".into(), message: e.to_string() };
        match self.config.on_model_failure {
            OnModelFailure::Fail => Err(fail()),
            OnModelFailure::Null => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
                Ok(Value::Null)
            }
            OnModelFailure::StaleCache => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
                Ok(self.stale.lock().get(cache_key).cloned().unwrap_or(Value::Null))
            }
        }
    }

    /// Batched fetch for the engine's vectorized execution path: chunk
    /// the uncached keys of one question per `batch_size` and fan the
    /// prompts out through the parallel worker pool.
    fn fetch_batch(&self, question: &str, needed: &[Vec<String>]) {
        // Reserve the keys in the single-flight map; keys another thread
        // is already fetching (per-row or in its own batch) are dropped
        // from this batch — their rows fall back to `fetch_single`, which
        // waits on that flight instead of paying a duplicate call.
        let mine: Vec<(Vec<String>, CacheKey, Arc<Flight>)> = {
            let mut fl = self.in_flight.lock();
            // Re-check the answer store under the map lock (the same
            // idiom as `fetch_single`): a flight that completed after the
            // caller's miss-scan cached its answers *before* retiring, so
            // a key that is neither in flight nor cached is genuinely
            // ours to fetch — without this, two sessions racing the same
            // batch each pay the full set of model calls.
            let answers = self.answers.lock();
            needed
                .iter()
                .filter_map(|key| {
                    let ck = self.cache_key(question, key);
                    if fl.contains_key(&ck) || answers.contains_key(&ck) {
                        return None;
                    }
                    let f = Arc::new(Flight::default());
                    fl.insert(ck.clone(), f.clone());
                    Some((key.clone(), ck, f))
                })
                .collect()
        };
        if mine.is_empty() {
            return;
        }
        let batch = self.config.batch_size.max(1);
        let keys_only: Vec<Vec<String>> = mine.iter().map(|(k, _, _)| k.clone()).collect();
        let chunks: Vec<Vec<Vec<String>>> =
            keys_only.chunks(batch).map(|c| c.to_vec()).collect();
        let prompts: Vec<String> = chunks
            .iter()
            .map(|keys| self.prompt_for(question, keys.clone()).render())
            .collect();
        let completions =
            parallel::complete_many(self.model.as_ref(), &prompts, self.config.workers);

        {
            let mut answers = self.answers.lock();
            let mut stale = self.stale.lock();
            for (keys, completion) in chunks.iter().zip(completions) {
                // Failed chunks cache nothing; their rows retry (and
                // degrade if configured) through `fetch_single`.
                let Ok(completion) = completion else { continue };
                let lines = swan_llm::prompt::parse_udf_response(&completion.text);
                // Short responses leave trailing keys unanswered; the
                // caller re-batches those once, then falls back to
                // single-key calls.
                for (key, line) in keys.iter().zip(lines) {
                    let ck = self.cache_key(question, key);
                    let value = infer_value(&line);
                    answers.insert(ck.clone(), value.clone());
                    stale.insert(ck, value);
                    self.prefetched_keys.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Retire the flights, delivering each key's answer (or `None` for
        // keys a failed/short chunk left unanswered — waiters retry).
        let mut fl = self.in_flight.lock();
        let answers = self.answers.lock();
        for (_, ck, flight) in &mine {
            fl.remove(ck);
            flight.resolve(Ok(answers.get(ck).cloned()));
        }
    }
}

/// The `llm_map` scalar function.
struct LlmMapUdf {
    shared: Arc<Shared>,
}

impl ScalarUdf for LlmMapUdf {
    fn name(&self) -> &str {
        "llm_map"
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let Some((question, key)) = parse_args(args)? else {
            return Ok(Value::Null); // NULL keys have no LLM answer.
        };
        let cache_key = self.shared.cache_key(&question, &key);
        if let Some(v) = self.shared.answers.lock().get(&cache_key) {
            self.shared.exec_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v.clone());
        }
        self.shared.fetch_single(&question, &key)
    }

    /// Vectorized execution: called by the engine once per operator batch
    /// with the distinct argument tuples of a call site. Keys already in
    /// the answer store count as cache hits; the misses are grouped by
    /// question and sent through one batched fetch, the keys a short
    /// batch response leaves unanswered through one more, and only what
    /// is still missing falls back to single-key calls.
    fn invoke_batch(&self, rows: &[Vec<Value>]) -> Result<Vec<Value>> {
        let shared = &self.shared;
        let mut out: Vec<Option<Value>> = vec![None; rows.len()];
        // (row index, key) for rows the answer store misses, grouped by
        // question in first-seen order.
        let mut questions: Vec<String> = Vec::new();
        let mut pending: HashMap<String, Vec<(usize, Vec<String>)>> = HashMap::new();
        for (i, args) in rows.iter().enumerate() {
            let Some((question, key)) = parse_args(args)? else {
                out[i] = Some(Value::Null);
                continue;
            };
            if let Some(v) = shared.answers.lock().get(&shared.cache_key(&question, &key)) {
                shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                out[i] = Some(v.clone());
                continue;
            }
            if !pending.contains_key(&question) {
                questions.push(question.clone());
            }
            pending.entry(question).or_default().push((i, key));
        }

        for question in &questions {
            let mut seen = HashSet::new();
            let needed: Vec<Vec<String>> = pending[question]
                .iter()
                .filter(|(_, k)| seen.insert(k.clone()))
                .map(|(_, k)| k.clone())
                .collect();
            shared.fetch_batch(question, &needed);
            let leftover: Vec<Vec<String>> = {
                let answers = shared.answers.lock();
                needed
                    .into_iter()
                    .filter(|k| !answers.contains_key(&shared.cache_key(question, k)))
                    .collect()
            };
            shared.fetch_batch(question, &leftover);
        }

        for (question, entries) in questions.iter().map(|q| (q, &pending[q])) {
            for (i, key) in entries {
                let hit = shared
                    .answers
                    .lock()
                    .get(&shared.cache_key(question, key))
                    .cloned();
                out[*i] = Some(match hit {
                    Some(v) => v,
                    None => shared.fetch_single(question, key)?,
                });
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every batch slot filled"))
            .collect())
    }

    fn is_expensive(&self) -> bool {
        true
    }
}

/// Validate an `llm_map` argument tuple: `Ok(None)` marks a NULL key
/// (whose answer is NULL without any model call).
fn parse_args(args: &[Value]) -> Result<Option<(String, Vec<String>)>> {
    if args.len() < 2 {
        return Err(Error::Udf {
            name: "llm_map".into(),
            message: "usage: llm_map(question, key, ...)".into(),
        });
    }
    let question = args[0]
        .as_str()
        .ok_or_else(|| Error::Udf {
            name: "llm_map".into(),
            message: "first argument must be the question text".into(),
        })?
        .to_string();
    if args[1..].iter().any(Value::is_null) {
        return Ok(None);
    }
    let key: Vec<String> = args[1..].iter().map(Value::render).collect();
    Ok(Some((question, key)))
}

/// Runs the benchmark's UDF-form hybrid queries over one domain.
pub struct UdfRunner {
    db: Database,
    shared: Arc<Shared>,
}

impl UdfRunner {
    pub fn new(domain: &DomainData, model: Arc<dyn LanguageModel>, config: UdfConfig) -> Self {
        Self::build(domain, model, None, config)
    }

    /// Build a runner whose model calls go through a [`ResilientModel`]
    /// (retries, per-call timeouts, circuit breaker). The breaker's state
    /// shows up in [`UdfRunner::stats`].
    pub fn with_resilient(
        domain: &DomainData,
        model: Arc<ResilientModel>,
        config: UdfConfig,
    ) -> Self {
        Self::build(domain, model.clone(), Some(model), config)
    }

    fn build(
        domain: &DomainData,
        model: Arc<dyn LanguageModel>,
        resilient: Option<Arc<ResilientModel>>,
        config: UdfConfig,
    ) -> Self {
        let shared = Arc::new(Shared {
            meta: DomainMeta::build(domain, config.shots.max(5)),
            model,
            resilient,
            config,
            answers: Mutex::with_rank("udf_answers", lockrank::UDF_ANSWERS, HashMap::new()),
            stale: Mutex::with_rank("udf_stale", lockrank::UDF_STALE, HashMap::new()),
            prefetched_keys: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            fallback_calls: AtomicU64::new(0),
            exec_hits: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            in_flight: Mutex::with_rank("udf_flight", lockrank::UDF_FLIGHT, HashMap::new()),
        });
        let mut db = domain.curated.clone();
        db.register_udf(Arc::new(LlmMapUdf { shared: shared.clone() }));
        UdfRunner { db, shared }
    }

    /// Execute one UDF-form hybrid query (or any other statement, which
    /// is useful in the interactive shell). The whole statement, model
    /// calls included, runs under the database's statement deadline.
    pub fn run_sql(&mut self, udf_sql: &str) -> Result<QueryResult> {
        if self.shared.config.cache == CacheScope::PerQuestion {
            self.shared.answers.lock().clear();
        }
        self.db.execute(udf_sql)
    }

    /// The curated database this runner queries (with `llm_map` registered).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access (e.g. to overlay HQDL-materialized tables).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> UdfStats {
        let shared = &self.shared;
        UdfStats {
            prefetched_keys: shared.prefetched_keys.load(Ordering::Relaxed),
            cache_hits: shared.cache_hits.load(Ordering::Relaxed),
            exec_cache_hits: shared.exec_hits.load(Ordering::Relaxed),
            fallback_calls: shared.fallback_calls.load(Ordering::Relaxed),
            degraded: shared.degraded.load(Ordering::Relaxed),
            breaker: shared.resilient.as_ref().map(|r| r.breaker_state()),
        }
    }

    /// Number of distinct cached answers.
    pub fn cached_answers(&self) -> usize {
        self.shared.answers.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan_data::{GenConfig, SwanBenchmark};
    use swan_llm::{ModelKind, SimulatedModel};

    fn runner(scale: f64, config: UdfConfig) -> (swan_data::DomainData, UdfRunner) {
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(scale), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let r = UdfRunner::new(&d, model, config);
        (d, r)
    }

    #[test]
    fn runs_a_simple_udf_question() {
        let (d, mut r) = runner(0.05, UdfConfig::default());
        let q = &d.questions[0]; // publisher membership
        let result = r.run_sql(&q.udf_sql).expect("udf query runs");
        assert!(!result.columns.is_empty());
        let stats = r.stats();
        assert!(stats.prefetched_keys > 0, "keys were fetched in batches");
    }

    #[test]
    fn batching_reduces_model_calls() {
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let heroes = d.curated.catalog().get("superhero").unwrap().len() as u64;

        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb.clone()));
        let mut r = UdfRunner::new(
            &d,
            model.clone(),
            UdfConfig { batch_size: 5, ..Default::default() },
        );
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        let batched_calls = model.usage().calls;
        assert!(batched_calls >= heroes / 5, "at least ceil(n/5) calls");
        assert!(
            batched_calls < heroes,
            "batching must reduce calls: {batched_calls} vs {heroes} heroes"
        );
    }

    #[test]
    fn exact_cache_reuses_identical_prompts_only() {
        let (d, mut r) = runner(0.05, UdfConfig::default());
        // Re-running the same question hits the cache for every hero...
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        let after_first = r.stats();
        assert_eq!(after_first.cache_hits, 0);
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        let after_rerun = r.stats();
        assert!(after_rerun.cache_hits > 0, "identical prompt text reuses");
        // ...but a different question about the same attribute (different
        // "[qNN]" tag, i.e. different prompt text) misses entirely —
        // BlendSQL's weakness from paper §5.5.
        let hits_before_q2 = after_rerun.cache_hits;
        r.run_sql(&d.questions[1].udf_sql).unwrap();
        assert_eq!(
            r.stats().cache_hits,
            hits_before_q2,
            "per-question prompts cannot share cache entries"
        );
    }

    #[test]
    fn per_question_scope_never_reuses() {
        let (d, mut r) = runner(
            0.05,
            UdfConfig { cache: CacheScope::PerQuestion, ..Default::default() },
        );
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        r.run_sql(&d.questions[1].udf_sql).unwrap();
        assert_eq!(r.stats().cache_hits, 0);
    }

    #[test]
    fn pushdown_restricts_point_lookups() {
        // Formula 1 q01 is a point lookup (WHERE forename/surname =
        // constants): with pushdown only 1 key is fetched.
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "formula_1").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));

        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb.clone()));
        let mut with = UdfRunner::new(&d, model, UdfConfig::default());
        with.run_sql(&d.questions[0].udf_sql).unwrap();
        assert_eq!(with.stats().prefetched_keys, 1, "pushdown narrows to one driver");

        // Pushdown off: the optimizer batches the call over the whole scan.
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let mut without = UdfRunner::new(&d, model, UdfConfig::default());
        without.database_mut().set_optimizer(swan_sqlengine::OptimizerConfig {
            order_expensive_last: false,
            ..Default::default()
        });
        without.run_sql(&d.questions[0].udf_sql).unwrap();
        let drivers = d.curated.catalog().get("drivers").unwrap().len() as u64;
        assert_eq!(
            without.stats().prefetched_keys,
            drivers,
            "without pushdown every driver is generated (§5.5)"
        );
    }

    #[test]
    fn semantic_scope_shares_paraphrases() {
        // Two football questions use different height phrasings; the
        // semantic scope resolves both to `height`.
        let d =
            SwanBenchmark::generate_domain(&GenConfig::with_scale(0.02), "european_football").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let mut r = UdfRunner::new(
            &d,
            model,
            UdfConfig { cache: CacheScope::Semantic, ..Default::default() },
        );
        let players = d.curated.catalog().get("player").unwrap().len() as u64;
        // q01 asks MAX height with one phrasing.
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        assert_eq!(r.stats().prefetched_keys, players);
        // A paraphrased sweep over the same attribute: all hits.
        let paraphrase = "SELECT T1.player_name FROM player T1 \
             WHERE llm_map('How tall is the player in centimeters?', T1.player_name) > 180";
        r.run_sql(paraphrase).unwrap();
        assert_eq!(r.stats().cache_hits, players, "paraphrase fully reused");
    }

    #[test]
    fn unprefetchable_key_is_batched_not_single_fetched() {
        let (_, mut r) = runner(0.05, UdfConfig::default());
        // llm_map over a literal key (no table at all): the engine's
        // vectorized execution still answers it through one batched call
        // — no per-row fallback.
        let out = r
            .run_sql(
                "SELECT llm_map('Which publisher published the superhero?', 'Nobody', 'No One')",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        let stats = r.stats();
        assert_eq!(stats.fallback_calls, 0, "batched execution, not fetch_single");
        assert_eq!(stats.prefetched_keys, 1, "the one key came through a batch");
    }

    #[test]
    fn fallback_single_call_when_engine_batching_disabled() {
        let (_, mut r) = runner(0.05, UdfConfig::default());
        r.database_mut().set_optimizer(swan_sqlengine::OptimizerConfig {
            batch_expensive_udfs: false,
            ..Default::default()
        });
        // With the engine rule ablated, the old per-row fallback remains.
        let out = r
            .run_sql(
                "SELECT llm_map('Which publisher published the superhero?', 'Nobody', 'No One')",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(r.stats().fallback_calls, 1);
    }

    /// Acceptance: `llm_map` in a JOIN ON over a subquery source issues
    /// ceil(distinct_keys / batch_size) model calls — the engine's
    /// vectorized execution batches the join key, not one call per row.
    #[test]
    fn join_on_over_subquery_source_is_batched() {
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let mut r = UdfRunner::new(&d, model.clone(), UdfConfig::default());
        let heroes = d.curated.catalog().get("superhero").unwrap().len() as u64;

        r.run_sql(
            "SELECT COUNT(*) FROM (SELECT superhero_name, full_name FROM superhero) h \
             JOIN alignment a \
             ON llm_map('What is the moral alignment of the superhero?', \
                        h.superhero_name, h.full_name) = a.alignment",
        )
        .unwrap();
        let calls = model.usage().calls;
        assert_eq!(
            calls,
            heroes.div_ceil(5),
            "one batched call per 5 distinct keys, not one per row"
        );
        assert_eq!(r.stats().fallback_calls, 0);
    }

    /// Per-row answer-store hits (`invoke`) are counted as
    /// `exec_cache_hits`, separately from the batch-time `cache_hits`.
    #[test]
    fn execution_cache_hits_are_counted() {
        let (d, mut r) = runner(0.05, UdfConfig::default());
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        assert_eq!(r.stats().cache_hits, 0, "the first run finds an empty store");
        // Rerun per row (engine batching off): every row reads the stored
        // answer through `invoke`.
        r.database_mut().set_optimizer(swan_sqlengine::OptimizerConfig {
            batch_expensive_udfs: false,
            ..Default::default()
        });
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        let stats = r.stats();
        assert!(stats.exec_cache_hits > 0, "per-row execution reads the store");
        assert_eq!(stats.cache_hits, 0, "batch-time hits stay separate");
        assert_eq!(stats.fallback_calls, 0, "every row was answered already");
    }

    /// A batch response that stops short leaves its trailing key
    /// unanswered; those keys go through one more batched call rather
    /// than one model call each.
    #[test]
    fn short_batch_responses_are_rebatched_once() {
        use swan_llm::UsageMeter;

        /// Drops the last answer line of every multi-key prompt — once
        /// per key, so a key that was dropped before is answered on the
        /// next try (a batch glitch, §5.4, not a permanent refusal).
        struct ShortModel {
            inner: Arc<SimulatedModel>,
            dropped: Mutex<HashSet<Vec<String>>>,
        }
        impl swan_llm::LanguageModel for ShortModel {
            fn name(&self) -> &str {
                "short-sim"
            }
            fn complete(&self, prompt: &str) -> swan_llm::LlmResult<swan_llm::Completion> {
                let mut c = self.inner.complete(prompt)?;
                let keys = UdfPrompt::parse(prompt)?.keys;
                if keys.len() > 1 && self.dropped.lock().insert(keys[keys.len() - 1].clone()) {
                    let mut lines: Vec<&str> = c.text.lines().collect();
                    lines.pop();
                    c.text = lines.join("\n");
                }
                Ok(c)
            }
            fn usage_meter(&self) -> &UsageMeter {
                self.inner.usage_meter()
            }
        }

        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let inner = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let model = Arc::new(ShortModel { inner: inner.clone(), dropped: Mutex::new(HashSet::new()) });
        let mut r = UdfRunner::new(&d, model, UdfConfig::default());
        let heroes = d.curated.catalog().get("superhero").unwrap().len() as u64;
        r.run_sql(
            "SELECT COUNT(*) FROM (SELECT superhero_name, full_name FROM superhero) h \
             JOIN alignment a \
             ON llm_map('What is the moral alignment of the superhero?', \
                        h.superhero_name, h.full_name) = a.alignment",
        )
        .unwrap();
        // The first round's multi-key chunks each leave one key behind.
        let first = heroes.div_ceil(5);
        let short = heroes / 5 + u64::from(heroes % 5 > 1);
        let stats = r.stats();
        assert_eq!(stats.fallback_calls, 0, "no single-key calls");
        assert_eq!(inner.usage().calls, first + short.div_ceil(5));
        assert_eq!(stats.prefetched_keys, heroes);
    }

    /// Concurrent rows asking for the same uncached key must coalesce into
    /// one model call (single-flight), not one call each.
    #[test]
    fn concurrent_same_key_fallbacks_single_flight() {
        use swan_llm::UsageMeter;

        /// Adds latency so concurrent fallbacks genuinely overlap.
        struct SlowModel {
            inner: Arc<SimulatedModel>,
        }
        impl swan_llm::LanguageModel for SlowModel {
            fn name(&self) -> &str {
                "slow-sim"
            }
            fn complete(&self, prompt: &str) -> swan_llm::LlmResult<swan_llm::Completion> {
                std::thread::sleep(std::time::Duration::from_millis(30));
                self.inner.complete(prompt)
            }
            fn usage_meter(&self) -> &UsageMeter {
                self.inner.usage_meter()
            }
        }

        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let inner = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let mut r = UdfRunner::new(&d, Arc::new(SlowModel { inner: inner.clone() }), UdfConfig::default());
        // Per-row path (engine batching off) so every row goes through
        // `fetch_single`.
        r.database_mut().set_optimizer(swan_sqlengine::OptimizerConfig {
            batch_expensive_udfs: false,
            ..Default::default()
        });
        let db = r.database();
        let sql = "SELECT llm_map('Which publisher published the superhero?', 'Solo', 'Key')";
        let results: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| db.query(sql).unwrap().rows[0][0].render()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]), "one answer for all rows");
        assert_eq!(inner.usage().calls, 1, "concurrent identical keys coalesced");
        assert_eq!(r.stats().fallback_calls, 1);
        assert_eq!(r.stats().exec_cache_hits, 3, "the three waiters hit the store");
    }

    #[test]
    fn null_keys_yield_null() {
        let (_, mut r) = runner(0.05, UdfConfig::default());
        let out = r
            .run_sql("SELECT llm_map('Which publisher published the superhero?', NULL, 'x')")
            .unwrap();
        assert!(out.rows[0][0].is_null());
        assert_eq!(r.stats().fallback_calls, 0, "no model call for NULL keys");
    }
}
