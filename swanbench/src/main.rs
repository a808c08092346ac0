//! End-to-end benchmark of the SWAN/HQDL reproduction.
//!
//! ```text
//! cargo run --release --manifest-path swanbench/Cargo.toml -- \
//!     --workload <swan_udf|swan_hqdl|answer_store> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs only through the public APIs of `swan-data`,
//! `swan-llm`, `swan-core` and `swan-sqlengine`. An untraced run
//! (`--trace 0`) prints the end-to-end metrics; a traced run (`--trace 1`)
//! measures the same phase untraced and then traced for half the time
//! each, and prints the per-layer metrics derived from spans the
//! benchmark records around each call into a layer. The last line of
//! standard output is one JSON object; earlier lines starting with `#`
//! carry the host, every metric the run measured, and failed checks.
//! A failed output check exits with code 1.

mod layers;
mod report;
mod store;
mod swan;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{json_str, median, num, peak_rss_mb, percentile, Host, Metrics};
use trace::{self_times, Tracer};

/// Largest allowed gap between the layers' summed self times and the
/// traced wall, in percent.
pub const SELF_TIME_TOLERANCE_PCT: f64 = 1.0;

pub const WORKLOADS: [&str; 3] = ["swan_udf", "swan_hqdl", "answer_store"];

/// Printed by every untraced run, for every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("questions_per_s", "1/s"),
    ("question_p50_ms", "ms"),
    ("question_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("model_calls", "count"),
    ("model_tokens_in", "count"),
    ("model_tokens_out", "count"),
];

/// Printed by every traced run, for every workload; a layer that does no
/// work in a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("data.knowledge_s", "s"),
    ("data.gold_s", "s"),
    ("llm.calls", "count"),
    ("llm.busy_s", "s"),
    ("llm.tokens_in", "count"),
    ("llm.tokens_out", "count"),
    ("llm.prompt_bytes", "bytes"),
    ("hqdl.materialize_s", "s"),
    ("hqdl.self_s", "s"),
    ("hqdl.rows_kept", "count"),
    ("hqdl.malformed_rows", "count"),
    ("hqdl.rows_per_call", "rows/call"),
    ("udf.run_sql_s", "s"),
    ("udf.self_s", "s"),
    ("udf.prefetched_keys", "count"),
    ("udf.cache_hits", "count"),
    ("udf.exec_cache_hits", "count"),
    ("udf.fallback_calls", "count"),
    ("udf.degraded", "count"),
    ("udf.keys_per_call", "keys/call"),
    ("sqlengine.parse_s", "s"),
    ("sqlengine.exec_s", "s"),
    ("sqlengine.self_s", "s"),
    ("sqlengine.rows_out", "count"),
    ("sqlengine.slowest_ms", "ms"),
    ("shared.stmt_s", "s"),
    ("shared.commit_s", "s"),
    ("shared.self_s", "s"),
    ("shared.commits", "count"),
    ("shared.log_appends", "count"),
    ("shared.commits_per_append", "commits/append"),
    ("txn.aborts", "count"),
    ("txn.history_entries_max", "count"),
    ("vfs.wal_bytes", "bytes"),
    ("vfs.page_bytes", "bytes"),
    ("vfs.meta_bytes", "bytes"),
    ("vfs.writes", "count"),
    ("vfs.fsyncs", "count"),
    ("vfs.fsync_s", "s"),
    ("vfs.write_s", "s"),
    ("vfs.self_s", "s"),
    ("vfs.reads", "count"),
    ("pager.checkpoints", "count"),
    ("pager.checkpoint_commit_ms", "ms"),
    ("bufpool.hits", "count"),
    ("bufpool.misses", "count"),
    ("bufpool.hit_ratio", "ratio"),
    ("bufpool.evictions", "count"),
    ("bufpool.dirty_evictions", "count"),
    ("llm.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.self_err_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("ex_pct", "%"),
    ("materialize_s", "s"),
    ("f1_pct", "%"),
    ("commits_per_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("write_amp", "bytes/byte"),
    ("error_rate", "ratio"),
];

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Data scale override (the self-test runs tiny scales).
    pub scale: Option<f64>,
    /// Scratch space for the durable store, inside the source tree.
    pub tmp_dir: PathBuf,
    /// Where result files and span dumps go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Seconds each measured phase runs: a traced run measures the same
    /// phase untraced and traced, half the time each.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What one measured phase observed.
#[derive(Default)]
pub struct Phase {
    pub wall_s: f64,
    /// Every question's latency, in the order asked.
    pub question_s: Vec<f64>,
    /// Latencies by question. Where each question is asked once per pass,
    /// the percentiles are taken over per-question medians: the latency
    /// distribution has gaps between question classes, and a raw-sample
    /// percentile that falls in a gap jumps with run-to-run noise.
    pub by_question: BTreeMap<String, Vec<f64>>,
    pub median_per_question: bool,
    pub failed: Vec<String>,
    pub commits: u64,
    /// Commits attempted, including aborted and failed ones.
    pub attempted_commits: u64,
    pub passes: u64,
    /// Seconds per unit of work (a pass, or a reader question), to compare
    /// the traced phase with the untraced one.
    pub unit_s: Vec<f64>,
    /// Questions per second of each pass, or of each tenth of a single
    /// timed phase; `questions_per_s` is their median, which a short
    /// burst of load from other tenants of the host does not move.
    pub rate_samples: Vec<f64>,
    /// Peak RSS of each pass (of the whole phase for `answer_store`), MiB;
    /// the mark is reset before each.
    pub peak_rss_mb: Vec<f64>,
    pub metrics: Metrics,
    /// Failed output checks.
    pub checks: Vec<String>,
    pub slowest: Option<(String, f64)>,
    /// Lines for the run's `#` output.
    pub notes: Vec<String>,
}

impl Phase {
    pub fn question(&mut self, id: &str, secs: f64) {
        self.question_s.push(secs);
        self.by_question
            .entry(id.to_string())
            .or_default()
            .push(secs);
        if self.slowest.as_ref().is_none_or(|(_, s)| secs > *s) {
            self.slowest = Some((id.to_string(), secs));
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed.push(what);
    }

    /// The samples the latency percentiles are taken over.
    pub fn latency_samples(&self) -> Vec<f64> {
        if self.median_per_question {
            self.by_question.values().map(|v| median(v)).collect()
        } else {
            self.question_s.clone()
        }
    }
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<String>,
    pub notes: Vec<String>,
    /// Each question's median latency in the untraced phase, in ms.
    pub question_ms: BTreeMap<String, f64>,
    /// Peak RSS over the set-ups, MiB.
    pub setup_peak_rss_mb: f64,
}

impl Outcome {
    /// Set-up time, and its split when the set-up was traced.
    pub fn new(setup_times: &[f64], setup_tracer: &Tracer) -> Self {
        let mut out = Outcome {
            setup_peak_rss_mb: peak_rss_mb(),
            ..Outcome::default()
        };
        out.metrics.put("setup_s", median(setup_times), "s");
        let t = self_times(&setup_tracer.spans());
        let n = setup_times.len() as f64;
        out.metrics
            .put("data.generate_s", t.total("data.generate") / n, "s");
        out.metrics
            .put("data.knowledge_s", t.total("data.knowledge") / n, "s");
        out.metrics
            .put("data.gold_s", t.total("data.gold") / n, "s");
        out
    }

    /// Per-layer metrics of the traced phase, and the tracing overhead
    /// against the untraced phase of the same run.
    pub fn traced(&mut self, untraced: &Phase, traced: &Phase, tracer: &Tracer, cfg: &RunConfig) {
        let per = traced.passes.max(1) as f64;
        for (name, v, unit) in traced.metrics.iter() {
            if name.contains('.') {
                self.metrics.put(name, *v, unit);
            }
        }
        let t = self_times(&tracer.spans());
        let m = &mut self.metrics;
        for layer in ["bench", "llm", "hqdl", "udf", "sqlengine", "shared", "vfs"] {
            m.put(&format!("{layer}.self_s"), t.layer(layer) / per, "s");
        }
        let err_pct = 100.0 * swan::ratio((t.self_sum() - t.wall).abs(), t.wall);
        m.put("trace.wall_s", t.wall / per, "s");
        m.put("trace.self_err_pct", err_pct, "%");
        m.put("llm.calls", t.count("llm.complete") as f64 / per, "count");
        m.put("llm.busy_s", t.total("llm.complete") / per, "s");
        m.put("hqdl.materialize_s", t.total("hqdl.materialize") / per, "s");
        m.put("udf.run_sql_s", t.total("udf.run_sql") / per, "s");
        m.put("sqlengine.parse_s", t.total("sqlengine.parse") / per, "s");
        m.put("sqlengine.exec_s", t.total("sqlengine.exec") / per, "s");
        m.put("shared.stmt_s", t.total("shared.stmt") / per, "s");
        m.put("shared.commit_s", t.total("shared.commit") / per, "s");
        let overhead = 100.0 * (median(&traced.unit_s) / median(&untraced.unit_s) - 1.0);
        m.put("trace.overhead_pct", overhead, "%");
        if let Some((id, secs)) = &traced.slowest {
            m.put("sqlengine.slowest_ms", 1e3 * secs, "ms");
            self.notes
                .push(format!("slowest question: {id} ({:.3} ms)", 1e3 * secs));
        }
        if err_pct > SELF_TIME_TOLERANCE_PCT {
            self.checks.push(format!(
                "layer self times miss the traced wall by {err_pct:.3}% (tolerance {SELF_TIME_TOLERANCE_PCT}%)"
            ));
        }
        let dump = cfg
            .out_dir
            .join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
        match tracer.write_jsonl(&dump) {
            Ok(()) => self
                .notes
                .push(format!("spans written to {}", dump.display())),
            Err(e) => self.notes.push(format!("could not write spans: {e}")),
        }
        self.absorb_failures(traced);
    }

    /// End-to-end metrics of the untraced phase.
    pub fn finish(&mut self, p: Phase) {
        let rate = if p.rate_samples.is_empty() {
            p.question_s.len() as f64 / p.wall_s
        } else {
            median(&p.rate_samples)
        };
        self.metrics.put("questions_per_s", rate, "1/s");
        self.question_ms = p
            .by_question
            .iter()
            .map(|(q, v)| (q.clone(), 1e3 * median(v)))
            .collect();
        let m = &mut self.metrics;
        let samples = p.latency_samples();
        m.put("question_p50_ms", 1e3 * percentile(&samples, 50.0), "ms");
        m.put("question_p90_ms", 1e3 * percentile(&samples, 90.0), "ms");
        // The larger of the set-ups' peak and the first pass's peak: each
        // later pass adds allocator fragmentation that differs from run
        // to run.
        let phase_peak = p.peak_rss_mb.first().copied().unwrap_or_else(peak_rss_mb);
        m.put("peak_rss_mb", self.setup_peak_rss_mb.max(phase_peak), "MiB");
        for (name, v, unit) in p.metrics.iter() {
            if !name.contains('.') {
                m.put(name, *v, unit);
            }
        }
        let attempted = p.question_s.len() as u64 + p.attempted_commits;
        let failed = p.failed.len() as u64 + (p.attempted_commits - p.commits);
        m.put(
            "error_rate",
            swan::ratio(failed as f64, attempted as f64),
            "ratio",
        );
        self.notes.push(format!(
            "{} questions and {} commits in {:.3} s over {} pass(es)",
            p.question_s.len(),
            p.commits,
            p.wall_s,
            p.passes
        ));
        let rates: Vec<String> = p.rate_samples.iter().map(|v| format!("{v:.2}")).collect();
        self.notes
            .push(format!("question rates [{}] 1/s", rates.join(", ")));
        let pass_peaks: Vec<String> = p.peak_rss_mb.iter().map(|v| format!("{v:.1}")).collect();
        self.notes.push(format!(
            "peak RSS: set-up {:.1} MiB, passes [{}] MiB",
            self.setup_peak_rss_mb,
            pass_peaks.join(", ")
        ));
        self.absorb_failures(&p);
    }

    fn absorb_failures(&mut self, p: &Phase) {
        self.attempted += p.question_s.len() as u64 + p.attempted_commits;
        self.failed += p.failed.len() as u64 + (p.attempted_commits - p.commits);
        self.checks.extend(p.checks.iter().cloned());
        self.notes.extend(p.notes.iter().cloned());
        self.notes
            .extend(p.failed.iter().take(10).map(|f| format!("failed: {f}")));
    }
}

fn parse_args() -> Result<RunConfig, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("--seed {value}: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--scale" => {
                let s: f64 = value.parse().map_err(|e| format!("--scale {value}: {e}"))?;
                if !(s > 0.0 && s <= 1.0) {
                    return Err(format!("--scale must be in (0, 1], got {value}"));
                }
                scale = Some(s);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
    let tmp_dir = out_dir.join(format!("tmp-{workload}-{}", std::process::id()));
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        tmp_dir,
        out_dir,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("swanbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.tmp_dir) {
        eprintln!("swanbench: cannot create {}: {e}", cfg.tmp_dir.display());
        return ExitCode::from(2);
    }
    let ticks = report::cpu_ticks();
    let mut host = Host::probe(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap_or(Path::new(".")),
        &cfg.tmp_dir,
    );
    let mut out = match cfg.workload.as_str() {
        "swan_udf" => swan::run_udf(&cfg),
        "swan_hqdl" => swan::run_hqdl(&cfg),
        _ => store::run_store(&cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.tmp_dir);
    host.steal_pct = report::steal_pct(ticks, report::cpu_ticks());
    host.calibration_s.1 = report::calibration_s();

    // A layer that does no work in this workload reports 0.
    if cfg.trace {
        for (name, unit) in PER_LAYER {
            if out.metrics.get(name).is_none() {
                out.metrics.put(name, 0.0, unit);
            }
        }
    }
    let wanted: Vec<&str> = if cfg.trace { PER_LAYER } else { END_TO_END }
        .iter()
        .map(|p| p.0)
        .collect();
    let metrics_json = match out.metrics.json_subset(&wanted) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("swanbench: {e}");
            return ExitCode::from(3);
        }
    };

    println!(
        "# swanbench workload={} seed={} seconds={} trace={} scale={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        cfg.scale.map_or("default".to_string(), |s| s.to_string())
    );
    println!("# host {}", host.json());
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, v, unit) in out.metrics.iter() {
        println!("# metric {name} {} {unit}", num(*v));
    }
    for c in &out.checks {
        println!("# CHECK FAILED: {c}");
    }
    let all: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    let questions: Vec<String> = out
        .question_ms
        .iter()
        .map(|(q, ms)| format!("{}: {}", json_str(q), num(*ms)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"checks_failed\": {}, \"metrics\": {{{}}}, \"question_median_ms\": {{{}}}}}\n",
        json_str(&cfg.workload),
        cfg.seed,
        num(cfg.seconds),
        cfg.trace,
        host.json(),
        out.checks.len(),
        all.join(", "),
        questions.join(", ")
    );
    let record_path = cfg.out_dir.join(format!(
        "result-{}-{}-trace{}.json",
        cfg.workload, cfg.seed, cfg.trace as u8
    ));
    if let Err(e) = std::fs::write(&record_path, record) {
        println!("# could not write {}: {e}", record_path.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.checks.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics_json
    );
    if out.checks.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
