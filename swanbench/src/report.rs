//! Metric collection, summary statistics, host facts and the result line.

use std::path::Path;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.entries.iter()
    }

    /// The metrics named in `names`, as a JSON object. A name the run did
    /// not produce is an error: the printed set must match the definition.
    pub fn json_subset(&self, names: &[&str]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for name in names {
            let (_, v, unit) = self
                .entries
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// A JSON number with all its digits.
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Percentile of unsorted samples (`p` in 0..=100), interpolating
/// linearly between the two nearest order statistics. Per-question
/// latencies are sparse where fast and slow question classes meet; a
/// nearest-rank percentile there jumps by the gap when one question
/// moves, the interpolated one by a fraction of it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(next) => v[lo] + frac * (next - v[lo]),
        None => v[lo],
    }
}

/// Seconds a fixed single-threaded integer loop takes: a yardstick of
/// how fast the host ran while the run was measured.
pub fn calibration_s() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..50_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next [`peak_rss_mb`] covers only what runs in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hand freed heap pages back to the kernel. Called after each discarded
/// set-up, so the peak RSS reflects the live data rather than how the
/// earlier set-ups' garbage happened to spread over allocator arenas.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers, is thread-safe,
        // and only releases memory the allocator already holds as free.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The facts a result is only comparable under.
pub struct Host {
    pub nproc: usize,
    pub engine_threads: usize,
    pub tmp_fs: String,
    pub profile: &'static str,
    pub git_rev: String,
    /// Share of the machine's CPU time stolen by the hypervisor during the
    /// run, in percent (set when the run ends).
    pub steal_pct: f64,
    /// [`calibration_s`] before and after the run.
    pub calibration_s: (f64, f64),
}

/// Machine-wide (steal, total) CPU ticks from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Stolen share of the ticks between two [`cpu_ticks`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

impl Host {
    pub fn probe(repo_root: &Path, tmp_dir: &Path) -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            engine_threads: swan_sqlengine::exec_parallel::effective_threads(
                &swan_sqlengine::OptimizerConfig::default(),
            ),
            tmp_fs: filesystem_of(tmp_dir),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: git_rev(repo_root),
            steal_pct: 0.0,
            calibration_s: (calibration_s(), 0.0),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"engine_threads\": {}, \"tmp_fs\": {}, \"profile\": {}, \"git_rev\": {}, \"steal_pct\": {}, \"calibration_s\": [{}, {}]}}",
            self.nproc,
            self.engine_threads,
            json_str(&self.tmp_fs),
            json_str(self.profile),
            json_str(&self.git_rev),
            num(self.steal_pct),
            num(self.calibration_s.0),
            num(self.calibration_s.1)
        )
    }
}

/// Filesystem type of the longest mount point containing `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(fs)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if dir.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The checked-out commit, read from `.git` without running git; a
/// source tree that is not a git checkout reports `none`.
fn git_rev(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentiles() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 60.5);
        assert!((percentile(&v, 90.0) - 108.1).abs() < 1e-9);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn subset_requires_every_name() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        assert!(m
            .json_subset(&["setup_s"])
            .unwrap()
            .contains("\"unit\": \"s\""));
        assert!(m.json_subset(&["setup_s", "missing"]).is_err());
    }
}
