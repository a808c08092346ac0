//! Wrappers that implement the libraries' public seams in benchmark code:
//! a [`LanguageModel`] around the simulated model and a [`Vfs`] around
//! the real filesystem. Both count their traffic on every run and record
//! spans only when the tracer is on.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use swan_llm::{Completion, LanguageModel, LlmResult, SimulatedModel, UsageMeter};
use swan_sqlengine::{RealFs, Result as SqlResult, Vfs, VfsFile};

use crate::trace::{SpanCtx, Tracer};

/// The simulated model behind a counting, tracing wrapper.
pub struct TracedModel {
    inner: SimulatedModel,
    tracer: Arc<Tracer>,
    /// Parent for calls made on pool threads, which cannot see the
    /// caller's open spans: the enclosing `materialize` or `run_sql`.
    pool_parent: Mutex<Option<SpanCtx>>,
    prompt_bytes: AtomicU64,
}

impl TracedModel {
    pub fn new(inner: SimulatedModel, tracer: Arc<Tracer>) -> Self {
        TracedModel {
            inner,
            tracer,
            pool_parent: Mutex::new(None),
            prompt_bytes: AtomicU64::new(0),
        }
    }

    /// Run `f` with `parent` as the parent of model calls on pool threads.
    pub fn with_pool_parent<R>(&self, parent: Option<SpanCtx>, f: impl FnOnce() -> R) -> R {
        *self.pool_parent.lock().expect("pool parent poisoned") = parent;
        let out = f();
        *self.pool_parent.lock().expect("pool parent poisoned") = None;
        out
    }

    pub fn prompt_bytes(&self) -> u64 {
        self.prompt_bytes.load(Ordering::Relaxed)
    }
}

impl LanguageModel for TracedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> LlmResult<Completion> {
        self.prompt_bytes
            .fetch_add(prompt.len() as u64, Ordering::Relaxed);
        if !self.tracer.enabled() {
            return self.inner.complete(prompt);
        }
        let parent = self
            .tracer
            .current()
            .or(*self.pool_parent.lock().expect("pool parent poisoned"));
        self.tracer
            .span_under("llm.complete", parent, None, || self.inner.complete(prompt))
    }

    fn usage_meter(&self) -> &UsageMeter {
        self.inner.usage_meter()
    }
}

/// Byte, call and time counters of the durable store's file traffic,
/// split by file: the log, the page file and the meta file.
#[derive(Debug, Default)]
pub struct IoCounters {
    wal_bytes: AtomicU64,
    page_bytes: AtomicU64,
    meta_bytes: AtomicU64,
    writes: AtomicU64,
    fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
    write_ns: AtomicU64,
    reads: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Debug, Default, Clone, Copy)]
pub struct IoSnapshot {
    pub wal_bytes: u64,
    pub page_bytes: u64,
    pub meta_bytes: u64,
    pub writes: u64,
    pub fsyncs: u64,
    pub fsync_ns: u64,
    pub write_ns: u64,
    pub reads: u64,
}

impl IoCounters {
    pub fn snapshot(&self) -> IoSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        IoSnapshot {
            wal_bytes: get(&self.wal_bytes),
            page_bytes: get(&self.page_bytes),
            meta_bytes: get(&self.meta_bytes),
            writes: get(&self.writes),
            fsyncs: get(&self.fsyncs),
            fsync_ns: get(&self.fsync_ns),
            write_ns: get(&self.write_ns),
            reads: get(&self.reads),
        }
    }
}

impl IoSnapshot {
    /// Traffic between `before` and `self`.
    pub fn since(&self, before: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            wal_bytes: self.wal_bytes - before.wal_bytes,
            page_bytes: self.page_bytes - before.page_bytes,
            meta_bytes: self.meta_bytes - before.meta_bytes,
            writes: self.writes - before.writes,
            fsyncs: self.fsyncs - before.fsyncs,
            fsync_ns: self.fsync_ns - before.fsync_ns,
            write_ns: self.write_ns - before.write_ns,
            reads: self.reads - before.reads,
        }
    }

    pub fn written(&self) -> u64 {
        self.wal_bytes + self.page_bytes + self.meta_bytes
    }
}

#[derive(Debug, Clone, Copy)]
enum FileClass {
    Wal,
    Pages,
    Meta,
}

impl FileClass {
    /// The pager keeps `<log>.pages` and `<log>.meta` (replaced through
    /// `<log>.meta.tmp`) beside the log.
    fn of(path: &Path) -> Self {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".pages") {
            FileClass::Pages
        } else if name.ends_with(".meta") || name.ends_with(".meta.tmp") {
            FileClass::Meta
        } else {
            FileClass::Wal
        }
    }
}

/// [`RealFs`] behind counters (and `vfs.*` spans when tracing).
#[derive(Debug)]
pub struct CountingVfs {
    counters: Arc<IoCounters>,
    tracer: Arc<Tracer>,
}

impl CountingVfs {
    pub fn new(tracer: Arc<Tracer>) -> Self {
        CountingVfs {
            counters: Arc::default(),
            tracer,
        }
    }

    pub fn counters(&self) -> Arc<IoCounters> {
        self.counters.clone()
    }

    fn wrap(&self, path: &Path, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner,
            class: FileClass::of(path),
            counters: self.counters.clone(),
            tracer: self.tracer.clone(),
        })
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    class: FileClass,
    counters: Arc<IoCounters>,
    tracer: Arc<Tracer>,
}

impl VfsFile for CountingFile {
    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> SqlResult<()> {
        let c = &self.counters;
        let bytes = match self.class {
            FileClass::Wal => &c.wal_bytes,
            FileClass::Pages => &c.page_bytes,
            FileClass::Meta => &c.meta_bytes,
        };
        bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        c.writes.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let r = self
            .tracer
            .span("vfs.write", None, || self.inner.write_all_at(offset, data));
        c.write_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn read_exact_at(&mut self, offset: u64, len: usize) -> SqlResult<Vec<u8>> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_exact_at(offset, len)
    }

    fn set_len(&mut self, len: u64) -> SqlResult<()> {
        self.inner.set_len(len)
    }

    fn sync_data(&mut self) -> SqlResult<()> {
        let c = &self.counters;
        c.fsyncs.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let r = self
            .tracer
            .span("vfs.fsync", None, || self.inner.sync_data());
        c.fsync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

impl Vfs for CountingVfs {
    fn open(&self, path: &Path) -> SqlResult<Box<dyn VfsFile>> {
        Ok(self.wrap(path, RealFs.open(path)?))
    }

    fn create(&self, path: &Path) -> SqlResult<Box<dyn VfsFile>> {
        Ok(self.wrap(path, RealFs.create(path)?))
    }

    fn read(&self, path: &Path) -> SqlResult<Vec<u8>> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        RealFs.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> SqlResult<()> {
        RealFs.rename(from, to)
    }

    fn sync_parent_dir(&self, path: &Path) -> SqlResult<()> {
        let c = &self.counters;
        c.fsyncs.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let r = self
            .tracer
            .span("vfs.fsync", None, || RealFs.sync_parent_dir(path));
        c.fsync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}
