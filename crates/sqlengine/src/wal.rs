//! Append-only write-ahead log: crash durability for the catalog.
//!
//! The WAL is the single source of durable truth. Every committed
//! transaction appends a `Begin` / per-table `Delta` / `Commit` record
//! group in one write; [`Wal::open`] replays the longest intact prefix and
//! truncates a torn tail, so after a crash the database is always exactly
//! the state as of some committed transaction boundary — never a torn mix.
//!
//! # Framing
//!
//! Each record is framed as `[len: u32 LE][crc32: u32 LE][payload]`, with
//! the CRC taken over the payload. Recovery walks frames from offset 0 and
//! stops at the first frame that is short, fails its checksum, or does not
//! decode; everything from that offset on is discarded (`set_len`) so the
//! next append starts at a clean boundary. The one exception is a
//! checksum-valid frame of the retired whole-image checkpoint format
//! (record tag 4): it is a whole record, not a torn tail, so opening the
//! log fails with [`Error::Unsupported`] and leaves the file untouched.
//!
//! # Deltas
//!
//! A transaction's effect on one table is logged as one [`WalDelta`]:
//!
//! * [`WalDelta::Append`] — the pure-INSERT fast path: only the new rows
//!   are encoded (detected by `Arc` pointer equality against the commit's
//!   base snapshot, see [`crate::txn::wal_delta`]);
//! * [`WalDelta::RowPatch`] — the row-level UPDATE/DELETE path: only the
//!   primary keys of deleted rows and the full images of touched rows are
//!   encoded; replay patches them into the table already recovered
//!   (deletes first, then in-place upserts — the same
//!   [`Table::apply_row_patch`] the commit rebase uses, so the installed
//!   and recovered tables agree by construction);
//! * [`WalDelta::Put`] — a full table image (DDL, tables without a
//!   primary key, or writes that reorder rows);
//! * [`WalDelta::Drop`] — the table was dropped.
//!
//! # Checkpoints
//!
//! Durable state lives in the paged store ([`crate::pager`]): after each
//! commit's fsync its deltas also apply to on-disk B-trees. When the log
//! grows past [`DurabilityConfig::checkpoint_bytes`], the committer
//! flushes the pages dirtied since the last checkpoint, flips the page
//! store's meta file to a new epoch, and swaps the log for a single
//! [`WalRecord::PagedCheckpoint`] marker naming that epoch (write to a
//! `.tmp` sibling, fsync, atomic rename, directory sync). Recovery loads
//! the catalog from the trees at the meta epoch and replays only the
//! records after the marker, so the log's budget bounds both file size
//! and recovery time.
//!
//! # The VFS seam
//!
//! Every byte the log touches — appends, fsyncs, torn-tail truncation,
//! the checkpoint's tmp + rename dance — goes through a
//! [`Vfs`](crate::vfs::Vfs): [`RealFs`](crate::vfs::RealFs) in
//! production, the fault-injecting [`SimFs`](crate::vfs::SimFs) under the
//! `crash_sim` harness, which sweeps a deterministic fail/crash through
//! every operation index and asserts recovery always lands on a clean
//! prefix of acknowledged commits.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::OnceLock;

use crate::error::{Error, Result};
use crate::pager::Pager;
use crate::storage::{
    decode_row, decode_table, encode_row, encode_table, get_str, get_u64, get_u8,
    put_str, put_u32, put_u64, Catalog, Table, TextInterner,
};
use crate::value::Row;
use crate::vfs::{RealFs, Vfs, VfsFile};

/// Durability tuning for a WAL-backed database.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Rewrite the log as a checkpoint once it grows past this many bytes.
    pub checkpoint_bytes: u64,
    /// `fsync` the log on every commit. Disabling trades the durability of
    /// the last few commits for throughput (the file is still written, so
    /// only an OS crash — not a process crash — can lose them).
    pub sync: bool,
    /// Batch concurrent committers into **group commits** on a
    /// [`SharedDb`](crate::shared::SharedDb): committers enqueue their
    /// framed record groups, one leader appends the whole batch and
    /// issues a single fsync, and every committer in the batch is woken
    /// acknowledged — multiplying commit throughput under contention
    /// (the log mutex is held only by the leader, never by waiters).
    /// Disabling falls back to one append + fsync per commit.
    pub group_commit: bool,
    /// Group-commit install handback: once a batch carries at least this
    /// many table deltas, the leader acknowledges durability but hands
    /// the catalog installs back to the individual committers, keeping
    /// the leader's critical section to the write + fsync. `0` disables
    /// handback (the leader always installs the whole batch itself).
    pub handback_deltas: usize,
    /// Must be `true`. Durable state always lives in the paged store
    /// ([`crate::pager`]): commits maintain on-disk B-trees and
    /// checkpoints flush only dirty pages — O(dirty), not O(database).
    /// `false` once selected a whole-image format that is now retired;
    /// opening with it fails with [`Error::Unsupported`].
    pub paged: bool,
    /// Buffer-pool capacity in pages for the paged store.
    pub pool_pages: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_bytes: 4 << 20,
            sync: true,
            group_commit: true,
            handback_deltas: 4,
            paged: true,
            pool_pages: crate::bufpool::DEFAULT_POOL_PAGES,
        }
    }
}

/// One WAL record. `Begin`/`Delta`/`Commit` carry the transaction id that
/// groups them; only transactions whose `Commit` made it to disk are
/// applied at recovery.
#[derive(Debug, Clone)]
pub enum WalRecord {
    Begin { txn: u64 },
    Delta { txn: u64, delta: WalDelta },
    Commit { txn: u64 },
    /// Paged-store checkpoint marker: durable state up to here lives in
    /// the page/meta files at this epoch ([`crate::pager`]); only records
    /// after the marker replay.
    PagedCheckpoint { epoch: u64 },
}

/// A committed transaction's effect on one table.
#[derive(Debug, Clone)]
pub enum WalDelta {
    /// Install this full table snapshot (UPDATE/DELETE/DDL path).
    Put { table: Arc<Table> },
    /// Append `rows` to the existing table and set its version — the
    /// compact pure-INSERT encoding.
    Append { table: String, rows: Vec<Row>, new_version: u64 },
    /// Remove the table.
    Drop { name: String },
    /// Row-level patch over the table as already recovered: `deletes`
    /// holds the primary-key cell tuples of removed rows, `upserts` the
    /// full images of touched rows (replaced in place when the key
    /// exists, appended otherwise). The compact UPDATE/DELETE encoding
    /// produced from a transaction's row write set.
    RowPatch { table: String, deletes: Vec<Row>, upserts: Vec<Row>, new_version: u64 },
}

// ---------------------------------------------------------------------------
// Record codec (payload only; framing is separate). The byte primitives
// are shared with the row codec in `crate::storage`.
// ---------------------------------------------------------------------------

fn bad(what: &str) -> Error {
    Error::Io(format!("wal: malformed {what}"))
}

/// Record tag of the retired whole-image checkpoint. Never reused, so a
/// log written in that format cannot be misread as paged records.
const RETIRED_IMAGE_TAG: u8 = 4;

fn encode_record(buf: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::Begin { txn } => {
            buf.push(1);
            put_u64(buf, *txn);
        }
        WalRecord::Delta { txn, delta } => {
            buf.push(2);
            put_u64(buf, *txn);
            match delta {
                WalDelta::Put { table } => {
                    buf.push(1);
                    encode_table(buf, table);
                }
                WalDelta::Append { table, rows, new_version } => {
                    buf.push(2);
                    put_str(buf, table);
                    put_u64(buf, *new_version);
                    put_u64(buf, rows.len() as u64);
                    for row in rows {
                        encode_row(buf, row);
                    }
                }
                WalDelta::Drop { name } => {
                    buf.push(3);
                    put_str(buf, name);
                }
                WalDelta::RowPatch { table, deletes, upserts, new_version } => {
                    buf.push(4);
                    put_str(buf, table);
                    put_u64(buf, *new_version);
                    put_u64(buf, deletes.len() as u64);
                    for row in deletes {
                        encode_row(buf, row);
                    }
                    put_u64(buf, upserts.len() as u64);
                    for row in upserts {
                        encode_row(buf, row);
                    }
                }
            }
        }
        WalRecord::Commit { txn } => {
            buf.push(3);
            put_u64(buf, *txn);
        }
        WalRecord::PagedCheckpoint { epoch } => {
            buf.push(5);
            put_u64(buf, *epoch);
        }
    }
}

fn decode_record(buf: &[u8], pos: &mut usize, interner: &mut TextInterner) -> Result<WalRecord> {
    match get_u8(buf, pos)? {
        1 => Ok(WalRecord::Begin { txn: get_u64(buf, pos)? }),
        2 => {
            let txn = get_u64(buf, pos)?;
            let delta = match get_u8(buf, pos)? {
                1 => WalDelta::Put { table: Arc::new(decode_table(buf, pos, interner)?) },
                2 => {
                    let table = get_str(buf, pos)?.to_string();
                    let new_version = get_u64(buf, pos)?;
                    let n = get_u64(buf, pos)? as usize;
                    let mut rows = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        rows.push(decode_row(buf, pos, interner)?);
                    }
                    WalDelta::Append { table, rows, new_version }
                }
                3 => WalDelta::Drop { name: get_str(buf, pos)?.to_string() },
                4 => {
                    let table = get_str(buf, pos)?.to_string();
                    let new_version = get_u64(buf, pos)?;
                    let nd = get_u64(buf, pos)? as usize;
                    let mut deletes = Vec::with_capacity(nd.min(1 << 20));
                    for _ in 0..nd {
                        deletes.push(decode_row(buf, pos, interner)?);
                    }
                    let nu = get_u64(buf, pos)? as usize;
                    let mut upserts = Vec::with_capacity(nu.min(1 << 20));
                    for _ in 0..nu {
                        upserts.push(decode_row(buf, pos, interner)?);
                    }
                    WalDelta::RowPatch { table, deletes, upserts, new_version }
                }
                _ => return Err(bad("delta tag")),
            };
            Ok(WalRecord::Delta { txn, delta })
        }
        3 => Ok(WalRecord::Commit { txn: get_u64(buf, pos)? }),
        5 => Ok(WalRecord::PagedCheckpoint { epoch: get_u64(buf, pos)? }),
        _ => Err(bad("record tag")),
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE) — table-driven, built once
// ---------------------------------------------------------------------------

pub(crate) fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = u32::MAX;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Frame one record: `[len][crc][payload]`.
fn frame(rec: &WalRecord, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    encode_record(&mut payload, rec);
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
}

/// Frame a whole record group into one contiguous buffer — what a
/// committer hands the group-commit queue, so encoding happens off the
/// log mutex and the leader's append is a single `memcpy`-and-write.
pub fn frame_group(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for rec in records {
        frame(rec, &mut buf);
    }
    buf
}

/// Decode the frame starting at `start`; `Ok(None)` marks a torn/corrupt
/// tail. A checksum-valid frame of the retired whole-image format is an
/// error instead: truncating it would delete every commit after it.
fn read_frame(
    bytes: &[u8],
    start: usize,
    interner: &mut TextInterner,
) -> Result<Option<(WalRecord, usize)>> {
    let Some((payload, end)) = frame_payload(&bytes[start..]) else { return Ok(None) };
    // Keyed on the tag byte itself: an all-zero region is a checksum-valid
    // empty frame and must still read as a torn tail.
    if payload.first() == Some(&RETIRED_IMAGE_TAG) {
        return Err(Error::Unsupported(format!(
            "wal: frame at offset {start} is a whole-image checkpoint, a retired \
             log format; this engine reads only paged-store logs"
        )));
    }
    let mut pos = 0;
    Ok(match decode_record(payload, &mut pos, interner) {
        Ok(rec) if pos == payload.len() => Some((rec, start + end)),
        _ => None,
    })
}

/// The checksum-valid payload at the head of `rest` and the frame's end
/// offset, or `None` if the frame is short or fails its checksum.
fn frame_payload(rest: &[u8]) -> Option<(&[u8], usize)> {
    // A decode path never panics on input shape: a failed cast or a
    // short read is a torn tail.
    let len = u32::from_le_bytes(rest.get(0..4)?.try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(rest.get(4..8)?.try_into().ok()?);
    let end = 8usize.checked_add(len)?;
    let payload = rest.get(8..end)?;
    (crc32(payload) == crc).then_some((payload, end))
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Apply one committed delta to the recovering catalog.
fn apply_delta(catalog: &mut Catalog, delta: WalDelta) -> Result<()> {
    match delta {
        WalDelta::Put { table } => catalog.put_shared(table),
        WalDelta::Append { table, rows, new_version } => {
            let base = catalog.get_required(&table)?.clone();
            let mut t = (*base).clone();
            for row in rows {
                t.insert_shared_row(row)?;
            }
            t.version = new_version;
            catalog.put_shared(Arc::new(t));
        }
        WalDelta::Drop { name } => {
            let _ = catalog.drop_table(&name);
        }
        WalDelta::RowPatch { table, deletes, upserts, new_version } => {
            let base = catalog.get_required(&table)?.clone();
            let mut t = (*base).clone();
            t.apply_row_patch(&deletes, upserts)?;
            t.version = new_version;
            catalog.put_shared(Arc::new(t));
        }
    }
    Ok(())
}

/// Recovery: reconcile the WAL's checkpoint marker with the
/// durable meta epoch, materialize the catalog from the trees, and replay
/// only the genuine tail (applying it to the trees too, so they stay
/// current). Returns the catalog and whether the log must be normalized
/// (rewritten to a bare marker) before accepting appends.
fn replay_paged(
    records: Vec<WalRecord>,
    pager: &Pager,
) -> Result<(Catalog, bool)> {
    let meta_epoch = pager.epoch();
    // The *last* marker governs; anything before it is a stale prefix.
    let marker = records.iter().enumerate().rev().find_map(|(i, r)| match r {
        WalRecord::PagedCheckpoint { epoch } => Some((i, *epoch)),
        _ => None,
    });
    if let Some((_, epoch)) = marker {
        if epoch > meta_epoch {
            return Err(Error::Io(format!(
                "wal: checkpoint marker epoch {epoch} is ahead of the page-store \
                 meta epoch {meta_epoch} — the meta file was lost or rolled back"
            )));
        }
    }
    match marker {
        // Marker matches the meta: the records after it are the live tail.
        Some((i, epoch)) if epoch == meta_epoch => {
            let catalog = pager.materialize_catalog()?;
            let tail = records.into_iter().skip(i + 1).collect();
            Ok((replay_tail(tail, catalog, pager)?, false))
        }
        // Marker behind the meta (or none at all while a meta exists): a
        // crash hit between the meta flip and the WAL swap. The whole
        // checkpoint ran under the WAL lock, so every record in this log
        // was already folded into the trees the meta made durable — the
        // meta alone is the truth, and the stale log must be normalized.
        _ if meta_epoch > 0 => Ok((pager.materialize_catalog()?, true)),
        // No meta yet: a fresh database whose first checkpoint has not
        // run, so every commit since creation is in the log. Replay
        // rebuilds the catalog and applies the deltas to the trees.
        _ => Ok((replay_tail(records, Catalog::new(), pager)?, false)),
    }
}

/// The committed-transaction replay loop over `records`, starting from
/// `catalog`: a transaction's deltas apply only when its `Commit` record
/// is present, so uncommitted trailing transactions are discarded —
/// exactly the rollback a crash before the commit record implies.
/// Committed deltas also apply to the trees; tree failures degrade to
/// rebuild mode rather than failing recovery (the commits are durable in
/// the log — they must not be lost).
fn replay_tail(records: Vec<WalRecord>, mut catalog: Catalog, pager: &Pager) -> Result<Catalog> {
    let mut pending: HashMap<u64, Vec<WalDelta>> = HashMap::new();
    for rec in records {
        match rec {
            WalRecord::Begin { txn } => {
                pending.insert(txn, Vec::new());
            }
            WalRecord::Delta { txn, delta } => {
                pending.entry(txn).or_default().push(delta);
            }
            WalRecord::Commit { txn } => {
                if let Some(deltas) = pending.remove(&txn) {
                    for d in deltas {
                        if pager.apply_delta(&d).is_err() {
                            pager.set_rebuild();
                        }
                        apply_delta(&mut catalog, d)?;
                    }
                }
            }
            WalRecord::PagedCheckpoint { .. } => {
                // `replay_paged` already consumed the governing marker;
                // a stray one here cannot carry data — ignore it.
            }
        }
    }
    Ok(catalog)
}

/// Apply a just-appended (already durable) frame buffer's committed
/// deltas to the paged store. Never fails — the commit is acknowledged
/// territory, so any tree trouble flips the pager to rebuild mode and
/// the next checkpoint recaptures everything from the catalog.
fn apply_frames_to_pager(pager: &Pager, buf: &[u8]) {
    let mut interner = TextInterner::new();
    let mut pending: HashMap<u64, Vec<WalDelta>> = HashMap::new();
    let mut at = 0usize;
    while let Ok(Some((rec, next))) = read_frame(buf, at, &mut interner) {
        at = next;
        match rec {
            WalRecord::Begin { txn } => {
                pending.insert(txn, Vec::new());
            }
            WalRecord::Delta { txn, delta } => {
                pending.entry(txn).or_default().push(delta);
            }
            WalRecord::Commit { txn } => {
                if let Some(deltas) = pending.remove(&txn) {
                    for d in deltas {
                        if pager.apply_delta(&d).is_err() {
                            pager.set_rebuild();
                            return;
                        }
                    }
                }
            }
            WalRecord::PagedCheckpoint { .. } => {}
        }
    }
    if at != buf.len() {
        // A buffer this process just framed should decode in full; if it
        // somehow does not, degrade rather than diverge.
        pager.set_rebuild();
    }
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

/// An open write-ahead log positioned for appending. All I/O goes
/// through the [`Vfs`] the log was opened on.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    len: u64,
    config: DurabilityConfig,
    /// The paged store. Lives under the WAL mutex: commits apply their
    /// deltas to the trees right after the fsync, checkpoints flush
    /// dirty pages.
    pager: Pager,
    /// Set when an I/O failure left the handle in a state where further
    /// appends could silently lose acknowledged commits (a partial frame
    /// that could not be rolled back, a post-rename reopen failure that
    /// left `file` pointing at an unlinked inode, or a checkpoint whose
    /// rename never became durable). A poisoned log fails every append
    /// fast; reopen the database to recover.
    poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("config", &self.config)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

/// The result of opening a WAL: the log (positioned at its intact end),
/// the recovered catalog, and the highest transaction id seen (so id
/// allocation can resume above it).
#[derive(Debug)]
pub struct Recovered {
    pub wal: Wal,
    pub catalog: Catalog,
    pub max_txn: u64,
}

impl Wal {
    /// Open (or create) the log at `path` on the real filesystem, replay
    /// the longest intact record prefix, and truncate any torn tail so
    /// subsequent appends start at a clean frame boundary. Fails with
    /// [`Error::Unsupported`] for `paged: false` or a log holding a
    /// retired whole-image checkpoint frame.
    pub fn open(path: impl AsRef<Path>, config: DurabilityConfig) -> Result<Recovered> {
        Wal::open_on(Arc::new(RealFs), path, config)
    }

    /// [`Wal::open`] on an explicit [`Vfs`] — the seam the crash-sim
    /// harness injects its [`SimFs`](crate::vfs::SimFs) through.
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<Recovered> {
        if !config.paged {
            return Err(Error::Unsupported(
                "durability: `paged: false` selected the retired whole-image log \
                 format; the paged store is the only durable format"
                    .into(),
            ));
        }
        let path = path.as_ref().to_path_buf();
        let mut file = vfs.open(&path)?;
        let bytes = vfs.read(&path)?;

        let mut records = Vec::new();
        let mut good = 0usize;
        let mut interner = TextInterner::new();
        while let Some((rec, next)) = read_frame(&bytes, good, &mut interner)? {
            records.push(rec);
            good = next;
        }
        if good < bytes.len() {
            // Torn tail: drop it now so a later crash cannot resurrect it.
            file.set_len(good as u64)?;
            file.sync_data()?;
        }

        let max_txn = records
            .iter()
            .map(|r| match r {
                WalRecord::Begin { txn }
                | WalRecord::Delta { txn, .. }
                | WalRecord::Commit { txn } => *txn,
                WalRecord::PagedCheckpoint { .. } => 0,
            })
            .max()
            .unwrap_or(0);
        let pager = Pager::open(vfs.clone(), &path, config.pool_pages)?;
        let (catalog, normalize) = replay_paged(records, &pager)?;
        let mut wal = Wal {
            vfs,
            file,
            path,
            len: good as u64,
            config,
            pager,
            poisoned: false,
        };
        if normalize {
            // The log predates the durable meta (crash between the meta
            // flip and the WAL swap). Its records are already folded into
            // the trees, but appending after them would make the *next*
            // recovery replay that stale tail on top of the meta —
            // finish the interrupted swap before accepting appends.
            let epoch = wal.pager.epoch();
            wal.swap_log(&WalRecord::PagedCheckpoint { epoch })?;
        }
        Ok(Recovered { wal, catalog, max_txn })
    }

    /// Bytes currently in the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The durability configuration the log was opened with.
    pub fn config(&self) -> DurabilityConfig {
        self.config
    }

    /// Append a group of records as one write (one frame per record) and,
    /// when configured, fsync before returning — the commit point.
    ///
    /// On failure the file is rolled back to the last good frame
    /// boundary, so a partial frame can never sit *between* acknowledged
    /// commits (recovery truncates at the first bad frame — garbage in
    /// the middle would silently discard every later commit). If the
    /// rollback itself fails, the log poisons: all further appends error
    /// until the database is reopened.
    pub fn append(&mut self, records: &[WalRecord]) -> Result<()> {
        self.append_raw(&frame_group(records))
    }

    /// Append an already-framed buffer (one or many record groups — the
    /// group-commit leader concatenates a whole batch) as one write and
    /// at most one fsync. Same rollback/poison contract as [`append`]
    /// (Wal::append).
    pub fn append_raw(&mut self, buf: &[u8]) -> Result<()> {
        if self.poisoned {
            return Err(Error::Io(
                "wal: poisoned by an earlier i/o failure; reopen the database".into(),
            ));
        }
        let wrote = self.file.write_all_at(self.len, buf).and_then(|()| {
            if self.config.sync {
                self.file.sync_data()?;
            }
            Ok(())
        });
        match wrote {
            Ok(()) => {
                self.len += buf.len() as u64;
                // The frames are durable — the commit is already
                // acknowledged territory, so tree maintenance must not
                // fail it. Any hiccup flips the pager to rebuild mode
                // (next checkpoint rebuilds from the catalog).
                apply_frames_to_pager(&self.pager, buf);
                Ok(())
            }
            Err(e) => {
                let rewound =
                    self.file.set_len(self.len).and_then(|()| self.file.sync_data());
                if rewound.is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// True once the log has reached the configured checkpoint budget.
    /// `>=`, not `>`: a log landing exactly on the budget checkpoints too
    /// (the strict form let it sit at the boundary forever).
    pub fn wants_checkpoint(&self) -> bool {
        self.len >= self.config.checkpoint_bytes
    }

    /// Page-store counters (pool hits/misses/evictions, epoch).
    pub fn pager_stats(&self) -> crate::pager::PagerStats {
        self.pager.stats()
    }

    /// Compact the log: flush dirty pages + flip the meta (O(dirty
    /// pages)), then swap the log for a bare
    /// [`WalRecord::PagedCheckpoint`] marker via tmp + fsync + rename +
    /// dir-sync. On return the log holds exactly one record.
    pub fn checkpoint(&mut self, catalog: &Catalog) -> Result<()> {
        // A retryable pager failure leaves durable state at the old epoch
        // with all retry state intact — no poison. But if the meta rename
        // landed and only its directory sync failed, the new meta is
        // ambiguously durable while this log still holds pre-checkpoint
        // records: a commit acknowledged now would be silently discarded
        // by a recovery that trusts the surviving meta, so the log must
        // poison (same contract as a failed dir sync in
        // [`Self::swap_log`]).
        let epoch = match self.pager.checkpoint(catalog) {
            Ok(epoch) => epoch,
            Err(e @ crate::pager::CheckpointError::Ambiguous(_)) => {
                self.poisoned = true;
                return Err(e.into_error());
            }
            Err(e) => return Err(e.into_error()),
        };
        self.swap_log(&WalRecord::PagedCheckpoint { epoch })
    }

    /// Atomically replace the log with a single record.
    fn swap_log(&mut self, record: &WalRecord) -> Result<()> {
        let mut buf = Vec::new();
        frame(record, &mut buf);

        let mut tmp_name = self.path.clone().into_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        {
            let mut f = self.vfs.create(&tmp)?;
            f.write_all_at(0, &buf)?;
            f.sync_data()?;
        }
        self.vfs.rename(&tmp, &self.path)?;
        // The rename must be durable before any post-checkpoint commit
        // can be acknowledged: until the directory entry reaches disk, a
        // crash resolves the log's name to the OLD inode, so every later
        // append — fsynced to the new inode and acknowledged — would
        // silently vanish. A failed directory sync therefore poisons the
        // log: no further append can be falsely acknowledged, and a
        // reopen recovers from whichever image survived (old log and new
        // image hold the same committed state).
        if let Err(e) = self.vfs.sync_parent_dir(&self.path) {
            self.poisoned = true;
            return Err(e);
        }
        // The rename unlinked the old inode `self.file` points at. If the
        // reopen fails we must poison: appending through the stale handle
        // would "durably" write into a deleted file.
        match self.vfs.open(&self.path) {
            Ok(file) => {
                self.file = file;
                self.len = buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Column;
    use crate::value::Value;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "swan-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        // The paged store keeps siblings next to the log; stale ones from
        // a previous run would be a different database.
        for suffix in [".pages", ".meta"] {
            let mut s = p.clone().into_os_string();
            s.push(suffix);
            let _ = std::fs::remove_file(PathBuf::from(s));
        }
        p
    }

    fn sample_table(rows: usize) -> Table {
        let mut t = Table::new(
            "t",
            vec![Column::new("id"), Column::new("name")],
            &["id".to_string()],
        )
        .unwrap();
        for i in 0..rows {
            t.insert_row(vec![(i as i64).into(), format!("row-{i}").into()]).unwrap();
        }
        t
    }

    /// A log landing *exactly* on `checkpoint_bytes` must checkpoint
    /// (`>=`): the old strict `>` let a log that hit the budget on the
    /// nose sit at the boundary forever, never reclaiming it.
    #[test]
    fn checkpoint_triggers_exactly_at_the_byte_budget() {
        let path = temp_path("ckpt-boundary");
        let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        rec.wal.append(&[WalRecord::Begin { txn: 1 }, WalRecord::Commit { txn: 1 }]).unwrap();
        let len = rec.wal.len;
        assert!(len > 0);
        rec.wal.config.checkpoint_bytes = len + 1;
        assert!(!rec.wal.wants_checkpoint(), "one byte under budget: no checkpoint yet");
        rec.wal.config.checkpoint_bytes = len;
        assert!(rec.wal.wants_checkpoint(), "exactly at budget: must checkpoint");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let path = temp_path("roundtrip");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            assert!(rec.catalog.is_empty());
            rec.wal
                .append(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(sample_table(3)) },
                    },
                    WalRecord::Commit { txn: 1 },
                ])
                .unwrap();
        }
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert_eq!(rec.max_txn, 1);
        assert_eq!(rec.catalog.row_count("t"), Some(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uncommitted_transactions_are_discarded() {
        let path = temp_path("uncommitted");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            rec.wal
                .append(&[
                    WalRecord::Begin { txn: 7 },
                    WalRecord::Delta {
                        txn: 7,
                        delta: WalDelta::Put { table: Arc::new(sample_table(5)) },
                    },
                    // No commit: a crash happened before the commit record.
                ])
                .unwrap();
        }
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert!(rec.catalog.is_empty(), "uncommitted delta must not apply");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        let path = temp_path("torn");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            rec.wal
                .append(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(sample_table(2)) },
                    },
                    WalRecord::Commit { txn: 1 },
                ])
                .unwrap();
        }
        let intact = std::fs::read(&path).unwrap();
        for cut in 0..intact.len() {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            // Either nothing committed yet (torn inside the txn) or the
            // full commit survived; never a partial state.
            let n = rec.catalog.row_count("t");
            assert!(
                n.is_none() || n == Some(2),
                "cut at {cut}: unexpected state {n:?}"
            );
            drop(rec);
            // The torn tail is physically gone: reopening is idempotent.
            let reopened = std::fs::metadata(&path).unwrap().len();
            let again = Wal::open(&path, DurabilityConfig::default()).unwrap();
            assert_eq!(again.wal.len(), reopened);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bitflip_invalidates_the_frame() {
        let path = temp_path("bitflip");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            rec.wal
                .append(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(sample_table(2)) },
                    },
                    WalRecord::Commit { txn: 1 },
                ])
                .unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert!(
            rec.catalog.row_count("t").is_none(),
            "a corrupted delta frame must invalidate the whole transaction"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_compacts_and_replays() {
        let path = temp_path("checkpoint");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            let mut catalog = Catalog::new();
            catalog.put_table(sample_table(4));
            for txn in 1..=10u64 {
                rec.wal
                    .append(&[
                        WalRecord::Begin { txn },
                        WalRecord::Delta {
                            txn,
                            delta: WalDelta::Put { table: Arc::new(sample_table(4)) },
                        },
                        WalRecord::Commit { txn },
                    ])
                    .unwrap();
            }
            let before = rec.wal.len();
            rec.wal.checkpoint(&catalog).unwrap();
            assert!(rec.wal.len() < before, "checkpoint must shrink the log");
        }
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert_eq!(rec.catalog.row_count("t"), Some(4));
        let _ = std::fs::remove_file(&path);
    }

    /// Frame `payload` the way [`frame`] does: `[len][crc][payload]`.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, payload.len() as u32);
        put_u32(&mut out, crc32(payload));
        out.extend_from_slice(payload);
        out
    }

    /// A checksum-valid frame of the retired whole-image checkpoint is a
    /// whole record, not a torn tail: truncating at it would delete the
    /// commits after it. Open refuses it and leaves every byte in place.
    #[test]
    fn retired_image_frame_is_refused_without_truncation() {
        let path = temp_path("retired");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            rec.wal
                .append(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(sample_table(2)) },
                    },
                    WalRecord::Commit { txn: 1 },
                ])
                .unwrap();
        }
        let committed = std::fs::read(&path).unwrap();

        // A zero-table whole-image checkpoint, then a later commit.
        let mut bytes = committed.clone();
        bytes.extend(raw_frame(&[RETIRED_IMAGE_TAG, 0, 0, 0, 0]));
        bytes.extend(frame_group(&[WalRecord::Begin { txn: 2 }, WalRecord::Commit { txn: 2 }]));
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path, DurabilityConfig::default()).unwrap_err();
        assert!(
            matches!(&err, Error::Unsupported(m) if m.contains("whole-image")),
            "got {err:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "the refused log must be untouched");

        // Eight zero bytes also form a checksum-valid (empty) frame, but
        // carry no tag: still a torn tail, truncated as before.
        assert_eq!(crc32(&[]), 0);
        let mut bytes = committed.clone();
        bytes.extend([0u8; 8]);
        std::fs::write(&path, &bytes).unwrap();
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert_eq!(rec.catalog.row_count("t"), Some(2));
        assert_eq!(std::fs::read(&path).unwrap(), committed, "zero tail truncated");
        let _ = std::fs::remove_file(&path);
    }

    /// Record tags are a durable format that existing paged stores hold:
    /// retiring tag 4 must never renumber the others. Golden bytes of one
    /// framed group (CRCs are IEEE CRC-32, as zlib computes them).
    #[test]
    fn framed_record_group_bytes_are_stable() {
        let group = frame_group(&[
            WalRecord::Begin { txn: 7 },
            WalRecord::Delta {
                txn: 7,
                delta: WalDelta::Append {
                    table: "t".into(),
                    rows: vec![vec![Value::Integer(1), Value::text("a")].into()],
                    new_version: 3,
                },
            },
            WalRecord::Commit { txn: 7 },
            WalRecord::PagedCheckpoint { epoch: 2 },
        ]);
        let hex: String = group.iter().map(|b| format!("{b:02x}")).collect();
        let golden = concat!(
            // Begin (tag 1), txn 7
            "09000000f409b7fb010700000000000000",
            // Delta (tag 2), txn 7, Append (delta tag 2) of one row to "t"
            "320000002553bfb5020700000000000000020100000074030000000000000001",
            "0000000000000002000000010100000000000000030100000061",
            // Commit (tag 3), txn 7
            "09000000722141d5030700000000000000",
            // PagedCheckpoint (tag 5), epoch 2
            "090000009c56bbee050200000000000000",
        );
        assert_eq!(hex, golden);
    }

    #[test]
    fn append_delta_extends_existing_table() {
        let path = temp_path("appendrows");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            let base = sample_table(2);
            let extra: Vec<Row> = vec![
                vec![Value::Integer(2), Value::text("row-2")].into(),
                vec![Value::Integer(3), Value::text("row-3")].into(),
            ];
            rec.wal
                .append(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(base) },
                    },
                    WalRecord::Commit { txn: 1 },
                    WalRecord::Begin { txn: 2 },
                    WalRecord::Delta {
                        txn: 2,
                        delta: WalDelta::Append { table: "t".into(), rows: extra, new_version: 5 },
                    },
                    WalRecord::Commit { txn: 2 },
                ])
                .unwrap();
        }
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert_eq!(rec.catalog.row_count("t"), Some(4));
        assert_eq!(rec.catalog.version("t"), Some(5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn row_patch_delta_replays_updates_and_deletes() {
        let path = temp_path("rowpatch");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            // Base: ids 0..4. Patch: delete id 1, rewrite id 2, insert id 9.
            let deletes: Vec<Row> = vec![vec![Value::Integer(1)].into()];
            let upserts: Vec<Row> = vec![
                vec![Value::Integer(2), Value::text("rewritten")].into(),
                vec![Value::Integer(9), Value::text("fresh")].into(),
            ];
            rec.wal
                .append(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(sample_table(4)) },
                    },
                    WalRecord::Commit { txn: 1 },
                    WalRecord::Begin { txn: 2 },
                    WalRecord::Delta {
                        txn: 2,
                        delta: WalDelta::RowPatch {
                            table: "t".into(),
                            deletes,
                            upserts,
                            new_version: 9,
                        },
                    },
                    WalRecord::Commit { txn: 2 },
                ])
                .unwrap();
        }
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert_eq!(rec.catalog.row_count("t"), Some(4), "4 - 1 deleted + 1 inserted");
        assert_eq!(rec.catalog.version("t"), Some(9));
        let t = rec.catalog.get("t").unwrap();
        // The rewrite lands in place (row order preserved), the insert at
        // the tail, and the deleted key is gone.
        let ids: Vec<Option<i64>> = t.rows.iter().map(|r| r[0].as_i64()).collect();
        assert_eq!(ids, vec![Some(0), Some(2), Some(3), Some(9)]);
        assert_eq!(t.rows[1][1], Value::text("rewritten"));
        let _ = std::fs::remove_file(&path);
    }
}
