//! Integration tests for the paged durable store: the checkpoint
//! write-amplification bound (the bug this store exists to fix), recovery
//! round-trips, and the rejection of the retired `paged: false` format.
//!
//! The headline assertion is byte-counted, not vibes: after `k` point
//! updates, the next checkpoint may write O(k) pages to the page file —
//! never the whole database image.

use std::path::PathBuf;
use std::sync::Arc;

use swan_sqlengine::{Database, DurabilityConfig, Error, SharedDb, SimFs};

const WAL: &str = "/sim/paged.wal";
const PAGE: u64 = 4096;

/// Huge checkpoint budget: checkpoints happen only when the test says so.
fn manual_checkpoints() -> DurabilityConfig {
    DurabilityConfig { checkpoint_bytes: u64::MAX, ..Default::default() }
}

fn open_sim(fs: &SimFs, config: DurabilityConfig) -> Database {
    Database::open_on(Arc::new(fs.clone()), PathBuf::from(WAL), config).unwrap()
}

/// Bytes written to the page file (`<wal>.pages`) by ops `[from..]` of the
/// SimFs trace. Log appends and meta renames go to other paths, so this
/// isolates exactly the slotted-page flush traffic.
fn page_file_bytes(fs: &SimFs, from: usize) -> u64 {
    let pages_path = format!("{WAL}.pages");
    fs.ops()[from..]
        .iter()
        .filter_map(|line| {
            let rest = line.strip_prefix("write ")?;
            let (path, tail) = rest.split_once(" @")?;
            if path != pages_path {
                return None;
            }
            tail.split_once('+')?.1.parse::<u64>().ok()
        })
        .sum()
}

/// Canonical dump used to compare database states byte for byte.
fn dump(db: &Database) -> String {
    let mut out = String::new();
    for name in db.catalog().table_names() {
        let r = db.query(&format!("SELECT * FROM {name} ORDER BY 1")).unwrap();
        out.push_str(&format!("== {name} ({}) ==\n", r.columns.join(",")));
        for row in &r.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
            out.push_str(&cells.join("\u{1}"));
            out.push('\n');
        }
    }
    out
}

/// Load `n` rows of ~200 bytes each (≈ 50 KiB per 256 rows — the whole
/// working set stays far inside the default 256-page pool, so the only
/// page-file writes are checkpoint flushes, never mid-transaction
/// evictions).
fn load_rows(db: &mut Database, n: usize) {
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, body TEXT)")
        .unwrap();
    let mut i = 0usize;
    while i < n {
        let mut stmt = String::from("INSERT INTO t VALUES ");
        let end = (i + 128).min(n);
        for (j, id) in (i..end).enumerate() {
            if j > 0 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({id}, '{:x>180}')", id));
        }
        db.execute(&stmt).unwrap();
        i = end;
    }
}

#[test]
fn incremental_checkpoint_writes_o_of_k_pages() {
    let fs = SimFs::new();
    let mut db = open_sim(&fs, manual_checkpoints());
    load_rows(&mut db, 2000);

    // First checkpoint materialises the whole tree: O(database) writes,
    // paid once. Record its cost as the O(database) yardstick.
    let mark = fs.ops().len();
    db.checkpoint().unwrap();
    let full_bytes = page_file_bytes(&fs, mark);
    let stats = db.pager_stats().expect("durable database");
    assert!(
        stats.pages >= 50,
        "2000 rows × ~200 B must span many pages, got {}",
        stats.pages
    );
    assert!(
        full_bytes >= stats.pages / 2 * PAGE,
        "the first checkpoint writes the whole database: {full_bytes} bytes for {} pages",
        stats.pages
    );

    // k = 3 point updates dirty O(k) leaf pages (plus a bounded number of
    // interior/meta pages). The follow-up checkpoint must flush only those.
    let k = 3u64;
    let mark = fs.ops().len();
    for id in [17, 920, 1843] {
        db.execute(&format!("UPDATE t SET body = 'small-{id}' WHERE id = {id}"))
            .unwrap();
    }
    db.checkpoint().unwrap();
    let incr_bytes = page_file_bytes(&fs, mark);
    let incr_pages = incr_bytes / PAGE;
    assert!(incr_bytes > 0, "a dirty tree must flush something");
    // Generous O(k) slack: k leaves + the root spine + the table-meta page.
    assert!(
        incr_pages <= 4 * k + 6,
        "checkpoint after {k} updates wrote {incr_pages} pages — that is O(database), not O(k)"
    );
    assert!(
        incr_bytes * 4 < full_bytes,
        "incremental checkpoint ({incr_bytes} B) must be far below a full image ({full_bytes} B)"
    );

    // An empty checkpoint is free on the page file: nothing is dirty.
    let mark = fs.ops().len();
    db.checkpoint().unwrap();
    assert_eq!(
        page_file_bytes(&fs, mark),
        0,
        "a clean pager has nothing to flush"
    );

    // And the flushed state is the recovered state.
    let expected = dump(&db);
    drop(db);
    let db = open_sim(&fs, manual_checkpoints());
    assert_eq!(dump(&db), expected, "reboot must reproduce the checkpointed state");
}

#[test]
fn recovery_replays_tail_commits_over_the_checkpoint() {
    let fs = SimFs::new();
    let mut db = open_sim(&fs, manual_checkpoints());
    load_rows(&mut db, 300);
    db.checkpoint().unwrap();
    // Post-checkpoint commits live only in the log tail.
    db.execute("UPDATE t SET body = 'tail' WHERE id = 7").unwrap();
    db.execute("DELETE FROM t WHERE id = 8").unwrap();
    db.execute("INSERT INTO t VALUES (300, 'tail-insert')").unwrap();
    let expected = dump(&db);
    drop(db);

    let db = open_sim(&fs, manual_checkpoints());
    assert_eq!(dump(&db), expected, "checkpoint + tail replay must round-trip");
}

/// `paged: false` selected the retired whole-image format: opening with
/// it is a typed error on every entry point, never a silent fallback.
#[test]
fn paged_false_is_rejected_at_open() {
    let fs = SimFs::new();
    let retired = DurabilityConfig { paged: false, ..manual_checkpoints() };
    let db = Database::open_on(Arc::new(fs.clone()), PathBuf::from(WAL), retired);
    assert!(matches!(db, Err(Error::Unsupported(_))), "Database: {:?}", db.err());
    let shared = SharedDb::open_on(Arc::new(fs.clone()), PathBuf::from(WAL), retired);
    assert!(matches!(shared, Err(Error::Unsupported(_))), "SharedDb: {:?}", shared.err());
    assert!(fs.ops().is_empty(), "a rejected open must not touch the filesystem");
}
