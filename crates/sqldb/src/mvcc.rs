//! Multiversion concurrency control: commit stamps, snapshot tickets and
//! the published-snapshot machinery behind [`Database::begin_read`].
//!
//! The design exploits one structural fact: a [`Database`] is only ever
//! mutated by its single owner (the write-lock holder), and snapshots are
//! published exclusively at *committed, quiescent* points. A snapshot is
//! therefore a set of root pointers: rowid maps, secondary indexes and
//! the frozen-table map are persistent path-copying B+trees
//! ([`crate::pmap::PMap`]), so freezing a table clones a few roots, and
//! the writer's next change copies only the root-to-leaf paths it
//! touches out of whatever snapshots still share them. A frozen rowid
//! map's entries *are* exactly the committed row versions at freeze
//! time. Readers never traverse version chains; visibility is map
//! membership, which keeps the snapshot read path byte-for-byte the same
//! cost as an ordinary read. Dropping a snapshot frees only the nodes no
//! newer version shares.
//!
//! Version chains still exist (newest-first, `begin`-stamped) because they
//! are what makes writes cheap in the presence of live snapshots: a write
//! pushes a fresh head above the old version instead of copying the row,
//! and garbage collection is *refcount-driven* — a frozen map pins every
//! version it can see through the leaf holding it (copying a shared leaf
//! bumps each version's count), so any chain node whose
//! refcount has returned to one is invisible to every reader and is
//! spliced out in place by the next write to that row (see
//! `table::trim_chain`). Versions older than the oldest live snapshot are
//! by construction unpinned, so the classic "trim below the oldest
//! reader" rule falls out as a consequence rather than being the
//! mechanism. No background thread is involved.
//!
//! [`Database::begin_read`]: crate::Database::begin_read

use crate::db::{Database, TriggerDef, ViewDef};
use crate::planner::FlattenPolicy;
use crate::pmap::PMap;
use crate::table::Table;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// MVCC bookkeeping shared between a live [`Database`], every table it
/// owns, and every snapshot it has published. All fields are independent
/// of the database's single-threaded interior, so snapshots can be
/// dropped (and their tickets deregistered) from any thread.
#[derive(Debug)]
pub(crate) struct MvccShared {
    /// Current commit stamp: bumped once per completed mutating
    /// statement. A published snapshot is valid exactly while its stamp
    /// equals this value.
    stamp: AtomicU64,
    /// Stamp of the oldest live snapshot, `u64::MAX` when none are live.
    /// Read lock-free on the write path (stats, trim fast-outs); the
    /// `live` mutex is only touched when snapshots are published or
    /// dropped.
    oldest: AtomicU64,
    /// Live snapshot registry: stamp -> number of outstanding tickets.
    live: Mutex<BTreeMap<u64, usize>>,
    /// Row versions ever created (chain pushes; first versions included).
    versions_created: AtomicU64,
    /// Row versions reclaimed by the in-place chain trim. Versions freed
    /// wholesale when a snapshot's map drops are reclaimed by `Arc` and
    /// not counted here.
    versions_gced: AtomicU64,
    /// Longest version chain observed after any single write.
    max_chain: AtomicU64,
    /// Snapshots published (memoized republications excluded).
    snapshots_published: AtomicU64,
    /// Source of table version tags: every mutation of any attached table
    /// takes a fresh value, so two table states with equal tags are
    /// guaranteed to have identical contents (clones copy the tag along
    /// with the content they share). Lets `begin_read` and
    /// [`SnapshotReader`] rebinds skip unchanged tables.
    table_ver: AtomicU64,
}

impl Default for MvccShared {
    fn default() -> Self {
        MvccShared {
            stamp: AtomicU64::new(0),
            oldest: AtomicU64::new(u64::MAX),
            live: Mutex::new(BTreeMap::new()),
            versions_created: AtomicU64::new(0),
            versions_gced: AtomicU64::new(0),
            max_chain: AtomicU64::new(0),
            snapshots_published: AtomicU64::new(0),
            table_ver: AtomicU64::new(0),
        }
    }
}

impl MvccShared {
    /// Current commit stamp.
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp.load(Ordering::Acquire)
    }

    /// Advances the commit stamp (one mutating statement completed).
    pub(crate) fn bump_stamp(&self) {
        self.stamp.fetch_add(1, Ordering::AcqRel);
    }

    /// Mints a fresh table version tag (see `MvccShared::table_ver`).
    pub(crate) fn next_table_ver(&self) -> u64 {
        self.table_ver.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Stamp of the oldest live snapshot, if any.
    pub(crate) fn oldest_live(&self) -> Option<u64> {
        match self.oldest.load(Ordering::Acquire) {
            u64::MAX => None,
            s => Some(s),
        }
    }

    /// Registers a live snapshot at `stamp` and returns the ticket whose
    /// drop deregisters it.
    pub(crate) fn register(self: &Arc<Self>, stamp: u64) -> SnapTicket {
        let mut live = self.live.lock();
        *live.entry(stamp).or_insert(0) += 1;
        let oldest = live.keys().next().copied().unwrap_or(u64::MAX);
        self.oldest.store(oldest, Ordering::Release);
        SnapTicket { mvcc: Arc::clone(self), stamp }
    }

    fn deregister(&self, stamp: u64) {
        let mut live = self.live.lock();
        if let Some(n) = live.get_mut(&stamp) {
            *n -= 1;
            if *n == 0 {
                live.remove(&stamp);
            }
        }
        let oldest = live.keys().next().copied().unwrap_or(u64::MAX);
        self.oldest.store(oldest, Ordering::Release);
    }

    /// Records a version pushed onto a chain now `chain_len` long.
    pub(crate) fn note_version(&self, chain_len: u64) {
        self.versions_created.fetch_add(1, Ordering::Relaxed);
        self.max_chain.fetch_max(chain_len, Ordering::Relaxed);
    }

    /// Records `n` versions reclaimed by the in-place trim.
    pub(crate) fn note_gced(&self, n: u64) {
        self.versions_gced.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one fresh snapshot publication.
    pub(crate) fn note_published(&self) {
        self.snapshots_published.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time counter snapshot.
    pub(crate) fn stats(&self) -> MvccStats {
        MvccStats {
            stamp: self.stamp(),
            live_snapshots: self.live.lock().values().sum(),
            oldest_live: self.oldest_live(),
            versions_created: self.versions_created.load(Ordering::Relaxed),
            versions_gced: self.versions_gced.load(Ordering::Relaxed),
            max_chain: self.max_chain.load(Ordering::Relaxed),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time MVCC counters, from [`Database::mvcc_stats`].
///
/// [`Database::mvcc_stats`]: crate::Database::mvcc_stats
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvccStats {
    /// Current commit stamp (mutating statements executed).
    pub stamp: u64,
    /// Snapshots currently live (outstanding [`ReadSnapshot`] handles and
    /// the database's own memoized publication).
    pub live_snapshots: usize,
    /// Stamp of the oldest live snapshot.
    pub oldest_live: Option<u64>,
    /// Row versions ever created.
    pub versions_created: u64,
    /// Row versions reclaimed by the in-place chain trim (versions freed
    /// when a whole snapshot map drops are reclaimed by `Arc` directly
    /// and not counted).
    pub versions_gced: u64,
    /// Longest per-row version chain observed after any single write.
    pub max_chain: u64,
    /// Snapshots published (memoized reuse excluded).
    pub snapshots_published: u64,
}

/// Keeps one snapshot registered in the live set; dropping it (from any
/// thread) deregisters and lets the trim advance past its stamp.
#[derive(Debug)]
pub(crate) struct SnapTicket {
    mvcc: Arc<MvccShared>,
    stamp: u64,
}

impl Drop for SnapTicket {
    fn drop(&mut self) {
        self.mvcc.deregister(self.stamp);
    }
}

/// An immutable, shareable freeze of a whole database at one commit
/// stamp: shallow copies of every table (rowid maps and secondary
/// indexes sharing their roots), plus the catalog needed to plan and
/// execute read-only statements.
#[derive(Debug)]
pub(crate) struct DbSnapshot {
    pub(crate) stamp: u64,
    pub(crate) catalog_gen: u64,
    pub(crate) flatten_policy: FlattenPolicy,
    pub(crate) tables: PMap<String, Arc<Table>>,
    pub(crate) views: Arc<BTreeMap<String, Arc<ViewDef>>>,
    pub(crate) triggers: Arc<BTreeMap<String, Arc<TriggerDef>>>,
    /// Keeps the snapshot registered for GC while any handle is alive.
    _ticket: SnapTicket,
}

impl DbSnapshot {
    pub(crate) fn new(
        stamp: u64,
        catalog_gen: u64,
        flatten_policy: FlattenPolicy,
        tables: PMap<String, Arc<Table>>,
        views: Arc<BTreeMap<String, Arc<ViewDef>>>,
        triggers: Arc<BTreeMap<String, Arc<TriggerDef>>>,
        ticket: SnapTicket,
    ) -> Self {
        DbSnapshot { stamp, catalog_gen, flatten_policy, tables, views, triggers, _ticket: ticket }
    }
}

// The whole point: a snapshot can be handed to reader threads while the
// writer keeps mutating. Everything inside is either plain immutable data
// or `Arc`/atomic-shared.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DbSnapshot>();
    assert_send_sync::<ReadSnapshot>();
};

/// A cheap, clonable handle on an immutable database snapshot, returned
/// by [`Database::begin_read`]. All read-only statements executed through
/// a [`SnapshotReader`] bound to this handle see exactly the committed
/// state at [`ReadSnapshot::stamp`], no matter what the writer does
/// concurrently.
///
/// [`Database::begin_read`]: crate::Database::begin_read
#[derive(Debug, Clone)]
pub struct ReadSnapshot {
    pub(crate) snap: Arc<DbSnapshot>,
}

impl ReadSnapshot {
    /// Commit stamp this snapshot was taken at.
    pub fn stamp(&self) -> u64 {
        self.snap.stamp
    }

    /// Catalog generation this snapshot was taken at (changes only on
    /// DDL/rollback, so readers can keep cached plans across data-only
    /// retargets).
    pub fn catalog_gen(&self) -> u64 {
        self.snap.catalog_gen
    }
}

/// A reusable executor for read-only statements against
/// [`ReadSnapshot`]s.
///
/// Internally this is a thin private [`Database`] whose tables are
/// re-pointed (shallowly) at whatever snapshot is bound; its prepared-
/// statement and plan caches persist across rebinds, so steady-state
/// snapshot reads pay no re-parse or re-plan cost. Retargeting to a new
/// snapshot of the *same* database is O(1): tables resolve through the
/// bound snapshot and the catalog is shared by `Arc`; cached plans are
/// dropped only when the snapshot's catalog generation changed.
///
/// A reader must only ever be bound to snapshots of one logical database
/// (stamps from different databases are not comparable). One reader per
/// thread per authority is the intended shape.
#[derive(Debug, Default)]
pub struct SnapshotReader {
    db: Database,
    stamp: Option<u64>,
    catalog_gen: Option<u64>,
}

impl SnapshotReader {
    /// Creates an empty reader (binds lazily on first use).
    pub fn new() -> Self {
        SnapshotReader::default()
    }

    /// Points the reader at `snap` and returns the database view to run
    /// `query()` against. No-op when already bound to the same stamp.
    pub fn bind(&mut self, snap: &ReadSnapshot) -> &Database {
        let s = &snap.snap;
        if self.stamp != Some(s.stamp) {
            self.db.retarget(s, self.catalog_gen != Some(s.catalog_gen));
            self.stamp = Some(s.stamp);
            self.catalog_gen = Some(s.catalog_gen);
        }
        &self.db
    }

    /// The underlying read-only database view (last bound snapshot).
    pub fn db(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn seeded() -> Database {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, data TEXT);
             INSERT INTO t (data) VALUES ('a'), ('b'), ('c');",
        )
        .unwrap();
        db
    }

    #[test]
    fn snapshot_is_immutable_under_writes() {
        let mut db = seeded();
        let snap = db.begin_read().unwrap();
        let mut reader = SnapshotReader::new();
        db.execute("UPDATE t SET data = 'X' WHERE _id = 1", &[]).unwrap();
        db.execute("DELETE FROM t WHERE _id = 2", &[]).unwrap();
        db.execute("INSERT INTO t (data) VALUES ('d')", &[]).unwrap();
        let rs = reader.bind(&snap).query("SELECT data FROM t ORDER BY _id", &[]).unwrap();
        let got: Vec<&Value> = rs.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(
            got,
            vec![&Value::Text("a".into()), &Value::Text("b".into()), &Value::Text("c".into())]
        );
        // The live database sees the new state.
        let live = db.query("SELECT data FROM t ORDER BY _id", &[]).unwrap();
        assert_eq!(live.rows.len(), 3);
        assert_eq!(live.rows[0][0], Value::Text("X".into()));
    }

    #[test]
    fn publication_is_memoized_until_a_mutation() {
        let mut db = seeded();
        let s1 = db.begin_read().unwrap();
        let s2 = db.begin_read().unwrap();
        assert_eq!(s1.stamp(), s2.stamp());
        assert_eq!(db.mvcc_stats().snapshots_published, 1);
        db.execute("INSERT INTO t (data) VALUES ('d')", &[]).unwrap();
        let s3 = db.begin_read().unwrap();
        assert!(s3.stamp() > s1.stamp());
        assert_eq!(db.mvcc_stats().snapshots_published, 2);
    }

    #[test]
    fn begin_read_refuses_inside_a_transaction() {
        let mut db = seeded();
        db.begin().unwrap();
        assert!(db.begin_read().is_none(), "uncommitted state must not be published");
        db.rollback().unwrap();
        assert!(db.begin_read().is_some());
    }

    #[test]
    fn dropping_snapshots_lets_gc_reclaim_versions() {
        let mut db = seeded();
        let snap = db.begin_read().unwrap();
        for i in 0..10 {
            db.execute("UPDATE t SET data = ?1 WHERE _id = 1", &[Value::Text(format!("v{i}"))])
                .unwrap();
        }
        let pinned = db.mvcc_stats();
        assert!(pinned.live_snapshots >= 1);
        assert!(pinned.max_chain >= 2, "a live snapshot must pin old versions");
        drop(snap);
        assert_eq!(db.mvcc_stats().live_snapshots, 0);
        // The next write to the row splices the whole stale tail: only
        // one live version per row (3 rows) remains.
        db.execute("UPDATE t SET data = 'final' WHERE _id = 1", &[]).unwrap();
        let after = db.mvcc_stats();
        assert_eq!(after.versions_created - after.versions_gced, 3);
        assert_eq!(db.mvcc_stats().max_chain, 2, "the trim kept every chain short");
    }

    #[test]
    fn snapshot_reader_keeps_plans_across_data_retargets() {
        let mut db = seeded();
        let mut reader = SnapshotReader::new();
        let s1 = db.begin_read().unwrap();
        reader.bind(&s1).query("SELECT data FROM t WHERE _id = ?1", &[Value::Integer(1)]).unwrap();
        db.execute("INSERT INTO t (data) VALUES ('d')", &[]).unwrap();
        let s2 = db.begin_read().unwrap();
        assert_eq!(s1.catalog_gen(), s2.catalog_gen());
        reader.db().stats.reset();
        let rs = reader
            .bind(&s2)
            .query("SELECT data FROM t WHERE _id = ?1", &[Value::Integer(4)])
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Text("d".into()));
        assert_eq!(reader.db().stats.stmt_cache_hits.get(), 1, "no re-parse across retarget");
        assert_eq!(reader.db().stats.stmt_cache_misses.get(), 0);
        // DDL bumps the generation; the reader re-clones the catalog.
        db.execute_batch("CREATE VIEW v AS SELECT data FROM t WHERE _id > 2").unwrap();
        let s3 = db.begin_read().unwrap();
        assert_ne!(s3.catalog_gen(), s2.catalog_gen());
        let rs = reader.bind(&s3).query("SELECT data FROM v ORDER BY data", &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn paged_tables_suppress_snapshots() {
        use maxoid_block::MemDevice;
        let mut db = seeded();
        assert!(db.begin_read().is_some());
        let tier = crate::heap::HeapTier::new(Box::new(MemDevice::with_sector_size(64)), 2);
        db.attach_heap(tier, 0);
        assert!(db.table("t").unwrap().is_paged());
        assert!(db.begin_read().is_none(), "paged rows cannot be aliased lock-free");
    }
}
