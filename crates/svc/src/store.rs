//! The sharded, content-addressed analysis store.
//!
//! Two tiers:
//!
//! - **Memory** — full [`AppCacheEntry`]s (replay seeds, `Arc`'d
//!   dataflow artifacts, report) sharded by app key, LRU-evicted under
//!   an approximate byte budget (one batch of huge apps must not blow
//!   past a memory target that a thousand small apps respect). Every
//!   [`crate::AnalysisService`] passes `usize::MAX` as the entry-count
//!   cap, so its tier is bounded by bytes only; the entry cap is used
//!   only by tests and `cache-gc`. Seeds embed interned symbol ids and
//!   shared pointers, so this tier is process-local by construction. A store
//!   built with a byte budget of 0 has no memory tier at all: inserts
//!   go to disk only and lookups find nothing — the shape for a
//!   one-shot process, which exits before it could read the tier back.
//! - **Disk** (optional, under `--cache-dir`) — the durable subset: the
//!   bundle and config fingerprints plus the report in the faithful
//!   [`crate::wire`] format. A disk hit serves an *identical* bundle
//!   across process restarts; a changed bundle misses and re-records —
//!   but the stale entry is still *readable* ([`AnalysisStore::lookup_disk_any`]),
//!   which is what lets a resubmitted app version produce a defect
//!   delta even across process boundaries.
//!
//! The disk tier is garbage-collected by [`AnalysisStore::gc_disk`]:
//! size-budgeted LRU eviction ordered by each entry file's own mtime,
//! which records its last write or last flushed read, whichever came
//! later. A disk hit does **no** file I/O beyond the read on the hot
//! path: reads land in an in-memory write-behind journal
//! ([`AnalysisStore::flush_atimes`]) that is flushed in batches —
//! before every GC scan, on [`AnalysisStore::sync_disk`], and when the
//! store drops. A crash loses only the unflushed journal; those
//! entries are then ranked by their previous stamp (an entry is never
//! evicted *wrongly*, only ranked by an older stamp). Eviction is
//! plain `unlink` against tmp+rename writers, so a concurrent reader
//! sees a full entry or a miss — never a torn one. Quarantined
//! `.quarantine` files are outside the cache namespace: GC neither
//! counts them against the budget nor touches them.
//!
//! The store also keeps a **live occupancy estimate** of the disk tier
//! (seeded by one startup scan, maintained on every insert, eviction,
//! and quarantine), so a budgeted service can gate GC on a watermark
//! ([`AnalysisStore::maybe_gc_disk`]) instead of paying a full
//! directory rescan per batch: under the high watermark the check is
//! one atomic load and a `svc.cache.gc_skipped` bump.
//!
//! Every lookup runs under a `cache_lookup` span and bumps the
//! `svc.cache.{hit,miss}` counters on the obs handle it is given;
//! evictions bump `svc.cache.evict`, GC bumps `svc.cache.gc_*`. Corrupt
//! disk files decode as misses, never errors — and are *quarantined*
//! (renamed out of the cache namespace) so they are not re-read and
//! re-rejected on every subsequent lookup.
//!
//! Besides the per-app obs handle, the store owns a service-lifetime
//! [`Metrics`] registry mirroring every `svc.cache.*` counter. Per-app
//! handles are often disabled (reports must stay byte-identical to
//! uninstrumented runs), but a long-lived service still needs the
//! lifetime totals — the `--doctor` snapshot and the daemon's `doctor`
//! verb read them from [`AnalysisStore::metrics`].

use nchecker::cache::AppCacheEntry;
use nck_obs::{Metrics, Obs};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::SystemTime;

const SHARDS: usize = 16;

/// Default memory-tier capacity (entries across all shards).
pub const DEFAULT_CAPACITY: usize = 256;

/// Default memory-tier byte budget (approximate, across all shards).
/// This is the only bound on a service's memory tier: the service sets
/// no entry-count cap (it passes `usize::MAX`).
pub const DEFAULT_MEM_BYTES: usize = 256 << 20;

fn key_hash(key: &str) -> u64 {
    nck_dex::wire::fnv1a(key.as_bytes())
}

/// One resident memory-tier entry.
struct MemEntry {
    /// Last-used tick (LRU ordering).
    tick: u64,
    /// Approximate byte charge ([`AppCacheEntry::approx_bytes`]).
    approx: usize,
    entry: Arc<AppCacheEntry>,
    /// Lazily-filled rendered one-shot JSON of this entry's report,
    /// shared out via [`AnalysisStore::render_cell`]. Reset whenever
    /// the entry is replaced, so the bytes always describe `entry`.
    rendered: Arc<RenderCell>,
}

/// A memoization slot for one cache entry's rendered one-shot `--json`
/// bytes. Filled at most once per resident entry; consumers that find
/// it filled skip re-encoding the report entirely.
#[derive(Debug, Default)]
pub struct RenderCell(OnceLock<Arc<String>>);

impl RenderCell {
    /// The cached rendering, computing (and caching) it via `render` on
    /// first use.
    pub fn get_or_render(&self, render: impl FnOnce() -> String) -> Arc<String> {
        Arc::clone(self.0.get_or_init(|| Arc::new(render())))
    }

    /// The cached rendering, if one was ever computed.
    pub fn get(&self) -> Option<Arc<String>> {
        self.0.get().cloned()
    }
}

struct Shard {
    entries: HashMap<String, MemEntry>,
    /// Sum of the approx-bytes column.
    bytes: usize,
}

/// A sharded two-tier analysis cache, safe to hammer from the pool.
pub struct AnalysisStore {
    shards: Vec<Mutex<Shard>>,
    clock: AtomicU64,
    capacity: usize,
    mem_budget: usize,
    disk: Option<PathBuf>,
    metrics: Metrics,
    /// Write-behind atime journal: entry path → last read stamp.
    /// Flushed to the entries' mtimes by [`AnalysisStore::flush_atimes`].
    atime_journal: Mutex<HashMap<PathBuf, SystemTime>>,
    /// Live disk-tier occupancy estimate, bytes. Valid once
    /// `disk_seeded` ran; resynced to exact numbers by every GC scan.
    disk_bytes: AtomicU64,
    /// Gates the one startup scan that seeds `disk_bytes`.
    disk_seeded: Once,
}

impl AnalysisStore {
    /// An in-memory store with the default capacity and no disk tier.
    pub fn new() -> AnalysisStore {
        AnalysisStore::with_options(DEFAULT_CAPACITY, None)
    }

    /// A store with an explicit entry capacity, the default byte
    /// budget, and an optional disk directory (created on first write).
    pub fn with_options(capacity: usize, disk: Option<PathBuf>) -> AnalysisStore {
        AnalysisStore::with_budgets(capacity, DEFAULT_MEM_BYTES, disk)
    }

    /// A store with explicit entry and byte caps on the memory tier.
    /// Eviction triggers when *either* cap is exceeded; a shard always
    /// retains at least its newest entry, so one entry larger than the
    /// whole budget still caches (and evicts everything else). A
    /// `mem_budget` of 0 disables the memory tier: nothing is ever
    /// resident, so [`AnalysisStore::insert`] writes the disk tier only
    /// and [`AnalysisStore::promote`] is a no-op.
    pub fn with_budgets(
        capacity: usize,
        mem_budget: usize,
        disk: Option<PathBuf>,
    ) -> AnalysisStore {
        AnalysisStore {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        bytes: 0,
                    })
                })
                .collect(),
            clock: AtomicU64::new(0),
            capacity: capacity.max(1),
            mem_budget,
            disk,
            metrics: Metrics::enabled(),
            atime_journal: Mutex::new(HashMap::new()),
            disk_bytes: AtomicU64::new(0),
            disk_seeded: Once::new(),
        }
    }

    /// Whether the memory tier exists (a nonzero byte budget).
    pub fn has_memory(&self) -> bool {
        self.mem_budget > 0
    }

    /// Whether a disk tier is configured.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// The store-lifetime metrics registry: every `svc.cache.*` counter
    /// this store ever bumped, regardless of whether the per-app obs
    /// handle of the moment was recording.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn count(&self, name: &str, by: u64, obs: &Obs) {
        self.metrics.inc(name, by);
        obs.metrics.inc(name, by);
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(key_hash(key) as usize) % SHARDS]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Memory-tier lookup. Counts neither hit nor miss — the *outcome*
    /// of the analysis (whole-report reuse vs. recompute) decides that;
    /// see [`AnalysisStore::count_outcome`].
    pub fn lookup(&self, key: &str, obs: &Obs) -> Option<Arc<AppCacheEntry>> {
        let _s = obs.tracer.span("cache_lookup");
        let mut shard = lock(self.shard(key));
        let tick = self.tick();
        shard.entries.get_mut(key).map(|slot| {
            slot.tick = tick;
            Arc::clone(&slot.entry)
        })
    }

    /// The render-memoization cell of the resident memory entry for
    /// `key`, provided that entry was recorded for `bundle_fp` (a cell
    /// must never serve bytes rendered from a different bundle's
    /// report). `None` when the key is absent or the entry moved on.
    pub fn render_cell(&self, key: &str, bundle_fp: u64) -> Option<Arc<RenderCell>> {
        let shard = lock(self.shard(key));
        shard
            .entries
            .get(key)
            .filter(|m| m.entry.bundle_fp == bundle_fp)
            .map(|m| Arc::clone(&m.rendered))
    }

    /// Disk-tier read: returns whatever well-formed entry exists for
    /// `(key, config_fp)`, along with the bundle fingerprint it was
    /// recorded for. The caller decides hit (fingerprints match) vs.
    /// *delta base* (they differ — the entry's report describes the
    /// previous version of this app).
    ///
    /// A *corrupt* entry (unparseable, wrong wire schema, or a shape the
    /// decoder rejects) is quarantined: left in place it would be
    /// re-read and re-rejected on every lookup and permanently inflate
    /// the disk occupancy stats. Reading records the entry in the
    /// in-memory atime journal (no extra I/O on the hot path), which is
    /// what makes [`AnalysisStore::gc_disk`]'s eviction order an LRU
    /// rather than FIFO.
    pub fn lookup_disk_any(
        &self,
        key: &str,
        config_fp: u64,
        obs: &Obs,
    ) -> Option<(u64, nchecker::AppReport)> {
        let dir = self.disk.as_deref()?;
        let _s = obs.tracer.span("cache_lookup_disk");
        let path = disk_path(dir, key, config_fp);
        let text = std::fs::read_to_string(&path).ok()?;
        match decode_disk_entry(&text, config_fp) {
            DiskEntry::Entry(stored_fp, report) => {
                lock_plain(&self.atime_journal).insert(path, SystemTime::now());
                Some((stored_fp, *report))
            }
            DiskEntry::Corrupt => {
                self.quarantine(&path, obs);
                None
            }
        }
    }

    /// Flushes the write-behind atime journal: every journaled read
    /// moves its entry file's mtime forward to the recorded read stamp
    /// (never back — an entry rewritten since the read keeps its newer
    /// write stamp), so relative recency survives the batching exactly.
    /// Entries that vanished since the read (evicted, quarantined) are
    /// skipped, never recreated. Called before every GC scan, by
    /// [`AnalysisStore::sync_disk`], and on drop; a crash in between
    /// loses only the journal, never an entry.
    pub fn flush_atimes(&self) {
        let drained: Vec<(PathBuf, SystemTime)> = {
            let mut journal = lock_plain(&self.atime_journal);
            journal.drain().collect()
        };
        for (path, stamp) in drained {
            let Ok(f) = std::fs::File::options().write(true).open(&path) else {
                continue;
            };
            if f.metadata()
                .and_then(|m| m.modified())
                .is_ok_and(|mtime| mtime < stamp)
            {
                let _ = f.set_modified(stamp);
            }
        }
    }

    /// Reads pending in the atime journal (tests and introspection).
    pub fn journaled_atimes(&self) -> usize {
        lock_plain(&self.atime_journal).len()
    }

    /// Renames a corrupt cache file out of the cache namespace
    /// (`.json` → `.quarantine`, which [`scan_disk`] and lookups both
    /// ignore), deleting it outright if even the rename fails — a
    /// quarantined entry must never be charged against the GC budget
    /// again.
    fn quarantine(&self, path: &Path, obs: &Obs) {
        self.seed_occupancy();
        let len = std::fs::metadata(path).map_or(0, |m| m.len());
        if std::fs::rename(path, path.with_extension("quarantine")).is_err() {
            let _ = std::fs::remove_file(path);
        }
        lock_plain(&self.atime_journal).remove(path);
        self.sub_occupancy(len);
        self.count("svc.cache.corrupt_evict", 1, obs);
        obs.events.warn(&format!(
            "cache: quarantined corrupt entry {}",
            path.display()
        ));
    }

    /// Records a finished clean analysis in both tiers. Degraded apps
    /// must never reach this (the service enforces it; the checker
    /// already returns no entry for them).
    pub fn insert(&self, key: &str, entry: AppCacheEntry, obs: &Obs) {
        if let Some(dir) = self.disk.as_deref() {
            self.seed_occupancy();
            let (new_len, old_len) = write_disk(dir, key, &entry, obs);
            self.sub_occupancy(old_len);
            self.disk_bytes.fetch_add(new_len, Ordering::Relaxed);
        }
        self.insert_memory(key, entry, obs);
    }

    /// Promotes an entry into the memory tier *only* — the disk tier
    /// already holds it. Used on a disk hit so the next lookup for the
    /// same key is a memory hit instead of a read + decode.
    pub fn promote(&self, key: &str, entry: AppCacheEntry, obs: &Obs) {
        self.insert_memory(key, entry, obs);
    }

    fn insert_memory(&self, key: &str, entry: AppCacheEntry, obs: &Obs) {
        if !self.has_memory() {
            return;
        }
        let approx = entry.approx_bytes();
        let slot = MemEntry {
            tick: self.tick(),
            approx,
            entry: Arc::new(entry),
            rendered: Arc::new(RenderCell::default()),
        };
        let mut shard = lock(self.shard(key));
        if let Some(old) = shard.entries.insert(key.to_owned(), slot) {
            shard.bytes -= old.approx;
        }
        shard.bytes += approx;
        // Per-shard share of the global caps, at least 1 entry / 1 byte.
        // Evicting down to (but never past) a single entry means an
        // over-budget giant still caches.
        let cap = self.capacity.div_ceil(SHARDS);
        let byte_cap = self.mem_budget.div_ceil(SHARDS);
        while (shard.entries.len() > cap || shard.bytes > byte_cap) && shard.entries.len() > 1 {
            let oldest = shard
                .entries
                .iter()
                .min_by(|(ka, ma), (kb, mb)| (ma.tick, ka.as_str()).cmp(&(mb.tick, kb.as_str())))
                .map(|(k, _)| k.clone())
                .expect("non-empty shard");
            if let Some(old) = shard.entries.remove(&oldest) {
                shard.bytes -= old.approx;
            }
            self.count("svc.cache.evict", 1, obs);
        }
    }

    /// Bumps `svc.cache.hit` or `svc.cache.miss` for one analyzed app.
    /// Whole-report reuse (from either tier) is the only thing counted
    /// as a hit: partial prefix reuse still recomputes the report, and
    /// its savings show up in the reuse stats instead.
    pub fn count_outcome(&self, hit: bool, obs: &Obs) {
        self.count(
            if hit {
                "svc.cache.hit"
            } else {
                "svc.cache.miss"
            },
            1,
            obs,
        );
    }

    /// Records one rung-2 incremental analysis: a cache miss whose
    /// class prefix replayed. `classes` is the replayed class count.
    pub fn count_replay(&self, classes: u64, obs: &Obs) {
        self.count("svc.cache.replay_apps", 1, obs);
        self.count("svc.cache.replay_classes", classes, obs);
    }

    /// Records one computed defect delta (a resubmission under a known
    /// key whose bundle changed).
    pub fn count_delta(&self, obs: &Obs) {
        self.count("svc.cache.deltas", 1, obs);
    }

    /// Number of memory-tier entries, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard memory-tier entry counts, in shard order.
    pub fn mem_shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| lock(s).entries.len()).collect()
    }

    /// Approximate memory-tier bytes, across all shards (the
    /// [`AppCacheEntry::approx_bytes`] accounting the byte cap evicts
    /// on).
    pub fn mem_bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).bytes).sum()
    }

    /// Records the memory tier's occupancy as point-in-time gauges:
    /// `svc.cache.mem_entries` (total), `svc.cache.mem_bytes`
    /// (approximate resident size), and `svc.cache.mem_largest_shard`
    /// (balance indicator).
    pub fn record_gauges(&self, metrics: &nck_obs::Metrics) {
        let sizes = self.mem_shard_sizes();
        metrics.gauge("svc.cache.mem_entries", sizes.iter().sum::<usize>() as i64);
        metrics.gauge("svc.cache.mem_bytes", self.mem_bytes() as i64);
        metrics.gauge(
            "svc.cache.mem_largest_shard",
            sizes.iter().copied().max().unwrap_or(0) as i64,
        );
    }

    /// Scans this store's disk tier. Zeroed stats when no disk tier is
    /// configured or the directory does not exist yet.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.as_deref().map_or_else(DiskStats::new, scan_disk)
    }

    /// Seeds the live occupancy estimate with one full scan, exactly
    /// once per store. Every disk mutation calls this first, so the
    /// estimate never double-counts the seeding scan's own bytes.
    fn seed_occupancy(&self) {
        self.disk_seeded.call_once(|| {
            self.disk_bytes
                .store(self.disk_stats().bytes, Ordering::Relaxed);
        });
    }

    fn sub_occupancy(&self, len: u64) {
        let _ = self
            .disk_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(len))
            });
    }

    /// The live disk-tier occupancy estimate, in bytes. Seeded by one
    /// scan on first use, then maintained incrementally on every
    /// insert, quarantine, and GC resync — reading it is one atomic
    /// load, not a directory walk.
    pub fn disk_occupancy(&self) -> u64 {
        self.seed_occupancy();
        self.disk_bytes.load(Ordering::Relaxed)
    }

    /// Watermark-gated GC: a no-op (one atomic load plus a
    /// `svc.cache.gc_skipped` bump) while the occupancy estimate is at
    /// or under `budget` (the high watermark). When occupancy crosses
    /// it, collects down to the *low* watermark — `budget` minus one
    /// eighth — so the next run is not re-triggered by the very next
    /// insert (hysteresis). Returns `None` when the run was skipped.
    pub fn maybe_gc_disk(&self, budget: u64, obs: &Obs) -> Option<GcStats> {
        self.disk.as_ref()?;
        if self.disk_occupancy() <= budget {
            self.count("svc.cache.gc_skipped", 1, obs);
            return None;
        }
        let low = budget - budget / 8;
        Some(self.gc_disk(low, obs))
    }

    /// Garbage-collects the disk tier down to `budget` bytes of cache
    /// entries, evicting least-recently-used first (by entry mtime: last
    /// write or last flushed read; ties break on file name so repeated
    /// runs evict deterministically).
    ///
    /// Safe under concurrent readers and writers: eviction is a plain
    /// `unlink`, and entries are written tmp+rename, so a reader racing
    /// GC sees the full entry or a miss — never a torn file.
    /// `.quarantine` and `.tmp` files are outside the cache namespace:
    /// neither counted against the budget nor deleted.
    ///
    /// Counts `svc.cache.gc_runs`, `svc.cache.gc_evicted`, and
    /// `svc.cache.gc_freed_bytes`. A no-op (no disk tier, or already
    /// under budget) still counts the run.
    pub fn gc_disk(&self, budget: u64, obs: &Obs) -> GcStats {
        self.count("svc.cache.gc_runs", 1, obs);
        let mut stats = GcStats::default();
        let Some(dir) = self.disk.as_deref() else {
            return stats;
        };
        let _s = obs.tracer.span("cache_gc");
        // Journaled reads reach the entry mtimes before the scan, so the
        // eviction order sees every recorded recency. Reads a *crashed*
        // predecessor never flushed rank by the older stamp below.
        self.flush_atimes();
        let mut entries: Vec<(SystemTime, String, u64)> = Vec::new();
        let Ok(dirents) = std::fs::read_dir(dir) else {
            return stats;
        };
        for dirent in dirents.flatten() {
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            if !is_entry_name(name) {
                continue;
            }
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            let stamp = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((stamp, name.to_owned(), meta.len()));
        }
        stats.entries = entries.len() as u64;
        stats.bytes = entries.iter().map(|(_, _, len)| len).sum();
        if stats.bytes <= budget {
            return stats;
        }
        entries.sort();
        let mut live = stats.bytes;
        for (_, name, len) in entries {
            if live <= budget {
                break;
            }
            let path = dir.join(&name);
            if std::fs::remove_file(&path).is_ok() {
                live -= len;
                stats.evicted += 1;
                stats.freed_bytes += len;
            }
        }
        self.count("svc.cache.gc_evicted", stats.evicted, obs);
        self.count("svc.cache.gc_freed_bytes", stats.freed_bytes, obs);
        // The scan just measured the tier exactly; resync the estimate.
        self.disk_seeded.call_once(|| {});
        self.disk_bytes.store(stats.live_bytes(), Ordering::Relaxed);
        if stats.evicted > 0 {
            obs.events.info(&format!(
                "cache-gc: evicted {} of {} entries ({} bytes freed)",
                stats.evicted, stats.entries, stats.freed_bytes
            ));
        }
        stats
    }

    /// Best-effort flush of the disk tier: writes out the atime
    /// journal, then fsyncs the cache directory. Entry files are
    /// written tmp+rename; the directory fsync is what makes the
    /// renames themselves durable, so a daemon calls this once at
    /// shutdown rather than per write.
    pub fn sync_disk(&self) {
        self.flush_atimes();
        if let Some(dir) = self.disk.as_deref() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
}

impl Drop for AnalysisStore {
    fn drop(&mut self) {
        // A clean shutdown persists every journaled read; a crash
        // skips this and GC ranks those entries by their older stamp.
        self.flush_atimes();
    }
}

/// One [`AnalysisStore::gc_disk`] run's accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Cache entries found by the scan (before eviction).
    pub entries: u64,
    /// Their total bytes (before eviction).
    pub bytes: u64,
    /// Entries evicted this run.
    pub evicted: u64,
    /// Bytes those evictions freed.
    pub freed_bytes: u64,
}

impl GcStats {
    /// Bytes still held by cache entries after the run.
    pub fn live_bytes(&self) -> u64 {
        self.bytes - self.freed_bytes
    }
}

enum DiskEntry {
    /// A well-formed entry: the bundle fingerprint it was recorded for,
    /// plus its report.
    Entry(u64, Box<nchecker::AppReport>),
    Corrupt,
}

fn decode_disk_entry(text: &str, config_fp: u64) -> DiskEntry {
    let Ok(v) = serde_json::from_str(text) else {
        return DiskEntry::Corrupt;
    };
    let fps = (|| {
        let b = v.get("bundle_fp")?.as_str()?.parse::<u64>().ok()?;
        let c = v.get("config_fp")?.as_str()?.parse::<u64>().ok()?;
        Some((b, c))
    })();
    let Some((stored_bundle, stored_config)) = fps else {
        return DiskEntry::Corrupt;
    };
    if stored_config != config_fp {
        // The file name encodes the config fingerprint, so a mismatch
        // inside means the payload does not belong to its name.
        return DiskEntry::Corrupt;
    }
    match v.get("report").and_then(crate::wire::report_from_wire) {
        Some(report) => DiskEntry::Entry(stored_bundle, Box::new(report)),
        None => DiskEntry::Corrupt,
    }
}

/// Disk-tier occupancy, derived from the cache directory alone (the
/// shard of each entry is recoverable from its file name).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Cache entries (well-formed `.json` files).
    pub entries: u64,
    /// Total bytes across those entries.
    pub bytes: u64,
    /// Entries per shard, `SHARDS` slots in shard order.
    pub shards: Vec<u64>,
}

impl DiskStats {
    /// Empty stats with all shard slots present.
    pub fn new() -> DiskStats {
        DiskStats {
            entries: 0,
            bytes: 0,
            shards: vec![0; SHARDS],
        }
    }
}

/// Whether `name` is a well-formed cache entry file name
/// (`{key_hash:016x}-{config_fp:016x}.json`). `.tmp` leftovers and
/// `.quarantine`d corrupt entries both fail this.
fn is_entry_name(name: &str) -> bool {
    let Some(stem) = name.strip_suffix(".json") else {
        return false;
    };
    let mut parts = stem.splitn(2, '-');
    let (Some(key_hex), Some(cfg_hex)) = (parts.next(), parts.next()) else {
        return false;
    };
    key_hex.len() == 16
        && cfg_hex.len() == 16
        && u64::from_str_radix(key_hex, 16).is_ok()
        && u64::from_str_radix(cfg_hex, 16).is_ok()
}

/// Scans `dir` for cache entries. Files that are not well-formed cache
/// names — including `.tmp` leftovers and `.quarantine`d corrupt
/// entries — are ignored.
fn scan_disk(dir: &Path) -> DiskStats {
    let mut stats = DiskStats::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return stats;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !is_entry_name(name) {
            continue;
        }
        let key_hash = u64::from_str_radix(&name[..16], 16).expect("validated hex");
        stats.entries += 1;
        stats.shards[(key_hash as usize) % SHARDS] += 1;
        if let Ok(meta) = entry.metadata() {
            stats.bytes += meta.len();
        }
    }
    stats
}

impl Default for AnalysisStore {
    fn default() -> Self {
        AnalysisStore::new()
    }
}

fn lock(m: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_plain<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disk file name: key hash + config fingerprint, both hex. The key is
/// hashed (not embedded) so arbitrary package strings cannot escape the
/// cache directory.
fn disk_path(dir: &Path, key: &str, config_fp: u64) -> PathBuf {
    dir.join(format!("{:016x}-{config_fp:016x}.json", key_hash(key)))
}

/// Writes one entry tmp+rename, returning `(new_len, replaced_len)` —
/// the bytes the write added and the bytes of whatever same-named
/// entry it overwrote — so the caller can maintain the live occupancy
/// estimate without a rescan.
fn write_disk(dir: &Path, key: &str, entry: &AppCacheEntry, obs: &Obs) -> (u64, u64) {
    // u64 fingerprints ride as strings: the wire format's numbers are
    // i64, and fingerprints use the full unsigned range.
    let v = serde_json::json!({
        "schema": crate::wire::WIRE_SCHEMA,
        "bundle_fp": entry.bundle_fp.to_string(),
        "config_fp": entry.config_fp.to_string(),
        "report": crate::wire::report_to_wire(&entry.report),
    });
    let Ok(text) = serde_json::to_string(&v) else {
        return (0, 0);
    };
    // Cache writes are best-effort: a read-only or vanished directory
    // degrades to memory-only, it does not fail the analysis.
    if std::fs::create_dir_all(dir).is_err() {
        obs.events.warn("cache dir could not be created");
        return (0, 0);
    }
    let path = disk_path(dir, key, entry.config_fp);
    let old_len = std::fs::metadata(&path).map_or(0, |m| m.len());
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, &text).is_ok() {
        if std::fs::rename(&tmp, &path).is_err() {
            obs.events.warn("cache file rename failed");
        } else {
            return (text.len() as u64, old_len);
        }
    }
    (0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nchecker::cache::AppCacheEntry;
    use nchecker::AppReport;

    fn entry(bundle_fp: u64, package: &str) -> AppCacheEntry {
        let mut report = AppReport::default();
        report.stats.package = package.to_owned();
        AppCacheEntry {
            bundle_fp,
            config_fp: 42,
            class_fps: Vec::new(),
            lift_seed: Default::default(),
            callee_fps: Vec::new(),
            analyses: Default::default(),
            summary_seed: Default::default(),
            report,
        }
    }

    /// The disk-tier report for `key`, provided it was recorded for
    /// exactly `bundle_fp`: a whole-report hit.
    fn disk_hit(
        store: &AnalysisStore,
        key: &str,
        bundle_fp: u64,
        config_fp: u64,
        obs: &Obs,
    ) -> Option<AppReport> {
        let (stored_fp, report) = store.lookup_disk_any(key, config_fp, obs)?;
        (stored_fp == bundle_fp).then_some(report)
    }

    /// Sets the mtime of `path` (the LRU stamp of a disk-tier entry).
    fn set_mtime(path: &Path, stamp: SystemTime) {
        let f = std::fs::File::options().write(true).open(path).unwrap();
        f.set_modified(stamp).unwrap();
    }

    fn mtime(path: &Path) -> SystemTime {
        std::fs::metadata(path).unwrap().modified().unwrap()
    }

    fn at(secs: u64) -> SystemTime {
        SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nck-svc-store-{tag}-{}-{}",
            std::process::id(),
            key_hash(tag)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lookup_returns_what_insert_stored() {
        let store = AnalysisStore::new();
        let obs = Obs::disabled();
        assert!(store.lookup("app.a", &obs).is_none());
        store.insert("app.a", entry(1, "app.a"), &obs);
        let got = store.lookup("app.a", &obs).unwrap();
        assert_eq!(got.bundle_fp, 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        // Capacity 1 → every shard caps at 1 entry; two keys in the
        // same shard must evict the older.
        let store = AnalysisStore::with_options(1, None);
        let obs = Obs::enabled();
        // Find two keys landing in the same shard.
        let k1 = "app.x".to_owned();
        let mut k2 = None;
        for i in 0..200 {
            let cand = format!("app.y{i}");
            if (key_hash(&cand) as usize) % SHARDS == (key_hash(&k1) as usize) % SHARDS {
                k2 = Some(cand);
                break;
            }
        }
        let k2 = k2.expect("a colliding shard key exists");
        store.insert(&k1, entry(1, &k1), &obs);
        store.insert(&k2, entry(2, &k2), &obs);
        assert!(store.lookup(&k1, &obs).is_none(), "older key evicted");
        assert!(store.lookup(&k2, &obs).is_some());
        assert_eq!(
            *obs.metrics
                .snapshot()
                .counters
                .get("svc.cache.evict")
                .unwrap(),
            1
        );
    }

    #[test]
    fn byte_budget_evicts_before_the_entry_cap() {
        // Entry cap is generous; the byte budget is what binds. Entries
        // with many class fingerprints are charged more.
        let big = |fp: u64, package: &str| {
            let mut e = entry(fp, package);
            e.class_fps = vec![0; 1000]; // ~384 KB of charged bytes
            e
        };
        let budget = big(0, "probe").approx_bytes() * SHARDS * 2;
        let store = AnalysisStore::with_budgets(1_000_000, budget, None);
        let obs = Obs::enabled();
        // Find three keys in one shard: per-shard byte cap fits ~2 big
        // entries, so the third insert evicts the least recently used.
        let mut keys = Vec::new();
        for i in 0..400 {
            let cand = format!("app.b{i}");
            if (key_hash(&cand) as usize).is_multiple_of(SHARDS) {
                keys.push(cand);
                if keys.len() == 3 {
                    break;
                }
            }
        }
        assert_eq!(keys.len(), 3, "three same-shard keys exist");
        for (i, k) in keys.iter().enumerate() {
            store.insert(k, big(i as u64, k), &obs);
        }
        assert!(
            store.lookup(&keys[0], &obs).is_none(),
            "oldest evicted by byte pressure"
        );
        assert!(store.lookup(&keys[2], &obs).is_some());
        assert!(
            obs.metrics.snapshot().counters["svc.cache.evict"] >= 1,
            "byte eviction counted"
        );
        // Accounting matches what is resident.
        assert!(store.mem_bytes() <= budget.div_ceil(SHARDS) * SHARDS);
    }

    #[test]
    fn reinserting_a_key_replaces_its_byte_charge() {
        let store = AnalysisStore::new();
        let obs = Obs::disabled();
        let mut fat = entry(1, "app.r");
        fat.class_fps = vec![0; 1000];
        let fat_bytes = fat.approx_bytes();
        store.insert("app.r", fat, &obs);
        assert_eq!(store.mem_bytes(), fat_bytes);
        let lean = entry(2, "app.r");
        let lean_bytes = lean.approx_bytes();
        store.insert("app.r", lean, &obs);
        assert_eq!(store.mem_bytes(), lean_bytes, "old charge released");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn an_oversized_entry_still_caches() {
        // One entry bigger than the whole budget: everything else
        // evicts, the newcomer stays.
        let store = AnalysisStore::with_budgets(16, 1, None);
        let obs = Obs::enabled();
        store.insert("app.huge", entry(1, "app.huge"), &obs);
        assert!(store.lookup("app.huge", &obs).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn disk_tier_roundtrips_and_rejects_stale_fingerprints() {
        let dir = tmpdir("roundtrip");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        store.insert("app.d", entry(7, "app.d"), &obs);
        let hit = disk_hit(&store, "app.d", 7, 42, &obs).unwrap();
        assert_eq!(hit.stats.package, "app.d");
        assert!(
            disk_hit(&store, "app.d", 8, 42, &obs).is_none(),
            "bundle moved"
        );
        assert!(
            disk_hit(&store, "app.d", 7, 43, &obs).is_none(),
            "config moved"
        );
        // Corrupt file: miss, not error.
        std::fs::write(disk_path(&dir, "app.d", 42), "{not json").unwrap();
        assert!(disk_hit(&store, "app.d", 7, 42, &obs).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_disk_any_recovers_the_stale_entry_for_deltas() {
        let dir = tmpdir("staleany");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        store.insert("app.v", entry(7, "app.v"), &obs);
        // The strict lookup under the *new* bundle misses...
        assert!(disk_hit(&store, "app.v", 8, 42, &obs).is_none());
        // ...but the any-lookup recovers the previous version's report
        // and says which bundle it belonged to.
        let (stored_fp, report) = store.lookup_disk_any("app.v", 42, &obs).unwrap();
        assert_eq!(stored_fp, 7);
        assert_eq!(report.stats.package, "app.v");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_quarantined_and_not_reread() {
        let dir = tmpdir("corrupt");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::enabled();
        store.insert("app.q", entry(9, "app.q"), &obs);
        let path = disk_path(&dir, "app.q", 42);
        std::fs::write(&path, "{definitely not json").unwrap();

        // First lookup: miss, file moved out of the cache namespace,
        // counter bumped on both the per-app obs and the store registry.
        assert!(disk_hit(&store, "app.q", 9, 42, &obs).is_none());
        assert!(!path.exists(), "corrupt file left in the cache namespace");
        assert!(
            path.with_extension("quarantine").exists(),
            "corrupt file quarantined, not silently lost"
        );
        assert_eq!(
            obs.metrics.snapshot().counters["svc.cache.corrupt_evict"],
            1
        );
        assert_eq!(
            store.metrics().snapshot().counters["svc.cache.corrupt_evict"],
            1
        );
        assert_eq!(
            store.disk_stats().entries,
            0,
            "occupancy no longer counts the corrupt entry"
        );

        // Second lookup: plain miss — the bad file is gone, so it is
        // neither re-read nor re-quarantined.
        assert!(disk_hit(&store, "app.q", 9, 42, &obs).is_none());
        assert_eq!(
            obs.metrics.snapshot().counters["svc.cache.corrupt_evict"],
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_wire_schema_is_corrupt_but_stale_fingerprints_are_not() {
        let dir = tmpdir("staleschema");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::enabled();
        store.insert("app.s", entry(5, "app.s"), &obs);
        let path = disk_path(&dir, "app.s", 42);

        // Stale: well-formed entry for a different bundle — left on
        // disk (the next insert overwrites it), no quarantine.
        assert!(disk_hit(&store, "app.s", 6, 42, &obs).is_none());
        assert!(path.exists(), "stale entries stay for overwrite");
        assert!(!obs
            .metrics
            .snapshot()
            .counters
            .contains_key("svc.cache.corrupt_evict"));

        // Wrong wire schema: decoder rejects the payload → corrupt.
        let mut v = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        if let serde_json::Value::Object(m) = &mut v {
            if let Some(serde_json::Value::Object(r)) = m.get_mut("report") {
                r.insert("schema".to_owned(), serde_json::json!(999));
            }
        }
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
        assert!(disk_hit(&store, "app.s", 5, 42, &obs).is_none());
        assert!(!path.exists(), "undecodable entry quarantined");
        assert_eq!(
            obs.metrics.snapshot().counters["svc.cache.corrupt_evict"],
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_least_recently_used_down_to_budget() {
        let dir = tmpdir("gc");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::enabled();
        for (i, key) in ["app.old", "app.mid", "app.new"].iter().enumerate() {
            store.insert(key, entry(i as u64, key), &obs);
        }
        // Deterministic recency: give old/mid/new strictly increasing
        // entry mtimes (filesystem clocks are too coarse to rely on
        // insert order).
        for (age, key) in ["app.old", "app.mid", "app.new"].iter().enumerate() {
            set_mtime(&disk_path(&dir, key, 42), at(1_000_000 + age as u64 * 100));
        }
        let one_entry = std::fs::metadata(disk_path(&dir, "app.old", 42))
            .unwrap()
            .len();
        // Budget for roughly two entries: the oldest goes.
        let stats = store.gc_disk(one_entry * 2 + one_entry / 2, &obs);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evicted, 1);
        assert!(stats.freed_bytes > 0);
        assert!(!disk_path(&dir, "app.old", 42).exists(), "LRU evicted");
        assert!(disk_path(&dir, "app.new", 42).exists());
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(left.len(), 2, "eviction leaves no file behind");
        let snap = store.metrics().snapshot();
        assert_eq!(snap.counters["svc.cache.gc_runs"], 1);
        assert_eq!(snap.counters["svc.cache.gc_evicted"], 1);
        assert!(snap.counters["svc.cache.gc_freed_bytes"] > 0);
        // Under budget: a run is counted, nothing is evicted.
        let stats = store.gc_disk(u64::MAX, &obs);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.entries, 2);
        assert_eq!(store.metrics().snapshot().counters["svc.cache.gc_runs"], 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_reads_journal_the_atime_and_flush_stamps_the_entry() {
        let dir = tmpdir("atime");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        store.insert("app.t", entry(3, "app.t"), &obs);
        let path = disk_path(&dir, "app.t", 42);
        set_mtime(&path, at(1_000_000));
        assert!(disk_hit(&store, "app.t", 3, 42, &obs).is_some());
        assert_eq!(
            mtime(&path),
            at(1_000_000),
            "the hit path must not stamp the entry — the read is journaled"
        );
        assert_eq!(store.journaled_atimes(), 1);
        store.flush_atimes();
        assert!(mtime(&path) > at(1_000_000), "flush stamped the entry");
        assert_eq!(store.journaled_atimes(), 0, "flush drained the journal");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "the flush creates no file"
        );
        assert_eq!(store.disk_stats().entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_preserves_read_order_and_skips_vanished_entries() {
        let dir = tmpdir("flushorder");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        for key in ["app.first", "app.second", "app.gone", "app.rewritten"] {
            store.insert(key, entry(1, key), &obs);
            set_mtime(&disk_path(&dir, key, 42), at(1_000_000));
        }
        // Journal reads with explicit, strictly increasing stamps.
        for (age, key) in ["app.first", "app.second"].iter().enumerate() {
            let path = disk_path(&dir, key, 42);
            lock_plain(&store.atime_journal).insert(path, at(2_000_000 + age as u64 * 100));
        }
        // A journaled entry that was evicted before the flush must not
        // come back.
        let gone = disk_path(&dir, "app.gone", 42);
        lock_plain(&store.atime_journal).insert(gone.clone(), SystemTime::now());
        std::fs::remove_file(&gone).unwrap();
        // An entry written after its journaled read keeps the later
        // write stamp.
        let rewritten = disk_path(&dir, "app.rewritten", 42);
        lock_plain(&store.atime_journal).insert(rewritten.clone(), at(2_000_000));
        set_mtime(&rewritten, at(3_000_000));
        store.flush_atimes();
        assert!(!gone.exists(), "a vanished entry is not recreated");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            3,
            "the flush creates no file"
        );
        let stamp = |key: &str| mtime(&disk_path(&dir, key, 42));
        assert_eq!(stamp("app.first"), at(2_000_000));
        assert_eq!(
            stamp("app.second"),
            at(2_000_100),
            "flush reproduced the journaled stamps exactly"
        );
        assert_eq!(stamp("app.rewritten"), at(3_000_000), "never moved back");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn occupancy_estimate_tracks_inserts_without_rescans() {
        let dir = tmpdir("occupancy");
        // Pre-existing tier from a previous process: the seed scan must
        // count it.
        {
            let store = AnalysisStore::with_options(8, Some(dir.clone()));
            store.insert("app.pre", entry(1, "app.pre"), &Obs::disabled());
        }
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        let seeded = store.disk_occupancy();
        assert_eq!(seeded, store.disk_stats().bytes, "seed scan is exact");
        store.insert("app.a", entry(2, "app.a"), &obs);
        assert_eq!(store.disk_occupancy(), store.disk_stats().bytes);
        // Overwriting a key replaces its charge instead of adding.
        store.insert("app.a", entry(3, "app.a"), &obs);
        assert_eq!(store.disk_occupancy(), store.disk_stats().bytes);
        // Quarantine releases the corrupt entry's charge.
        let path = disk_path(&dir, "app.a", 42);
        let corrupt_len = 7u64;
        std::fs::write(&path, "corrupt").unwrap();
        let before = store.disk_occupancy();
        assert!(disk_hit(&store, "app.a", 3, 42, &obs).is_none());
        assert_eq!(store.disk_occupancy(), before - corrupt_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maybe_gc_skips_under_watermark_and_collects_to_the_low_one() {
        let dir = tmpdir("watermark");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::enabled();
        for i in 0..4 {
            let key = format!("app.w{i}");
            store.insert(&key, entry(i, &key), &obs);
        }
        let occupied = store.disk_occupancy();
        // Under the high watermark: skipped, counted, no run.
        assert!(store.maybe_gc_disk(occupied + 1, &obs).is_none());
        let snap = store.metrics().snapshot();
        assert_eq!(snap.counters["svc.cache.gc_skipped"], 1);
        assert!(!snap.counters.contains_key("svc.cache.gc_runs"));
        // Over it: runs, and collects below the *low* watermark
        // (budget - budget/8), not merely below the budget.
        let budget = occupied - 1;
        let stats = store.maybe_gc_disk(budget, &obs).expect("over watermark");
        assert!(stats.evicted > 0);
        assert!(store.disk_occupancy() <= budget - budget / 8);
        assert_eq!(
            store.disk_occupancy(),
            store.disk_stats().bytes,
            "GC resynced the estimate to the exact scan"
        );
        assert_eq!(store.metrics().snapshot().counters["svc.cache.gc_runs"], 1);
        // No disk tier: no skip counting, no run.
        let memonly = AnalysisStore::new();
        assert!(memonly.maybe_gc_disk(0, &obs).is_none());
        assert!(!memonly
            .metrics()
            .snapshot()
            .counters
            .contains_key("svc.cache.gc_skipped"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_zero_byte_budget_keeps_no_memory_tier() {
        let dir = tmpdir("nomem");
        let store = AnalysisStore::with_budgets(usize::MAX, 0, Some(dir.clone()));
        let obs = Obs::disabled();
        assert!(!store.has_memory());
        store.insert("app.n", entry(5, "app.n"), &obs);
        store.promote("app.m", entry(6, "app.m"), &obs);
        assert!(store.lookup("app.n", &obs).is_none());
        assert!(store.lookup("app.m", &obs).is_none());
        assert!(store.render_cell("app.n", 5).is_none());
        assert_eq!((store.len(), store.mem_bytes()), (0, 0));
        assert_eq!(store.mem_shard_sizes(), vec![0; SHARDS]);
        // The disk tier still records the insert (and only the insert).
        assert_eq!(store.disk_stats().entries, 1);
        assert_eq!(
            disk_hit(&store, "app.n", 5, 42, &obs)
                .unwrap()
                .stats
                .package,
            "app.n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_over_nested_disk_entry_is_quarantined_not_a_stack_overflow() {
        let dir = tmpdir("nested");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::enabled();
        store.insert("app.deep", entry(3, "app.deep"), &obs);
        // A well-formed entry whose report is 50,000 arrays deep: a
        // recursive parser without a depth limit overflows the stack on
        // this and aborts the process before quarantine can act.
        let path = disk_path(&dir, "app.deep", 42);
        let n = 50_000;
        let text = format!(
            r#"{{"schema": {}, "bundle_fp": "3", "config_fp": "42", "report": {}{}}}"#,
            crate::wire::WIRE_SCHEMA,
            "[".repeat(n),
            "]".repeat(n)
        );
        std::fs::write(&path, text).unwrap();
        assert!(store.lookup_disk_any("app.deep", 42, &obs).is_none());
        assert!(path.with_extension("quarantine").exists());
        assert_eq!(
            store.metrics().snapshot().counters["svc.cache.corrupt_evict"],
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_is_memory_only_and_serves_the_next_lookup() {
        let dir = tmpdir("promote");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        assert!(store.lookup("app.p", &obs).is_none());
        store.promote("app.p", entry(11, "app.p"), &obs);
        assert_eq!(store.lookup("app.p", &obs).unwrap().bundle_fp, 11);
        assert_eq!(store.disk_stats().entries, 0, "promotion writes no disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_cell_memoizes_and_is_reset_on_replacement() {
        let store = AnalysisStore::new();
        let obs = Obs::disabled();
        store.insert("app.c", entry(5, "app.c"), &obs);
        assert!(
            store.render_cell("app.c", 6).is_none(),
            "bundle fingerprint gates the cell"
        );
        let cell = store.render_cell("app.c", 5).unwrap();
        assert!(cell.get().is_none());
        let first = cell.get_or_render(|| "rendered".to_owned());
        let second = cell.get_or_render(|| "never recomputed".to_owned());
        assert_eq!(*first, "rendered");
        assert!(Arc::ptr_eq(&first, &second), "one render, shared out");
        // Replacing the entry resets the memoization.
        store.insert("app.c", entry(6, "app.c"), &obs);
        let fresh = store.render_cell("app.c", 6).unwrap();
        assert!(fresh.get().is_none(), "new entry, empty cell");
        assert!(store.render_cell("app.c", 5).is_none());
    }

    #[test]
    fn replay_counters_land_on_both_registries() {
        let store = AnalysisStore::new();
        let obs = Obs::enabled();
        store.count_replay(12, &obs);
        for snap in [obs.metrics.snapshot(), store.metrics().snapshot()] {
            assert_eq!(snap.counters["svc.cache.replay_apps"], 1);
            assert_eq!(snap.counters["svc.cache.replay_classes"], 12);
        }
    }

    #[test]
    fn disk_stats_count_entries_bytes_and_shards() {
        let dir = tmpdir("diskstats");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        assert_eq!(store.disk_stats(), DiskStats::new(), "missing dir is empty");
        store.insert("app.a", entry(1, "app.a"), &obs);
        store.insert("app.b", entry(2, "app.b"), &obs);
        // Alien files and tmp leftovers are not entries.
        std::fs::write(dir.join("README"), "not a cache file").unwrap();
        std::fs::write(dir.join("0123456789abcdef-0123456789abcdef.tmp"), "x").unwrap();
        let stats = store.disk_stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes > 0);
        assert_eq!(stats.shards.len(), SHARDS);
        assert_eq!(stats.shards.iter().sum::<u64>(), 2);
        let mut expected = vec![0u64; SHARDS];
        expected[(key_hash("app.a") as usize) % SHARDS] += 1;
        expected[(key_hash("app.b") as usize) % SHARDS] += 1;
        assert_eq!(stats.shards, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_gauges_reports_mem_occupancy() {
        let store = AnalysisStore::new();
        let obs = Obs::enabled();
        store.insert("app.a", entry(1, "app.a"), &obs);
        store.insert("app.b", entry(2, "app.b"), &obs);
        store.record_gauges(&obs.metrics);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.gauges["svc.cache.mem_entries"].value, 2);
        assert!(snap.gauges["svc.cache.mem_largest_shard"].value >= 1);
        assert_eq!(
            snap.gauges["svc.cache.mem_bytes"].value,
            store.mem_bytes() as i64
        );
        assert!(snap.gauges["svc.cache.mem_bytes"].value > 0);
    }

    #[test]
    fn outcome_counters_land_on_the_obs_handle() {
        let store = AnalysisStore::new();
        let obs = Obs::enabled();
        store.count_outcome(true, &obs);
        store.count_outcome(false, &obs);
        store.count_outcome(false, &obs);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counters["svc.cache.hit"], 1);
        assert_eq!(snap.counters["svc.cache.miss"], 2);
    }
}
