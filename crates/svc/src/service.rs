//! The batch analysis service: worker pool + analysis cache + checker.
//!
//! One [`AnalysisService`] owns a configured checker template, a
//! two-tier [`AnalysisStore`], and a pool size; callers feed it keyed
//! bundles (the key is the app's stable identity across versions —
//! package name, file path, corpus index) and get reports plus reuse
//! statistics back. Feeding it a *new version* of a previously analyzed
//! key is the incremental path: unchanged class prefixes replay, dirty
//! methods recompute, and the report is byte-identical to a cold run.
//!
//! Every cache decision is made here, in one ladder (see
//! `AnalysisService::analyze_with_checker`); the checker only analyzes.
//! Degraded apps (any skipped method) bypass the cache write path
//! entirely: their entries would record unknown behaviour as replayable
//! truth.

use crate::delta::{diff_reports, DeltaReport};
use crate::pool::{default_workers, run_pool};
use crate::store::{render_json, AnalysisStore, RenderCell};
use nchecker::cache::{config_fingerprint, AppCacheEntry, ReuseStats};
use nchecker::{AnalyzeError, AppReport, CheckerConfig, NChecker};
use nck_obs::Obs;
use std::path::PathBuf;
use std::sync::Arc;

/// One analyzed app: the report (or failure) plus what the cache did.
#[derive(Debug)]
pub struct AppOutcome {
    /// The analysis result.
    pub report: Result<AppReport, AnalyzeError>,
    /// Cache/reuse accounting for this app.
    pub reuse: ReuseStats,
    /// The defect delta against the previous version of this key, when
    /// the key was seen before (either cache tier) and the bundle
    /// changed. `None` on first submission, identical resubmission
    /// (whole-report reuse — nothing changed), failure, and degraded
    /// runs (an incomplete report would produce phantom "fixes").
    pub delta: Option<DeltaReport>,
    /// The render-memoization cell of the memory-tier entry holding
    /// this outcome's report, for its one-shot `--json` bytes *without*
    /// telemetry (the rendering of the unsealed report). It fills only
    /// through [`AppOutcome::json`]: a consumer that serializes reports
    /// deterministically — the daemon, whose per-app obs is always
    /// disabled — fills it once (with `stored` when set, so nothing is
    /// rendered twice) and serves the cached bytes on every later
    /// memory hit. `None` when no memory entry holds the report
    /// (failure, degraded, no memory tier).
    pub rendered: Option<Arc<RenderCell>>,
    /// The same bytes as the report's disk entry stores them: set on a
    /// disk hit and on a miss that wrote a disk entry.
    pub stored: Option<Arc<String>>,
}

impl AppOutcome {
    /// The report's one-shot `--json` bytes: the render cell's, when it
    /// holds them, else the stored bytes, else rendered here — kept in
    /// the cell, when there is one. `None` for a failed app. Only for a
    /// report that carries no metrics snapshot — those bytes have none.
    pub fn json(&self) -> Option<Arc<String>> {
        let report = self.report.as_ref().ok()?;
        debug_assert!(
            report.metrics.is_none(),
            "the cell holds telemetry-free bytes"
        );
        let text = || match &self.stored {
            Some(stored) => Arc::clone(stored),
            None => Arc::new(render_json(report)),
        };
        Some(match &self.rendered {
            Some(cell) => cell.get_or_fill(text),
            None => text(),
        })
    }

    /// The outcome of an app that failed to analyze.
    fn failed(e: AnalyzeError) -> AppOutcome {
        AppOutcome {
            report: Err(e),
            reuse: ReuseStats::default(),
            delta: None,
            rendered: None,
            stored: None,
        }
    }
}

/// Aggregate cache accounting for a batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchCacheStats {
    /// Apps served whole from the cache (memory or disk tier).
    pub hits: usize,
    /// Apps analyzed (fully or partially) this run.
    pub misses: usize,
    /// Classes replayed from cached prefixes, across all apps.
    pub classes_reused: usize,
    /// Classes analyzed, across all apps.
    pub classes_total: usize,
    /// Apps that degraded and bypassed the cache.
    pub degraded: usize,
}

impl BatchCacheStats {
    fn absorb(&mut self, r: &ReuseStats) {
        if r.whole_report {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.classes_reused += r.classes_reused;
        self.classes_total += r.classes_total;
        self.degraded += usize::from(r.degraded);
    }

    /// Whole-report hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Class-level reuse rate in `[0, 1]` over the classes the seeded
    /// pipeline analyzed (whole-report hits carry no class counts).
    pub fn class_reuse_rate(&self) -> f64 {
        if self.classes_total == 0 {
            0.0
        } else {
            self.classes_reused as f64 / self.classes_total as f64
        }
    }
}

/// Construction options for [`AnalysisService`].
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Checker toggles.
    pub config: CheckerConfig,
    /// Worker count override (`None` = [`crate::pool::default_workers`],
    /// read once when the service is built).
    pub jobs: Option<usize>,
    /// Disk cache directory (`None` = memory tier only). With
    /// `mem_budget: Some(0)` as well, the service caches nothing.
    pub cache_dir: Option<PathBuf>,
    /// Memory-tier byte budget override
    /// (`None` = [`crate::store::DEFAULT_MEM_BYTES`]). `Some(0)` means
    /// *no memory tier*: a miss runs the plain uncached pipeline
    /// ([`NChecker::analyze_bytes_checked`]) with no replay seeds
    /// captured, a clean miss is written to the disk tier only
    /// (report-only, when `cache_dir` is set), and a disk hit is served
    /// without promotion. That is the right shape for a process that
    /// exits after one batch and could never read the tier back.
    pub mem_budget: Option<usize>,
    /// Disk-tier byte budget: when set, every batch ends with a
    /// watermark-gated [`AnalysisStore::maybe_gc_disk`] — a skipped
    /// check while under budget, a collection down to the low
    /// watermark once occupancy crosses it.
    pub cache_budget: Option<u64>,
}

/// The sharded batch-analysis service.
pub struct AnalysisService {
    config: CheckerConfig,
    /// [`config_fingerprint`] of `config`, computed once — it gates
    /// every disk lookup and never changes for a built service.
    config_fp: u64,
    obs: Obs,
    store: AnalysisStore,
    /// Pool size, resolved once so a batch never re-reads the host's
    /// core count.
    jobs: usize,
    cache_budget: Option<u64>,
}

impl AnalysisService {
    /// Builds a service; `obs` is the observability template every app
    /// derives fresh sinks from.
    pub fn new(options: ServiceOptions, obs: Obs) -> AnalysisService {
        AnalysisService {
            config: options.config,
            config_fp: config_fingerprint(&options.config),
            // The byte budget is the service's memory-tier cap; an
            // entry-count cap on top would silently shrink the tier to
            // 256 apps and push every hit beyond that to the disk tier
            // (a ~100x slower lookup) long before memory is at risk.
            store: AnalysisStore::with_budgets(
                usize::MAX,
                options
                    .mem_budget
                    .unwrap_or(crate::store::DEFAULT_MEM_BYTES),
                options.cache_dir,
            ),
            jobs: options.jobs.unwrap_or_else(default_workers),
            cache_budget: options.cache_budget,
            obs,
        }
    }

    /// The underlying store (for tests and introspection).
    pub fn store(&self) -> &AnalysisStore {
        &self.store
    }

    /// Analyzes one keyed bundle through the cache.
    pub fn analyze_one(&self, key: &str, bytes: &[u8]) -> AppOutcome {
        let checker = self.make_checker();
        self.analyze_with_checker(&checker, key, bytes)
    }

    /// Analyzes a batch of keyed bundles on the worker pool, preserving
    /// input order. Panicking apps (contained) report
    /// [`AnalyzeError::Panic`].
    pub fn analyze_batch(&self, items: &[(String, Vec<u8>)]) -> Vec<AppOutcome> {
        self.analyze_batch_map(items, |_, outcome| outcome)
    }

    /// [`AnalysisService::analyze_batch`] with `map` applied to each
    /// app's outcome on the pool thread that analyzed it, so per-app
    /// post-processing (rendering a report, say) runs in parallel too.
    /// `map` receives the item's index; results keep input order. A job
    /// whose worker died is mapped on the calling thread, with an
    /// [`AnalyzeError::Panic`] outcome.
    pub fn analyze_batch_map<T: Send>(
        &self,
        items: &[(String, Vec<u8>)],
        map: impl Fn(usize, AppOutcome) -> T + Sync,
    ) -> Vec<T> {
        let slots = run_pool(
            items.len(),
            self.jobs,
            || self.make_checker(),
            |checker, i| {
                let (key, bytes) = &items[i];
                map(i, self.analyze_with_checker(checker, key, bytes))
            },
        );
        let outcomes: Vec<T> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    map(
                        i,
                        AppOutcome::failed(AnalyzeError::Panic(
                            "worker died before writing a result".to_owned(),
                        )),
                    )
                })
            })
            .collect();
        // Auto-GC: a budgeted service never lets the disk tier grow
        // unbounded across batches. Watermark-gated — while the live
        // occupancy estimate is under budget this is one atomic load,
        // not a directory rescan.
        if let Some(budget) = self.cache_budget {
            self.store.maybe_gc_disk(budget, &self.obs.fresh());
        }
        outcomes
    }

    /// Folds a batch's outcomes into aggregate cache stats.
    pub fn batch_stats(outcomes: &[AppOutcome]) -> BatchCacheStats {
        let mut stats = BatchCacheStats::default();
        for o in outcomes {
            if o.report.is_ok() {
                stats.absorb(&o.reuse);
            }
        }
        stats
    }

    fn make_checker(&self) -> NChecker {
        let mut checker = NChecker::with_config(self.config);
        checker.obs = self.obs.fresh();
        checker
    }

    /// The cache ladder — the one place that decides which rung serves
    /// an app:
    ///
    /// 1. hash the bundle once;
    /// 2. a memory-tier entry for this bundle and config is a
    ///    whole-report hit;
    /// 3. otherwise a disk-tier entry for this bundle is a whole-report
    ///    hit served with the `--json` bytes it stores (and promoted
    ///    into the memory tier, when there is one), and a stale disk
    ///    entry of the same key is kept as the delta base;
    /// 4. a miss runs [`NChecker::analyze_bytes_seeded`] — class-prefix
    ///    replay from the stale memory entry — exactly when the service
    ///    keeps a memory tier and the config is not targeted (replaying
    ///    a lift seed would materialize full bodies and forfeit the
    ///    mode's savings), and the plain
    ///    [`NChecker::analyze_bytes_checked`] otherwise. A clean plain
    ///    miss is recorded report-only. A clean miss written to the
    ///    disk tier carries the `--json` bytes the write rendered.
    ///
    /// Both pipelines contain panics; degraded apps are never recorded.
    fn analyze_with_checker(&self, checker: &NChecker, key: &str, bytes: &[u8]) -> AppOutcome {
        let svc_obs = self.obs.fresh();
        let bundle_fp = nck_dex::wire::fnv1a(bytes);

        let prev = self
            .store
            .lookup(key, &svc_obs)
            .filter(|p| p.config_fp == self.config_fp);
        if let Some(p) = prev.as_ref().filter(|p| p.bundle_fp == bundle_fp) {
            let cell = self.store.render_cell(key, bundle_fp);
            return self.hit(p.report.clone(), cell, None, &svc_obs);
        }

        // The disk tier is only consulted when the memory tier has nothing
        // for this key (a memory entry subsumes its own disk twin). A
        // stale entry (same key, different bundle — a resubmitted
        // version) becomes the delta base, so version diffs survive
        // process restarts.
        let mut disk_base: Option<(u64, AppReport)> = None;
        if prev.is_none() {
            match self.store.lookup_disk(key, self.config_fp, &svc_obs) {
                Some(hit) if hit.bundle_fp == bundle_fp => {
                    // The promoted entry (fingerprints and report, no
                    // replay seeds, an empty render cell) serves the
                    // next lookup from memory.
                    if self.store.has_memory() {
                        self.store
                            .promote(key, self.report_only(bundle_fp, &hit.report), &svc_obs);
                    }
                    let cell = self.store.render_cell(key, bundle_fp);
                    return self.hit(hit.report, cell, Some(Arc::new(hit.json)), &svc_obs);
                }
                Some(stale) => disk_base = Some((stale.bundle_fp, stale.report)),
                None => {}
            }
        }

        let result = if self.store.has_memory() && !self.config.targeted {
            checker.analyze_bytes_seeded(bytes, bundle_fp, prev.as_deref())
        } else {
            checker.analyze_bytes_checked(bytes).map(|report| {
                let degraded = report.degraded();
                let keep = !degraded && (self.store.has_memory() || self.store.has_disk());
                let entry = keep.then(|| self.report_only(bundle_fp, &report));
                let reuse = ReuseStats {
                    degraded,
                    ..ReuseStats::default()
                };
                (report, entry, reuse)
            })
        };
        self.store.count_outcome(false, &svc_obs);
        let (report, entry, reuse) = match result {
            Ok(r) => r,
            Err(e) => return AppOutcome::failed(e),
        };
        if reuse.classes_reused > 0 {
            // Rung 2: class-prefix replay on a whole-report miss.
            self.store
                .count_replay(reuse.classes_reused as u64, &svc_obs);
        }
        // Defect delta: a known key whose bundle changed. The previous
        // report comes from whichever tier held it; the fingerprints ride
        // along from the cache entries — no hashing is spent on delta
        // detection itself. Clean runs only (`entry` is `Some` exactly
        // then): diffing against an incomplete report would invent fixes.
        let base = prev
            .as_ref()
            .map(|p| (p.bundle_fp, &p.report))
            .or(disk_base.as_ref().map(|(fp, r)| (*fp, r)));
        let delta = match (&entry, base) {
            (Some(_), Some((base_fp, base))) => {
                Some(diff_reports(key, base_fp, bundle_fp, base, &report))
            }
            _ => None,
        };
        if delta.is_some() {
            self.store.count_delta(&svc_obs);
        }
        let stored = entry.and_then(|entry| {
            debug_assert!(
                !entry.report.degraded(),
                "degraded apps must bypass the cache write path"
            );
            self.store.record(key, entry, &svc_obs)
        });
        AppOutcome {
            report: Ok(self.stamp(report, &svc_obs)),
            reuse,
            delta,
            rendered: self.store.render_cell(key, bundle_fp),
            stored,
        }
    }

    /// A whole-report hit, from either tier.
    fn hit(
        &self,
        report: AppReport,
        rendered: Option<Arc<RenderCell>>,
        stored: Option<Arc<String>>,
        svc_obs: &Obs,
    ) -> AppOutcome {
        self.store.count_outcome(true, svc_obs);
        AppOutcome {
            report: Ok(self.stamp(report, svc_obs)),
            reuse: ReuseStats {
                whole_report: true,
                ..ReuseStats::default()
            },
            delta: None,
            rendered,
            stored,
        }
    }

    /// A cache entry holding only the fingerprints and the report
    /// (unsealed: a cached report carries no trace or metrics of the run
    /// that computed it) — what the disk tier stores, and all a plain
    /// miss records.
    fn report_only(&self, bundle_fp: u64, report: &AppReport) -> AppCacheEntry {
        let mut report = report.clone();
        report.trace = None;
        report.metrics = None;
        AppCacheEntry {
            bundle_fp,
            config_fp: self.config_fp,
            report,
            ..AppCacheEntry::default()
        }
    }

    /// Merges the service-level metrics (cache counters, lookup spans)
    /// into the report's snapshot so `--json` exports carry
    /// `svc.cache.*` under the schema-v1 `"metrics"` key. No-op when
    /// metrics are disabled (keeping cold/warm reports byte-identical in
    /// benchmark mode).
    fn stamp(&self, mut report: AppReport, svc_obs: &Obs) -> AppReport {
        if svc_obs.metrics.is_enabled() {
            let snap = svc_obs.metrics.snapshot();
            match report.metrics.as_mut() {
                Some(m) => m.merge(&snap),
                None => report.metrics = Some(snap),
            }
        }
        report
    }
}
