//! Traced in-process replay of one workload.
//!
//! The replay feeds a workload's inputs through the public functions of
//! each layer in the order the service calls them (read, fingerprint,
//! memory lookup, disk lookup, parse, verify, lift, context, checkers,
//! write-back, render) and, for the daemon, the reply encoding. A span
//! from this file surrounds each call; the program itself is not
//! instrumented.
//!
//! Rows are wall-share milliseconds per pass: a span on a serial phase
//! counts in full, a span on a phase that runs on `J` threads counts
//! `1/J`, so the rows of a balanced replay add up to its wall time.
//! Each workload mirrors where its binary runs each step:
//!
//! - `cold`: serial read, parallel analysis on `J` threads, serial render;
//! - `revet`: `J` shard threads, each with its own memory tier over the
//!   shared disk tier, each doing read, analysis and render in turn; then
//!   the stores are torn down one after another, as `vet` stops its
//!   workers;
//! - `daemon`: per window of submits, serial read, parallel analysis,
//!   serial render through the render cell and reply encoding; one
//!   pass is one wave of resubmissions after an untimed first wave.
//!
//! Each call replays once without spans and once with them; the
//! difference of their walls is the tracing overhead.

use crate::Args;
use nchecker::{
    app_report_to_json, config_fingerprint, AnalyzedApp, AppCacheEntry, AppReport, AppReuse,
    CheckerConfig, NChecker,
};
use nck_android::Apk;
use nck_netlibs::Registry;
use nck_obs::Obs;
use nck_svc::orchestrator::shard_of;
use nck_svc::store::DEFAULT_MEM_BYTES;
use nck_svc::{diff_reports, AnalysisService, AnalysisStore, DeltaReport, RenderCell};
use nck_svc::{protocol, ServiceOptions};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy)]
enum Row {
    Read,
    Fingerprint,
    LookupMem,
    LookupDisk,
    Parse,
    Verify,
    Lift,
    Context,
    Checkers,
    Insert,
    Render,
    Wire,
    Teardown,
}

const ROWS: usize = 13;

/// Metric name of each [`Row`], in declaration order.
const ROW_NAMES: [&str; ROWS] = [
    "io.read_ms",
    "dexfile.fingerprint_ms",
    "store.lookup_mem_ms",
    "store.lookup_disk_ms",
    "android.parse_ms",
    "dexfile.verify_ms",
    "ir.lift_ms",
    "core.context_ms",
    "core.checkers_ms",
    "store.insert_ms",
    "core.render_ms",
    "daemon.wire_ms",
    "store.drop_ms",
];

/// Work counts gathered alongside the spans.
#[derive(Clone, Copy, Default)]
struct Counts {
    stmts: u64,
    report_bytes: u64,
    hits_mem: u64,
    hits_disk: u64,
    misses: u64,
    replay_apps: u64,
    replay_classes_reused: u64,
    replay_classes_total: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.stmts += o.stmts;
        self.report_bytes += o.report_bytes;
        self.hits_mem += o.hits_mem;
        self.hits_disk += o.hits_disk;
        self.misses += o.misses;
        self.replay_apps += o.replay_apps;
        self.replay_classes_reused += o.replay_classes_reused;
        self.replay_classes_total += o.replay_classes_total;
    }
}

/// The span accumulator of one thread in one phase.
struct Lane {
    traced: bool,
    nanos: [u64; ROWS],
    counts: Counts,
}

impl Lane {
    fn new(traced: bool) -> Lane {
        Lane {
            traced,
            nanos: [0; ROWS],
            counts: Counts::default(),
        }
    }

    fn span<T>(&mut self, row: Row, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.nanos[row as usize] += start.elapsed().as_nanos() as u64;
        out
    }
}

/// Wall-share milliseconds per row, plus counts.
#[derive(Default)]
struct Table {
    ms: [f64; ROWS],
    counts: Counts,
}

impl Table {
    /// Adds a lane that shared its phase with `lanes - 1` others.
    fn absorb(&mut self, lane: &Lane, lanes: usize) {
        for (ms, nanos) in self.ms.iter_mut().zip(lane.nanos) {
            *ms += nanos as f64 / 1e6 / lanes as f64;
        }
        self.counts.add(&lane.counts);
    }
}

/// Per-thread analysis state, as the service's pool keeps per worker.
struct Worker {
    checker: NChecker,
    registry: Registry,
}

impl Worker {
    fn new() -> Worker {
        Worker {
            checker: NChecker::with_config(CheckerConfig::default()),
            registry: Registry::standard(),
        }
    }
}

struct Analyzed {
    report: AppReport,
    cell: Option<Arc<RenderCell>>,
    delta: Option<DeltaReport>,
}

/// One store and the configuration fingerprint its lookups are gated on.
struct Pipeline<'s> {
    store: &'s AnalysisStore,
    config_fp: u64,
    obs: Obs,
}

impl<'s> Pipeline<'s> {
    fn new(store: &'s AnalysisStore) -> Pipeline<'s> {
        Pipeline {
            store,
            config_fp: config_fingerprint(&CheckerConfig::default()),
            obs: Obs::disabled(),
        }
    }

    /// The service's per-app path: memory tier, disk tier, then the
    /// analysis ladder and the write-back.
    fn analyze(
        &self,
        w: &Worker,
        lane: &mut Lane,
        key: &str,
        bytes: &[u8],
    ) -> Result<Analyzed, String> {
        let (store, obs, config_fp) = (self.store, &self.obs, self.config_fp);
        let bundle_fp = lane.span(Row::Fingerprint, || nck_dex::wire::fnv1a(bytes));
        let prev = lane.span(Row::LookupMem, || store.lookup(key, obs));
        if let Some(p) = prev
            .as_ref()
            .filter(|p| p.bundle_fp == bundle_fp && p.config_fp == config_fp)
        {
            let report = lane.span(Row::LookupMem, || p.report.clone());
            store.count_outcome(true, obs);
            lane.counts.hits_mem += 1;
            return Ok(Analyzed {
                report,
                cell: store.render_cell(key, bundle_fp),
                delta: None,
            });
        }
        let prev = prev.filter(|p| p.config_fp == config_fp);

        let mut disk_base = None;
        if prev.is_none() && store.has_disk() {
            match lane.span(Row::LookupDisk, || {
                store.lookup_disk_any(key, config_fp, obs)
            }) {
                Some((stored_fp, report)) if stored_fp == bundle_fp => {
                    lane.span(Row::LookupDisk, || {
                        store.promote(
                            key,
                            AppCacheEntry {
                                bundle_fp,
                                config_fp,
                                report: report.clone(),
                                ..AppCacheEntry::default()
                            },
                            obs,
                        )
                    });
                    store.count_outcome(true, obs);
                    lane.counts.hits_disk += 1;
                    return Ok(Analyzed {
                        report,
                        cell: store.render_cell(key, bundle_fp),
                        delta: None,
                    });
                }
                Some(stale) => disk_base = Some(stale),
                None => {}
            }
        }

        lane.counts.misses += 1;
        let apk = lane
            .span(Row::Parse, || Apk::from_bytes(bytes))
            .map_err(|e| format!("{key}: {e}"))?;
        let class_fps = lane.span(Row::Fingerprint, || nck_dex::class_fingerprints(&apk.adx));
        let prefix = prev
            .as_ref()
            .map_or(0, |p| p.lift_seed.common_prefix(&class_fps));
        let skip: Vec<bool> = (0..class_fps.len()).map(|i| i < prefix).collect();
        let errors = lane.span(Row::Verify, || {
            nck_dex::verify::verify_with_skip(&apk.adx, &skip)
        });
        if !errors.is_empty() {
            return Err(format!("{key}: {} verify error(s)", errors.len()));
        }
        let lifted = lane
            .span(Row::Lift, || {
                nck_ir::lift::lift_file_seeded(
                    &apk.adx,
                    &class_fps,
                    prev.as_ref().map(|p| &p.lift_seed),
                )
            })
            .map_err(|e| format!("{key}: {e}"))?;
        let nck_ir::lift::SeededLift {
            program,
            seed: lift_seed,
            reused_classes,
            reused_methods,
        } = lifted;
        lane.counts.stmts += program
            .methods
            .iter()
            .filter_map(|m| m.body.as_ref())
            .map(|b| b.stmts.len() as u64)
            .sum::<u64>();
        let reuse = prev.as_ref().map(|p| AppReuse {
            analyses: &p.analyses,
            reused_methods: &reused_methods,
            callee_fps: &p.callee_fps,
            summary_seed: &p.summary_seed,
        });
        let app = lane.span(Row::Context, || {
            AnalyzedApp::new_reusing(apk.manifest.clone(), program, &w.registry, reuse, obs)
        });
        let report = lane.span(Row::Checkers, || w.checker.analyze(&app));
        if reused_classes > 0 {
            store.count_replay(reused_classes as u64, obs);
            lane.counts.replay_apps += 1;
            lane.counts.replay_classes_reused += reused_classes as u64;
            lane.counts.replay_classes_total += class_fps.len() as u64;
        }
        store.count_outcome(false, obs);
        let delta = lane.span(Row::Insert, || {
            let delta = match (&prev, &disk_base) {
                (Some(p), _) => Some(diff_reports(
                    key,
                    p.bundle_fp,
                    bundle_fp,
                    &p.report,
                    &report,
                )),
                (None, Some((stored_fp, base))) => {
                    Some(diff_reports(key, *stored_fp, bundle_fp, base, &report))
                }
                (None, None) => None,
            };
            let entry = AppCacheEntry {
                bundle_fp,
                config_fp,
                class_fps,
                lift_seed,
                callee_fps: app.callee_fps().to_vec(),
                analyses: app.analyses_arc().clone(),
                summary_seed: app.summary_seed().clone(),
                report: report.clone(),
            };
            store.insert(key, entry, obs);
            delta
        });
        // Tearing the context down is part of building it.
        lane.span(Row::Context, || drop(app));
        Ok(Analyzed {
            cell: store.render_cell(key, bundle_fp),
            report,
            delta,
        })
    }
}

/// The one-shot `--json` bytes of a report.
fn render_text(report: &AppReport) -> String {
    let mut text =
        serde_json::to_string_pretty(&app_report_to_json(report)).expect("report serializes");
    text.push('\n');
    text
}

/// Runs `f` over `items` on `jobs` threads pulling from one shared
/// index, as the service's pool does, and returns results in input
/// order plus each thread's lane.
fn par_map<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    traced: bool,
    f: impl Fn(&Worker, &mut Lane, &T) -> R + Sync,
) -> (Vec<R>, Vec<Lane>) {
    let next = AtomicUsize::new(0);
    let per_thread: Vec<(Vec<(usize, R)>, Lane)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs.min(items.len()).max(1))
            .map(|_| {
                s.spawn(|| {
                    let worker = Worker::new();
                    let mut lane = Lane::new(traced);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(&worker, &mut lane, item)));
                    }
                    (out, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut lanes = Vec::new();
    for (out, lane) in per_thread {
        for (i, r) in out {
            slots[i] = Some(r);
        }
        lanes.push(lane);
    }
    let results = slots
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect();
    (results, lanes)
}

fn read(lane: &mut Lane, path: &str) -> Result<Vec<u8>, String> {
    lane.span(Row::Read, || std::fs::read(path))
        .map_err(|e| format!("{path}: {e}"))
}

fn mem_store(disk: Option<PathBuf>) -> AnalysisStore {
    AnalysisStore::with_budgets(usize::MAX, DEFAULT_MEM_BYTES, disk)
}

/// What one replay run leaves: wall time per pass, the table, the
/// rendered output, and the store's own accounting.
struct Replay {
    wall_ms: f64,
    table: Table,
    output: Output,
    entry_bytes_mean: f64,
    evictions: u64,
    gc_runs: u64,
}

enum Output {
    /// Concatenated stdout bytes, in input order.
    Stream(String),
    /// The first report text seen per bundle (`"<index>:<version>"`).
    PerBundle(BTreeMap<String, String>),
}

fn store_accounting(store: &AnalysisStore) -> (f64, u64, u64) {
    let counters = store.metrics().snapshot().counters;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    let entries = store.len().max(1) as f64;
    (
        store.mem_bytes() as f64 / entries,
        get("svc.cache.evict"),
        get("svc.cache.gc_runs"),
    )
}

fn cold(paths: &[String], jobs: usize, traced: bool) -> Result<Replay, String> {
    let start = Instant::now();
    let mut serial = Lane::new(traced);
    let items: Vec<(&String, Vec<u8>)> = paths
        .iter()
        .map(|p| Ok((p, read(&mut serial, p)?)))
        .collect::<Result<_, String>>()?;
    let store = mem_store(None);
    let pipe = Pipeline::new(&store);
    let (results, lanes) = par_map(&items, jobs, traced, |w, lane, (key, bytes)| {
        pipe.analyze(w, lane, key, bytes)
    });
    let mut out = String::new();
    for r in results {
        let a = r?;
        let text = serial.span(Row::Render, || render_text(&a.report));
        serial.counts.report_bytes += text.len() as u64;
        out.push_str(&text);
    }
    let (entry_bytes_mean, evictions, gc_runs) = store_accounting(&store);
    // The one-shot binary frees its memory tier on the way out.
    drop(pipe);
    serial.span(Row::Teardown, || drop(store));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut table = Table::default();
    table.absorb(&serial, 1);
    for lane in &lanes {
        table.absorb(lane, jobs);
    }
    Ok(Replay {
        wall_ms,
        table,
        output: Output::Stream(out),
        entry_bytes_mean,
        evictions,
        gc_runs,
    })
}

fn revet(
    paths: &[String],
    workers: usize,
    cache_dir: &Path,
    traced: bool,
) -> Result<Replay, String> {
    let start = Instant::now();
    let shards: Vec<Vec<usize>> = (0..workers)
        .map(|s| {
            (0..paths.len())
                .filter(|&i| shard_of(&paths[i], workers) == s)
                .collect()
        })
        .collect();
    // One store per worker process, all over the shared disk tier.
    let stores: Vec<AnalysisStore> = (0..workers)
        .map(|_| mem_store(Some(cache_dir.to_path_buf())))
        .collect();
    type ShardOut = Result<(Vec<(usize, String)>, Lane, (f64, u64, u64)), String>;
    let per_shard: Vec<ShardOut> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .zip(&stores)
            .map(|(shard, store)| {
                s.spawn(move || -> ShardOut {
                    let pipe = Pipeline::new(store);
                    let worker = Worker::new();
                    let mut lane = Lane::new(traced);
                    let mut texts = Vec::with_capacity(shard.len());
                    for &i in shard {
                        let bytes = read(&mut lane, &paths[i])?;
                        let a = pipe.analyze(&worker, &mut lane, &paths[i], &bytes)?;
                        let text = lane.span(Row::Render, || render_text(&a.report));
                        lane.counts.report_bytes += text.len() as u64;
                        texts.push((i, text));
                    }
                    Ok((texts, lane, store_accounting(store)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    let mut slots: Vec<String> = vec![String::new(); paths.len()];
    let mut table = Table::default();
    let (mut bytes, mut evictions, mut gc_runs) = (0.0, 0, 0);
    for shard in per_shard {
        let (texts, lane, (mean, ev, gc)) = shard?;
        for (i, t) in texts {
            slots[i] = t;
        }
        table.absorb(&lane, workers);
        bytes += mean / workers as f64;
        evictions += ev;
        gc_runs += gc;
    }
    // `vet` shuts its workers down one after another, and each exits
    // through its store's teardown (the atime journal flush).
    let mut teardown = Lane::new(traced);
    for store in stores {
        teardown.span(Row::Teardown, || drop(store));
    }
    table.absorb(&teardown, 1);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(Replay {
        wall_ms,
        table,
        output: Output::Stream(slots.concat()),
        entry_bytes_mean: bytes,
        evictions,
        gc_runs,
    })
}

/// One submission: the daemon key, the bundle file, and its
/// `"<index>:<version>"` identity.
pub struct Sub {
    pub key: String,
    pub path: String,
    pub bundle: String,
}

/// The daemon's submissions, wave by wave: wave 0 submits version 0 of
/// every app; wave `k` submits every app again, the apps churned in
/// waves `1..=k` at their bumped versions.
pub fn daemon_plan(root: &Path, manifest: &Value, waves: usize) -> Result<Vec<Vec<Sub>>, String> {
    let apps = manifest["apps"].as_i64().ok_or("manifest: apps")? as usize;
    let churn = manifest["daemon_churn"]
        .as_array()
        .ok_or("manifest: daemon_churn")?;
    if churn.len() < waves {
        return Err(format!(
            "manifest plans {} waves, {waves} asked",
            churn.len()
        ));
    }
    let mut versions = vec![0u32; apps];
    let mut plan = Vec::with_capacity(waves + 1);
    for k in 0..=waves {
        if k > 0 {
            for i in churn[k - 1].as_array().ok_or("manifest: churn set")? {
                versions[i.as_i64().ok_or("manifest: churn index")? as usize] += 1;
            }
        }
        let mut subs = Vec::with_capacity(apps);
        for (i, v) in versions.iter().enumerate() {
            let bundle = format!("{i}:{v}");
            let file = manifest["bundles"][bundle.as_str()]["file"]
                .as_str()
                .ok_or_else(|| format!("manifest: no bundle {bundle}"))?;
            subs.push(Sub {
                key: format!("app{i:06}"),
                path: root.join(file).to_string_lossy().into_owned(),
                bundle,
            });
        }
        plan.push(subs);
    }
    Ok(plan)
}

/// One daemon wave, window by window. Returns the wave's wall time.
fn daemon_wave(
    pipe: &Pipeline<'_>,
    subs: &[Sub],
    jobs: usize,
    window: usize,
    traced: bool,
    table: &mut Table,
    texts: &mut BTreeMap<String, String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut serial = Lane::new(traced);
    for chunk in subs.chunks(window.max(1)) {
        let items: Vec<(&Sub, Vec<u8>)> = chunk
            .iter()
            .map(|s| Ok((s, read(&mut serial, &s.path)?)))
            .collect::<Result<_, String>>()?;
        let (results, lanes) = par_map(&items, jobs, traced, |w, lane, (sub, bytes)| {
            pipe.analyze(w, lane, &sub.key, bytes)
        });
        for lane in &lanes {
            table.absorb(lane, jobs);
        }
        for ((sub, _), r) in items.iter().zip(results) {
            let a = r?;
            let text = serial.span(Row::Render, || match &a.cell {
                Some(cell) => cell.get_or_render(|| render_text(&a.report)),
                None => Arc::new(render_text(&a.report)),
            });
            serial.counts.report_bytes += text.len() as u64;
            serial.span(Row::Wire, || {
                protocol::render_reply(&json!({
                    "ok": true,
                    "verb": "report",
                    "id": 0u64,
                    "key": sub.key,
                    "degraded": a.report.degraded(),
                    "defects": a.report.defects.len(),
                    "delta": a.delta.as_ref().map_or(Value::Null, DeltaReport::to_json),
                    "report": text.as_str(),
                }))
            });
            texts
                .entry(sub.bundle.clone())
                .or_insert_with(|| text.to_string());
        }
    }
    table.absorb(&serial, 1);
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

fn daemon(plan: &[Vec<Sub>], jobs: usize, window: usize, traced: bool) -> Result<Replay, String> {
    let store = mem_store(None);
    let pipe = Pipeline::new(&store);
    let mut texts = BTreeMap::new();
    // Wave 0 is the daemon's set-up: untimed, untraced, not tabled.
    daemon_wave(
        &pipe,
        &plan[0],
        jobs,
        window,
        false,
        &mut Table::default(),
        &mut texts,
    )?;
    let mut table = Table::default();
    let mut wall_ms = 0.0;
    for subs in &plan[1..] {
        wall_ms += daemon_wave(&pipe, subs, jobs, window, traced, &mut table, &mut texts)?;
    }
    let waves = (plan.len() - 1).max(1) as f64;
    for ms in &mut table.ms {
        *ms /= waves;
    }
    let c = &mut table.counts;
    for n in [
        &mut c.stmts,
        &mut c.report_bytes,
        &mut c.hits_mem,
        &mut c.hits_disk,
        &mut c.misses,
        &mut c.replay_apps,
        &mut c.replay_classes_reused,
        &mut c.replay_classes_total,
    ] {
        *n = (*n as f64 / waves).round() as u64;
    }
    let (entry_bytes_mean, evictions, gc_runs) = store_accounting(&store);
    Ok(Replay {
        wall_ms: wall_ms / waves,
        table,
        output: Output::PerBundle(texts),
        entry_bytes_mean,
        evictions,
        gc_runs,
    })
}

/// `service.pool_overhead_ms`: the real `analyze_batch` wall on `jobs`
/// threads minus the per-app `analyze_one` times divided by `jobs`, the
/// per-app times taken with `jobs` threads calling concurrently so both
/// sides run under the same contention. Fresh default-flag services.
fn pool_overhead_ms(paths: &[String], jobs: usize) -> Result<f64, String> {
    let items: Vec<(String, Vec<u8>)> = paths
        .iter()
        .map(|p| {
            Ok((
                p.clone(),
                std::fs::read(p).map_err(|e| format!("{p}: {e}"))?,
            ))
        })
        .collect::<Result<_, String>>()?;
    let service = || {
        AnalysisService::new(
            ServiceOptions {
                jobs: Some(jobs),
                ..ServiceOptions::default()
            },
            Obs::disabled(),
        )
    };
    let batch = service();
    let start = Instant::now();
    let outcomes = batch.analyze_batch(&items);
    let batch_ms = start.elapsed().as_secs_f64() * 1e3;
    if outcomes.iter().any(|o| o.report.is_err()) {
        return Err("analyze_batch failed an app".to_owned());
    }
    drop((outcomes, batch));
    let one = service();
    let (per_app, _) = par_map(&items, jobs, false, |_, _, (key, bytes)| {
        let start = Instant::now();
        let ok = one.analyze_one(key, bytes).report.is_ok();
        (start.elapsed().as_secs_f64() * 1e3, ok)
    });
    if per_app.iter().any(|&(_, ok)| !ok) {
        return Err("analyze_one failed an app".to_owned());
    }
    let sum_ms: f64 = per_app.iter().map(|&(ms, _)| ms).sum();
    Ok(batch_ms - sum_ms / jobs as f64)
}

/// Copies the flat primed cache directory over a fresh `to`.
fn copy_cache(from: &Path, to: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", to.display());
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(err)?;
    }
    std::fs::create_dir_all(to).map_err(err)?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(err)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(err)?;
    }
    Ok(())
}

fn write_output(path: &Path, output: &Output) -> Result<(), String> {
    let text = match output {
        Output::Stream(s) => s.clone(),
        Output::PerBundle(texts) => {
            let map = texts
                .iter()
                .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                .collect();
            serde_json::to_string(&Value::Object(map)).expect("texts serialize")
        }
    };
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn main(args: &Args) -> Result<String, String> {
    let workload = args.str("workload")?;
    let root = Path::new(args.str("root")?);
    let jobs: usize = args.num("jobs")?;
    let out = Path::new(args.str("out")?);
    let manifest = serde_json::from_str(
        &std::fs::read_to_string(root.join("manifest.json")).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("manifest: {e:?}"))?;
    let paths = |dir: &str| -> Result<Vec<String>, String> {
        let apps = manifest["apps"].as_i64().ok_or("manifest: apps")? as usize;
        let shards = manifest["shards"].as_i64().ok_or("manifest: shards")? as usize;
        let mut paths: Vec<String> = (0..apps)
            .map(|i| {
                nck_appgen::stream::sharded_path(&root.join(dir), shards, i)
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        paths.sort();
        Ok(paths)
    };
    let mut extra = BTreeMap::new();
    let (untraced, traced) = match workload {
        "cold" => {
            let paths = paths("tree")?;
            let untraced = cold(&paths, jobs, false)?;
            let traced = cold(&paths, jobs, true)?;
            extra.insert("service.pool_overhead_ms", pool_overhead_ms(&paths, jobs)?);
            (untraced, traced)
        }
        "revet" => {
            let paths = paths("revet")?;
            let primed = Path::new(args.str("primed")?);
            let work_cache = Path::new(args.str("work-cache")?);
            copy_cache(primed, work_cache)?;
            let untraced = revet(&paths, jobs, work_cache, false)?;
            copy_cache(primed, work_cache)?;
            let traced = revet(&paths, jobs, work_cache, true)?;
            (untraced, traced)
        }
        "daemon" => {
            let plan = daemon_plan(root, &manifest, args.num("waves")?)?;
            let window: usize = args.num("window")?;
            let untraced = daemon(&plan, jobs, window, false)?;
            let traced = daemon(&plan, jobs, window, true)?;
            (untraced, traced)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    write_output(out, &traced.output)?;
    let mut rows: BTreeMap<String, Value> = ROW_NAMES
        .iter()
        .zip(traced.table.ms)
        .map(|(name, ms)| ((*name).to_owned(), json!(ms)))
        .collect();
    for (name, ms) in extra {
        rows.insert(name.to_owned(), json!(ms));
    }
    let c = traced.table.counts;
    Ok(serde_json::to_string(&json!({
        "wall_untraced_ms": untraced.wall_ms,
        "wall_traced_ms": traced.wall_ms,
        "rows": Value::Object(rows),
        "stmts": c.stmts,
        "report_bytes": c.report_bytes,
        "hits_mem": c.hits_mem,
        "hits_disk": c.hits_disk,
        "misses": c.misses,
        "replay_apps": c.replay_apps,
        "replay_classes_reused": c.replay_classes_reused,
        "replay_classes_total": c.replay_classes_total,
        "entry_bytes_mean": traced.entry_bytes_mean,
        "evictions": traced.evictions,
        "gc_runs": traced.gc_runs,
    }))
    .expect("result serializes"))
}
