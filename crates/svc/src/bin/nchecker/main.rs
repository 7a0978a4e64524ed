//! The `nchecker` command-line tool: analyze APK bundles and print the
//! warning reports (§4.6, Figure 7), batched through the analysis
//! service — worker pool plus content-addressed cache.
//!
//! Modes and flags: the table in `cli.rs`, rendered by `nchecker --help`.
//!
//! `vet` is the store-scale front end: it shards the corpus across N
//! worker *processes* (each an `nchecker serve --stdio` child) and
//! prints the reports in input order — byte-identical to what a single
//! `nchecker --json` run over the same paths would print.
//!
//! Exit codes: `0` all apps analyzed cleanly, `1` at least one app failed
//! to analyze, `2` usage error, `3` every app analyzed but at least one
//! was degraded (some methods skipped as unanalyzable).

mod cli;

use cli::{Cli, Verbosity};
use nchecker::CheckerConfig;
use nck_obs::{Events, JsonObj, JsonlSink, Level, Metrics, Obs, PhaseTotals, Series, Tracer};
use nck_svc::{
    daemon, doctor, AnalysisService, AnalysisStore, AppOutcome, Daemon, DaemonOptions,
    OrchestratorOptions, ServiceOptions, Watcher, WorkerFleet,
};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprint!("{}", cli::help());
    ExitCode::from(2)
}

const EXIT_FAILED: u8 = 1;
const EXIT_DEGRADED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cli) = cli::parse(&args) else {
        return usage();
    };
    match cli.mode {
        cli::SERVE => serve_main(cli),
        cli::VET => vet_main(cli),
        cli::GC => gc_main(cli),
        _ => one_shot_main(cli),
    }
}

/// The diagnostic stream the verbosity flags ask for.
fn events(cli: &Cli) -> Events {
    match cli.verbosity {
        Verbosity::Quiet => Events::silent(),
        Verbosity::Debug => Events::at(Level::Debug),
        Verbosity::Info => Events::at(Level::Info),
        Verbosity::Warn => Events::default(),
    }
}

/// The checker and cache configuration of the analysing modes.
fn service_options(cli: &Cli) -> ServiceOptions {
    ServiceOptions {
        config: CheckerConfig {
            strict_connectivity: cli.strict,
            interproc: !cli.no_interproc,
            targeted: cli.targeted,
            icc: cli.icc,
            ..CheckerConfig::default()
        },
        jobs: cli.jobs,
        // `--no-cache`: neither a memory tier nor a disk tier.
        cache_dir: cli.cache_dir.clone().filter(|_| !cli.no_cache),
        mem_budget: cli.no_cache.then_some(0),
        cache_budget: cli.cache_budget,
    }
}

/// One-shot mode: analyze the bundles on the command line and print
/// their reports.
fn one_shot_main(cli: Cli) -> ExitCode {
    // `--doctor` reports on the cache dir and config alone; everything
    // else needs at least one bundle.
    if cli.paths.is_empty() && !cli.doctor {
        return usage();
    }

    let sink = match &cli.log_json {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                return ExitCode::from(EXIT_FAILED);
            }
        },
        None => None,
    };
    let mut events = events(&cli);
    if let Some(sink) = &sink {
        events = events.with_sink(sink.clone());
    }
    // This process exits after one batch, so a memory tier could never
    // be read back: without one, a miss captures no replay seeds and
    // the exit tears down no resident entries.
    let options = ServiceOptions {
        mem_budget: Some(0),
        ..service_options(&cli)
    };
    let config = options.config;
    // The exporters need spans and counters even when the stderr views
    // (--trace/--metrics) are off: recording is silent unless a flag
    // asks for the stderr rendering.
    let want_tracer = cli.trace || cli.trace_out.is_some() || cli.log_json.is_some() || cli.doctor;
    let want_metrics = cli.metrics || cli.trace || want_tracer;
    let obs = Obs {
        tracer: if want_tracer {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        },
        metrics: if want_metrics {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        },
        events: events.clone(),
    };

    // Read everything up front; the batch then runs on the pool. Each
    // bundle is cached under its canonical path, so every spelling of
    // it shares one disk entry; messages keep the path as given.
    let canonical_keys = options.cache_dir.is_some();
    let mut names: Vec<&str> = Vec::new();
    let mut items: Vec<(String, Vec<u8>)> = Vec::new();
    let mut failures = 0usize;
    for path in &cli.paths {
        match std::fs::read(path) {
            Ok(bytes) => {
                events.debug(&format!("{path}: read {} bytes", bytes.len()));
                let key = if canonical_keys {
                    canonical_key(Path::new(path))
                } else {
                    path.clone()
                };
                names.push(path);
                items.push((key, bytes));
            }
            Err(e) => {
                events.error(&format!("{path}: {e}"));
                failures += 1;
                if !cli.keep_going {
                    return ExitCode::from(EXIT_FAILED);
                }
            }
        }
    }

    let service = AnalysisService::new(options, obs);
    // Each app's stdout text is rendered on the pool thread that
    // analyzed it; this thread only writes the texts out in input order.
    let (outcomes, texts): (Vec<_>, Vec<_>) = service
        .analyze_batch_map(&items, |i, outcome| {
            let text = render_stdout(&cli, names[i], &outcome);
            (outcome, text)
        })
        .into_iter()
        .unzip();
    let cache_stats = AnalysisService::batch_stats(&outcomes);

    let mut degraded = 0usize;
    let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
    for ((path, outcome), text) in names.iter().zip(&outcomes).zip(&texts) {
        match &outcome.report {
            Ok(report) => {
                events.info(&format!(
                    "{path}: {} requests, {} defects",
                    report.stats.requests,
                    report.defects.len()
                ));
                if report.degraded() {
                    degraded += 1;
                    events.warn(&format!(
                        "{path}: degraded analysis, {} method(s) skipped",
                        report.skipped_methods.len()
                    ));
                    for s in &report.skipped_methods {
                        events.debug(&format!(
                            "{path}: skipped {} [{}]: {}",
                            s.method, s.cause, s.detail
                        ));
                    }
                }
                if stdout.write_all(text.as_bytes()).is_err() {
                    return ExitCode::from(EXIT_FAILED);
                }
                // Observability output goes to stderr so stdout stays
                // machine-parseable under --json. The stderr renderings
                // stay opt-in even when an exporter enabled recording.
                if cli.trace {
                    if let Some(t) = &report.trace {
                        eprintln!("--- trace: {} ---", report.stats.package);
                        eprint!("{}", t.render());
                    }
                }
                if cli.metrics && !cli.json {
                    if let Some(m) = &report.metrics {
                        eprintln!("--- metrics: {} ---", report.stats.package);
                        eprint!("{}", m.render());
                    }
                }
            }
            Err(e) => {
                events.error(&format!("{path}: {e}"));
                failures += 1;
                if !cli.keep_going {
                    return ExitCode::from(EXIT_FAILED);
                }
            }
        }
    }
    if stdout.flush().is_err() {
        return ExitCode::from(EXIT_FAILED);
    }
    drop(stdout);

    // Corpus-level aggregation over the attached per-app telemetry.
    let mut merged = nck_obs::MetricsSnapshot::default();
    let mut phases = PhaseTotals::new();
    let mut latency = Series::new();
    for outcome in &outcomes {
        if let Ok(report) = &outcome.report {
            if let Some(m) = &report.metrics {
                merged.merge(m);
            }
            if let Some(t) = &report.trace {
                phases.absorb(t);
                latency.push(t.wall_nanos() / 1_000);
            }
        }
    }
    // The per-app snapshots cannot see the store; the batch end is the
    // only point where its occupancy is final.
    let store_metrics = Metrics::enabled();
    service.store().record_gauges(&store_metrics);
    merged.merge(&store_metrics.snapshot());
    let analysis_failures = failures;

    // Defect deltas, one JSONL record per resubmitted-and-changed app,
    // in input order (apps without a delta contribute no line).
    if let Some(path) = &cli.delta_out {
        let mut text = String::new();
        for (name, outcome) in names.iter().zip(&outcomes) {
            if let Some(delta) = &outcome.delta {
                let mut delta = delta.to_json();
                name_delta(&mut delta, name);
                text.push_str(&serde_json::to_string(&delta).expect("delta serializes"));
                text.push('\n');
            }
        }
        if let Err(e) = std::fs::write(path, text) {
            events.error(&format!("{}: {e}", path.display()));
            failures += 1;
        } else {
            events.info(&format!("wrote {}", path.display()));
        }
    }

    if let Some(path) = &cli.trace_out {
        let traces: Vec<(String, nck_obs::PipelineTrace)> = names
            .iter()
            .zip(&outcomes)
            .filter_map(|(path, outcome)| match &outcome.report {
                Ok(report) => report.trace.clone().map(|t| {
                    let label = if report.stats.package.is_empty() {
                        path.to_string()
                    } else {
                        report.stats.package.clone()
                    };
                    (label, t)
                }),
                Err(_) => None,
            })
            .collect();
        if let Err(e) = std::fs::write(path, nck_obs::chrome_trace(&traces)) {
            events.error(&format!("{}: {e}", path.display()));
            failures += 1;
        } else {
            events.info(&format!(
                "wrote {} ({} app traces)",
                path.display(),
                traces.len()
            ));
        }
    }

    if let Some(sink) = &sink {
        emit_jsonl(sink, &names, &outcomes, &cache_stats, &merged, &mut latency);
        sink.flush();
    }

    if cli.doctor {
        let report = doctor::DoctorReport {
            config: &config,
            store: service.store(),
            metrics: &merged,
            phases: &phases,
            apps: items.len(),
            failed: analysis_failures,
            degraded,
        };
        print!("{}", doctor::render(&report));
    } else if !cli.no_cache && !items.is_empty() {
        // Cache accounting, part of the end-of-run report. Stderr under
        // --json so stdout stays one JSON document per app.
        let mut line = format!(
            "cache: {} hit(s), {} miss(es) ({:.0}% whole-report), classes reused {}/{}",
            cache_stats.hits,
            cache_stats.misses,
            cache_stats.hit_rate() * 100.0,
            cache_stats.classes_reused,
            cache_stats.classes_total,
        );
        if let (Some(p50), Some(p90), Some(p99)) = (
            latency.percentile(50.0),
            latency.percentile(90.0),
            latency.percentile(99.0),
        ) {
            line.push_str(&format!(
                "\nlatency: p50 {p50} µs, p90 {p90} µs, p99 {p99} µs per app"
            ));
        }
        if cli.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }

    if failures > 0 {
        ExitCode::from(EXIT_FAILED)
    } else if degraded > 0 {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

/// One analyzed app's stdout text in the chosen output mode: a JSON
/// document, a summary line, or the full report. Empty under
/// `--doctor`, whose snapshot is the only stdout content, and for a
/// failed app.
fn render_stdout(cli: &Cli, path: &str, outcome: &AppOutcome) -> Arc<String> {
    let Ok(report) = &outcome.report else {
        return Arc::default();
    };
    if cli.doctor {
        return Arc::default();
    }
    if cli.json {
        // Without a metrics snapshot the document is the cached entry's
        // bytes, when a disk hit or write produced them.
        return match report.metrics {
            None => outcome.json().expect("an analyzed app"),
            Some(_) => Arc::new(nck_svc::render_json(report)),
        };
    }
    let mut text = if cli.summary {
        format!(
            "{path}: {} ({} requests, {} defects{})",
            report.stats.package,
            report.stats.requests,
            report.defects.len(),
            if report.degraded() { ", degraded" } else { "" }
        )
    } else {
        let mut text = format!(
            "=== {} ({} defects) ===",
            report.stats.package,
            report.defects.len()
        );
        for d in &report.defects {
            text.push('\n');
            text.push_str(&d.render());
        }
        text
    };
    text.push('\n');
    Arc::new(text)
}

/// Names a delta record's app by its path as given, not by the cache
/// key it was analyzed under.
fn name_delta(delta: &mut serde_json::Value, name: &str) {
    if let serde_json::Value::Object(m) = delta {
        m.insert("key".to_owned(), serde_json::Value::String(name.to_owned()));
    }
}

/// The cache key of a bundle path: its canonical spelling (absolute,
/// symlinks resolved), or the path as given when it cannot be
/// resolved.
fn canonical_key(path: &Path) -> String {
    std::fs::canonicalize(path)
        .unwrap_or_else(|_| path.to_path_buf())
        .to_string_lossy()
        .into_owned()
}

/// The `nchecker serve` entry point: builds the daemon, spawns the
/// dispatcher (and the watcher when `--watch` is given), then serves
/// the protocol on stdio or a Unix socket until shutdown, draining
/// in-flight work before exiting.
fn serve_main(cli: Cli) -> ExitCode {
    // Exactly one transport.
    if cli.stdio == cli.socket.is_some() {
        return usage();
    }
    let events = events(&cli);
    let daemon = Arc::new(Daemon::new(
        DaemonOptions {
            service: service_options(&cli),
            queue_capacity: cli.queue_capacity,
        },
        events.clone(),
    ));

    let dispatcher = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || d.run_dispatcher())
    };
    let poll_ms = cli.poll_ms.unwrap_or(500) as u64;
    let watcher = cli.watch.map(|dir| {
        let d = Arc::clone(&daemon);
        let ev = events.clone();
        std::thread::spawn(move || watch_loop(&d, &dir, poll_ms, &ev))
    });

    let served = match cli.socket {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            daemon::serve_lines(&daemon, &mut stdin.lock(), &mut stdout.lock())
        }
        Some(path) => {
            events.info(&format!("serve: listening on {}", path.display()));
            daemon::serve_socket(&daemon, &path)
        }
    };

    // Graceful exit: no new admissions, drain what is queued and
    // in flight (the dispatcher flushes the disk cache), then reap the
    // helper threads.
    daemon.begin_shutdown();
    daemon.await_drained();
    let _ = dispatcher.join();
    if let Some(w) = watcher {
        let _ = w.join();
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            events.error(&format!("serve: {e}"));
            ExitCode::from(EXIT_FAILED)
        }
    }
}

/// Collects every `*.apk` / `*.adx` under `dir`, recursively, sorted by
/// path — the fixed input order a sharded corpus tree is vetted in.
fn collect_corpus_dir(dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e == "apk" || e == "adx")
            {
                out.push(path.to_string_lossy().into_owned());
            }
        }
    }
    out.sort();
    Ok(())
}

/// The `nchecker vet` entry point: shard the corpus across worker
/// processes and merge reports back in input order.
fn vet_main(cli: Cli) -> ExitCode {
    let events = events(&cli);
    let mut paths = cli.paths;
    if let Some(dir) = &cli.corpus_dir {
        if let Err(e) = collect_corpus_dir(dir, &mut paths) {
            events.error(&format!("{}: {e}", dir.display()));
            return ExitCode::from(EXIT_FAILED);
        }
    }
    if paths.is_empty() {
        return usage();
    }
    // With a cache dir, every bundle is keyed by its canonical path,
    // exactly as in one-shot mode. Messages keep the paths as given.
    let keys: Vec<String> = if cli.cache_dir.is_some() && !cli.no_cache {
        paths.iter().map(|p| canonical_key(Path::new(p))).collect()
    } else {
        paths.clone()
    };

    // The worker command: this very binary in serve --stdio mode, with
    // every parsed flag serve also takes forwarded verbatim. Queue
    // capacity is pinned to the submit window so pipelined chunks are
    // never admission-rejected.
    let exe = match std::env::current_exe() {
        Ok(p) => p.to_string_lossy().into_owned(),
        Err(e) => {
            events.error(&format!("cannot resolve own executable: {e}"));
            return ExitCode::from(EXIT_FAILED);
        }
    };
    let defaults = OrchestratorOptions::default();
    let mut worker_cmd = vec![exe];
    worker_cmd.extend(["serve", "--stdio", "--quiet", "--queue-capacity"].map(String::from));
    worker_cmd.push(defaults.window.to_string());
    worker_cmd.extend(cli.forward);
    let options = OrchestratorOptions {
        workers: cli.workers.unwrap_or(defaults.workers),
        worker_cmd,
        ..defaults
    };
    let mut fleet = WorkerFleet::new(options.clone());
    let outcome = fleet.vet_keyed(&paths, &keys);

    // stdout: the workers' reports in input order — the same bytes a
    // single-process `nchecker --json` run over these paths prints —
    // written before the workers stop, so a reader sees them while the
    // workers still flush their caches.
    let printed = cli.summary || {
        let mut stdout = std::io::stdout().lock();
        outcome
            .reports
            .iter()
            .flatten()
            .try_for_each(|report| stdout.write_all(report.as_bytes()))
            .and_then(|()| stdout.flush())
            .is_ok()
    };
    fleet.shutdown();
    if !printed {
        return ExitCode::from(EXIT_FAILED);
    }

    let mut failures = 0usize;
    for (idx, msg) in &outcome.errors {
        events.error(&format!("{}: {msg}", paths[*idx]));
        failures += 1;
    }
    if let Some(path) = &cli.delta_out {
        let mut text = String::new();
        for (name, delta) in paths.iter().zip(&outcome.deltas) {
            if let Some(delta) = delta {
                let mut delta = delta.clone();
                name_delta(&mut delta, name);
                text.push_str(&serde_json::to_string(&delta).expect("delta serializes"));
                text.push('\n');
            }
        }
        if let Err(e) = std::fs::write(path, text) {
            events.error(&format!("{}: {e}", path.display()));
            failures += 1;
        }
    }

    for s in &outcome.shards {
        events.info(&format!(
            "vet: shard {}: {} assigned, {} completed, {} failed, {} restart(s), {} ms",
            s.shard, s.assigned, s.completed, s.failed, s.restarts, s.wall_ms
        ));
    }
    for shard in &outcome.stragglers {
        events.warn(&format!("vet: shard {shard} straggled"));
    }
    let restarts: usize = outcome.shards.iter().map(|s| s.restarts).sum();
    let deltas = outcome.deltas.iter().flatten().count();
    events.warn(&format!(
        "vet: {} app(s) over {} worker(s): {} completed, {} failed, {} degraded, \
         {} delta(s), {} restart(s), {} spawned, {} reused",
        paths.len(),
        options.workers,
        outcome.completed(),
        failures,
        outcome.degraded,
        deltas,
        restarts,
        outcome.worker_spawns,
        outcome.workers_reused,
    ));

    if failures > 0 {
        ExitCode::from(EXIT_FAILED)
    } else if outcome.degraded > 0 {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

/// The `nchecker cache-gc` entry point: one explicit GC pass over a
/// disk cache directory.
fn gc_main(cli: Cli) -> ExitCode {
    let (Some(dir), Some(budget)) = (cli.cache_dir, cli.cache_budget) else {
        return usage();
    };
    let store = AnalysisStore::with_options(1, Some(dir));
    let stats = store.gc_disk(budget, &Obs::disabled());
    println!(
        "cache-gc: {} entries ({} bytes) -> evicted {}, freed {} bytes, {} bytes live",
        stats.entries,
        stats.bytes,
        stats.evicted,
        stats.freed_bytes,
        stats.live_bytes(),
    );
    ExitCode::SUCCESS
}

/// The `--watch` loop: polls the directory and submits changed
/// bundles under their path as the cache key, so an edited bundle
/// rides the incremental ladder instead of a cold run. Bundles whose
/// file disappears have their finished daemon state retired — a watch
/// session over a churning directory must not accumulate state for
/// files that no longer exist.
fn watch_loop(daemon: &Daemon, dir: &Path, poll_ms: u64, events: &Events) {
    let mut watcher = Watcher::new(dir);
    while !daemon.shutting_down() {
        match watcher.poll() {
            Ok(poll) => {
                for key in poll.removed {
                    let dropped = daemon.retire_key(&key);
                    events.info(&format!("watch: {key} deleted, {dropped} job(s) retired"));
                }
                for (key, bytes) in poll.changed {
                    match daemon.submit_bytes(key.clone(), bytes) {
                        Ok((id, _)) => events.info(&format!("watch: {key} submitted as job {id}")),
                        Err((_, msg)) => events.warn(&format!("watch: {key}: {msg}")),
                    }
                }
            }
            Err(e) => events.warn(&format!("watch: {}: {e}", dir.display())),
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(10)));
    }
}

/// Writes the structured JSONL records for the batch: one `app` record
/// per analyzed bundle (phase totals and cache outcome), one `cache`
/// record, one `funnel` record (targeted-mode counters), and one `run`
/// summary record with the latency percentiles.
fn emit_jsonl(
    sink: &JsonlSink,
    names: &[&str],
    outcomes: &[nck_svc::AppOutcome],
    cache_stats: &nck_svc::BatchCacheStats,
    merged: &nck_obs::MetricsSnapshot,
    latency: &mut Series,
) {
    for (path, outcome) in names.iter().zip(outcomes) {
        match &outcome.report {
            Ok(report) => {
                let mut rec = JsonObj::new()
                    .str("t", "app")
                    .str("app", path)
                    .str("package", &report.stats.package)
                    .u64("defects", report.defects.len() as u64)
                    .bool("degraded", report.degraded())
                    .bool("cache_hit", outcome.reuse.whole_report);
                if let Some(t) = &report.trace {
                    rec = rec.u64("wall_us", t.wall_nanos() / 1_000);
                    let mut per_app = PhaseTotals::new();
                    per_app.absorb(t);
                    let mut phases_obj = JsonObj::new();
                    for (phase_path, total) in per_app.iter() {
                        phases_obj = phases_obj.raw(
                            phase_path,
                            &JsonObj::new()
                                .u64("us", total.nanos / 1_000)
                                .u64("items", total.items)
                                .u64("count", total.count)
                                .finish(),
                        );
                    }
                    rec = rec.raw("phases", &phases_obj.finish());
                }
                sink.emit(&rec.finish());
            }
            Err(e) => {
                sink.emit(
                    &JsonObj::new()
                        .str("t", "app")
                        .str("app", path)
                        .str("error", &e.to_string())
                        .finish(),
                );
            }
        }
    }
    sink.emit(
        &JsonObj::new()
            .str("t", "cache")
            .u64("hits", cache_stats.hits as u64)
            .u64("misses", cache_stats.misses as u64)
            .u64("classes_reused", cache_stats.classes_reused as u64)
            .u64("classes_total", cache_stats.classes_total as u64)
            .u64("degraded", cache_stats.degraded as u64)
            .u64("evictions", counter(merged, "svc.cache.evict"))
            .finish(),
    );
    sink.emit(
        &JsonObj::new()
            .str("t", "funnel")
            .u64(
                "prescan_skipped",
                counter(merged, "targeted.prescan_skipped"),
            )
            .u64(
                "touching_classes",
                counter(merged, "targeted.touching_classes"),
            )
            .u64("relevant_refs", counter(merged, "targeted.relevant_refs"))
            .u64("slice_methods", counter(merged, "targeted.slice_methods"))
            .u64("methods_total", counter(merged, "targeted.methods_total"))
            .u64("methods_lifted", counter(merged, "targeted.methods_lifted"))
            .finish(),
    );
    let mut run = JsonObj::new()
        .str("t", "run")
        .u64("apps", names.len() as u64)
        .u64(
            "failed",
            outcomes.iter().filter(|o| o.report.is_err()).count() as u64,
        )
        .i64("cache_mem_entries", gauge(merged, "svc.cache.mem_entries"))
        .i64("cache_mem_bytes", gauge(merged, "svc.cache.mem_bytes"));
    if let Some(kib) = peak_rss_kib() {
        run = run.u64("peak_rss_kib", kib);
    }
    if let (Some(p50), Some(p90), Some(p99)) = (
        latency.percentile(50.0),
        latency.percentile(90.0),
        latency.percentile(99.0),
    ) {
        run = run
            .u64("wall_us_p50", p50)
            .u64("wall_us_p90", p90)
            .u64("wall_us_p99", p99)
            .u64("wall_us_max", latency.max().unwrap_or(0));
    }
    sink.emit(&run.finish());
}

fn counter(snap: &nck_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn gauge(snap: &nck_obs::MetricsSnapshot, name: &str) -> i64 {
    snap.gauges.get(name).map_or(0, |g| g.value)
}

/// This process's peak resident set (`VmHWM`) in KiB, or `None` where
/// `/proc` is absent.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}
