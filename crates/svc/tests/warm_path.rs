//! Warm-path byte-identity suite: after the cache-hit overhaul
//! (write-behind atime journal, disk-hit promotion, memoized report
//! rendering, warm worker fleets), every warm surface must still be
//! byte-identical to a cold analysis of the same bytes — including
//! after a crash-restart that loses the unflushed atime journal, where
//! GC ranks those entries by their older mtime stamps and must never
//! evict *wrongly*.

use nck_appgen::generate_with_bulk;
use nck_appgen::profile;
use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_netlibs::library::Library;
use nck_obs::{Events, Obs};
use nck_svc::{
    AnalysisService, Daemon, DaemonOptions, OrchestratorOptions, ServiceOptions, WorkerFleet,
};
use std::path::PathBuf;

/// The exact byte surface the one-shot CLI prints under `--json`:
/// pretty JSON plus the trailing newline (what the daemon `report`
/// verb and `vet` stdout both promise).
fn render(r: &nchecker::AppReport) -> String {
    let mut text =
        serde_json::to_string_pretty(&nchecker::app_report_to_json(r)).expect("report serializes");
    text.push('\n');
    text
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nck-warmpath-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn suite(n: usize, seed: u64) -> Vec<(String, Vec<u8>)> {
    profile::corpus(seed)
        .into_iter()
        .take(n)
        .map(|s| {
            let bytes = generate_with_bulk(&s, 2).to_bytes();
            (s.package.clone(), bytes)
        })
        .collect()
}

/// Every file of a cache directory with its mtime, by name.
fn entry_mtimes(dir: &std::path::Path) -> Vec<(std::ffi::OsString, std::time::SystemTime)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| (e.file_name(), e.metadata().unwrap().modified().unwrap()))
        .collect();
    files.sort();
    files
}

fn cold_renders(items: &[(String, Vec<u8>)]) -> Vec<String> {
    let reference = AnalysisService::new(
        ServiceOptions {
            mem_budget: Some(0),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    reference
        .analyze_batch(items)
        .iter()
        .map(|o| render(o.report.as_ref().expect("cold analyzes")))
        .collect()
}

fn assert_matches_cold(
    outcomes: &[nck_svc::AppOutcome],
    cold: &[String],
    items: &[(String, Vec<u8>)],
    label: &str,
) {
    for ((o, c), (key, _)) in outcomes.iter().zip(cold).zip(items) {
        let got = render(o.report.as_ref().expect("warm analyzes"));
        assert_eq!(&got, c, "{key}: {label} output must equal cold");
    }
}

#[test]
fn memory_and_disk_warm_paths_are_byte_identical_to_cold() {
    let dir = tmpdir("tiers");
    let items = suite(6, 2016);
    let cold = cold_renders(&items);

    // Process 1: populate both tiers, then hit the memory tier.
    let svc = AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(dir.clone()),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    assert_matches_cold(&svc.analyze_batch(&items), &cold, &items, "populate");
    let mem_warm = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&mem_warm).hits, items.len());
    assert_matches_cold(&mem_warm, &cold, &items, "memory-warm");
    drop(svc); // clean shutdown: flushes the (empty) journal

    // Process 2: every app is a disk hit. The hit path must journal
    // the reads (no stamping inline) and promote each entry into the
    // memory tier.
    let svc = AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(dir.clone()),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    let disk_warm = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&disk_warm).hits, items.len());
    assert_matches_cold(&disk_warm, &cold, &items, "disk-warm");
    assert_eq!(
        svc.store().journaled_atimes(),
        items.len(),
        "disk hits land in the journal, not on the entry files"
    );
    assert_eq!(
        svc.store().len(),
        items.len(),
        "disk hits are promoted into the memory tier"
    );

    // Round 3 in the same process: the promoted entries serve rung-1
    // memory hits — no new journal traffic, same bytes.
    let promoted_warm = svc.analyze_batch(&items);
    assert_eq!(
        AnalysisService::batch_stats(&promoted_warm).hits,
        items.len()
    );
    assert_matches_cold(&promoted_warm, &cold, &items, "promoted-warm");
    assert_eq!(
        svc.store().journaled_atimes(),
        items.len(),
        "memory hits do not touch the disk tier at all"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// With both tiers, the bytes a disk write or a disk hit hands back are
/// the bytes the next memory hit serves: a consumer's `json()` fills the
/// memory entry's render cell with them (no second render), and a
/// caller that never asks for JSON leaves the cell empty.
#[test]
fn the_first_memory_hit_serves_the_bytes_the_disk_tier_handed_back() {
    let dir = tmpdir("handback");
    let items = suite(4, 2016);
    let cold = cold_renders(&items);
    let options = || ServiceOptions {
        cache_dir: Some(dir.clone()),
        ..ServiceOptions::default()
    };
    // Process 1 writes every entry; process 2 reads every one back.
    for (round, hits) in [("write", 0), ("disk hit", items.len())] {
        let svc = AnalysisService::new(options(), Obs::disabled());
        let first = svc.analyze_batch(&items);
        assert_eq!(AnalysisService::batch_stats(&first).hits, hits);
        for (o, ((key, bytes), c)) in first.iter().zip(items.iter().zip(&cold)) {
            let stored = o
                .stored
                .as_ref()
                .expect("the disk tier hands its bytes back");
            assert_eq!(stored.as_str(), c, "{key}: {round}");
            let cell = svc
                .store()
                .render_cell(key, nck_dex::wire::fnv1a(bytes))
                .expect("memory entry");
            assert!(
                cell.get().is_none(),
                "{key}: {round}: filled without a consumer"
            );
            assert!(std::sync::Arc::ptr_eq(&o.json().unwrap(), stored));
        }
        let memory = svc.analyze_batch(&items);
        for (o, f) in memory.iter().zip(&first) {
            assert!(o.stored.is_none(), "a memory hit reads no disk");
            assert!(
                std::sync::Arc::ptr_eq(&o.json().unwrap(), f.stored.as_ref().unwrap()),
                "{round}: the first memory hit re-rendered"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_restart_with_unflushed_journal_degrades_to_mtime_without_wrong_evictions() {
    let dir = tmpdir("crash");
    let items = suite(3, 2016);
    let cold = cold_renders(&items);

    // Populate, then restart and read everything — the reads sit in
    // the journal only. `mem::forget` simulates the crash: Drop never
    // runs, the journal is lost, no entry was ever stamped.
    {
        let svc = AnalysisService::new(
            ServiceOptions {
                cache_dir: Some(dir.clone()),
                ..ServiceOptions::default()
            },
            Obs::disabled(),
        );
        let _ = svc.analyze_batch(&items);
    }
    let written = entry_mtimes(&dir);
    assert_eq!(written.len(), items.len());
    let svc = AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(dir.clone()),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    let warm = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&warm).hits, items.len());
    assert_eq!(svc.store().journaled_atimes(), items.len());
    std::mem::forget(svc);
    assert_eq!(
        entry_mtimes(&dir),
        written,
        "the crash lost every journaled read"
    );

    // Restart after the crash: GC ranks by the unflushed entries' older
    // stamps —
    // it evicts *by budget*, never corrupts, and every surviving entry
    // still serves bytes identical to cold.
    let svc = AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(dir.clone()),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    let obs = Obs::disabled();
    let before = svc.store().disk_stats();
    assert_eq!(before.entries, 3);
    let per_entry = before.bytes / before.entries;
    let stats = svc.store().gc_disk(per_entry * 2 + per_entry / 2, &obs);
    assert_eq!(
        stats.evicted, 1,
        "budget for two entries evicts exactly one"
    );
    assert_eq!(svc.store().disk_stats().entries, 2);

    // The post-crash warm run: survivors hit, the evicted app
    // recomputes — and everything is still byte-identical to cold.
    let after = svc.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&after);
    assert_eq!(stats.hits, 2, "survivors still decode and hit");
    assert_eq!(stats.misses, 1, "the evicted app recomputes");
    assert_matches_cold(&after, &cold, &items, "post-crash warm");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_report_verb_serves_identical_bytes_through_the_render_cell() {
    let spec = AppSpec::new(
        "com.warmpath.daemon",
        vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
    );
    let bytes = nck_appgen::generate(&spec).to_bytes();
    let one_shot = {
        let svc = AnalysisService::new(
            ServiceOptions {
                mem_budget: Some(0),
                ..ServiceOptions::default()
            },
            Obs::disabled(),
        );
        render(svc.analyze_one("k", &bytes).report.as_ref().unwrap())
    };

    let daemon = Daemon::new(DaemonOptions::default(), Events::silent());
    let report_of = |id: u64| {
        let reply = daemon.handle_request(nck_svc::Request::Report { id });
        let v: serde_json::Value = serde_json::from_str(&reply.line).unwrap();
        assert_eq!(v["ok"], true, "{v:?}");
        v["report"].as_str().expect("report payload").to_owned()
    };

    // Miss (renders and fills the cell), then a hit (serves the cell).
    let (id1, _) = daemon
        .submit_bytes("app.cell".to_owned(), bytes.clone())
        .unwrap();
    daemon.drain_now();
    let first = report_of(id1);
    daemon.retire_key("app.cell");
    let (id2, _) = daemon.submit_bytes("app.cell".to_owned(), bytes).unwrap();
    daemon.drain_now();
    let second = report_of(id2);

    assert_eq!(first, one_shot, "daemon miss matches one-shot --json");
    assert_eq!(second, one_shot, "daemon hit serves the same bytes");
}

#[test]
fn a_warm_fleet_serves_a_second_round_without_spawning_and_byte_identically() {
    let dir = tmpdir("fleet");
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<String> = suite(4, 2016)
        .into_iter()
        .enumerate()
        .map(|(i, (_, bytes))| {
            let p = dir.join(format!("app{i}.apk"));
            std::fs::write(&p, bytes).unwrap();
            p.to_str().unwrap().to_owned()
        })
        .collect();

    let mut fleet = WorkerFleet::new(OrchestratorOptions {
        workers: 2,
        worker_cmd: vec![
            env!("CARGO_BIN_EXE_nchecker").to_owned(),
            "serve".to_owned(),
            "--stdio".to_owned(),
            "--quiet".to_owned(),
            "--queue-capacity".to_owned(),
            "32".to_owned(),
        ],
        ..OrchestratorOptions::default()
    });

    let round1 = fleet.vet(&paths);
    assert_eq!(round1.completed(), paths.len());
    assert!(round1.worker_spawns >= 1, "cold fleet spawns its workers");
    assert_eq!(round1.workers_reused, 0);
    let spawned = round1.worker_spawns;
    assert_eq!(fleet.warm_workers(), spawned, "workers stay alive");

    let round2 = fleet.vet(&paths);
    assert_eq!(round2.completed(), paths.len());
    assert_eq!(round2.worker_spawns, 0, "warm round spawns nothing");
    assert_eq!(round2.workers_reused, spawned, "every shard reuses warm");
    assert_eq!(
        round2.shards.iter().map(|s| s.restarts).sum::<usize>(),
        0,
        "no respawns on the clean path"
    );
    assert_eq!(
        round1.reports, round2.reports,
        "warm-fleet output is byte-identical to the cold round"
    );
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
