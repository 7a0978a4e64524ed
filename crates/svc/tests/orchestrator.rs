//! Multi-process vetting: the sharded orchestrator must reproduce the
//! single-process `--json` bytes exactly, and survive a worker crash
//! by restarting the shard's process.

use nck_appgen::{profile, CorpusStream};
use nck_obs::Obs;
use nck_svc::{AnalysisService, OrchestratorOptions, ServiceOptions};
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nck-orch-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `n` corpus bundles under `dir`, returns their paths sorted.
fn write_bundles(dir: &Path, seed: u64, n: usize) -> Vec<String> {
    let stream = CorpusStream::new(seed, n);
    let mut paths = Vec::with_capacity(n);
    for i in 0..n {
        let spec = stream.spec_at(i);
        let path = dir.join(format!("app{i:06}.apk"));
        std::fs::write(&path, nck_appgen::generate(&spec).to_bytes()).unwrap();
        paths.push(path.to_string_lossy().into_owned());
    }
    paths
}

/// The one-shot `--json` byte form of each path, in order.
fn one_shot_reference(paths: &[String]) -> String {
    let svc = AnalysisService::new(ServiceOptions::default(), Obs::disabled());
    let mut out = String::new();
    for path in paths {
        let bytes = std::fs::read(path).unwrap();
        let outcome = svc.analyze_one(path, &bytes);
        let report = outcome.report.expect("analyzes");
        out.push_str(
            &serde_json::to_string_pretty(&nchecker::app_report_to_json(&report))
                .expect("report serializes"),
        );
        out.push('\n');
    }
    out
}

fn worker_cmd(exe: &str) -> Vec<String> {
    vec![
        exe.to_owned(),
        "serve".to_owned(),
        "--stdio".to_owned(),
        "--quiet".to_owned(),
        "--queue-capacity".to_owned(),
        "32".to_owned(),
    ]
}

/// The acceptance differential: `vet` across worker processes is
/// byte-identical to a single-process run over the full evaluation
/// corpus (plus streamed store apps for key-shape variety).
#[test]
fn vet_across_workers_matches_the_single_process_bytes() {
    let dir = temp_dir("diff");
    // The full 285-app evaluation corpus, generated through the same
    // profile the CLI's `corpus:SEED:IDX` spec uses.
    let mut paths: Vec<String> = Vec::new();
    for (i, spec) in profile::corpus(42).into_iter().enumerate() {
        let path = dir.join(format!("corpus{i:06}.apk"));
        std::fs::write(&path, nck_appgen::generate(&spec).to_bytes()).unwrap();
        paths.push(path.to_string_lossy().into_owned());
    }
    paths.extend(write_bundles(&dir, 7, 16));

    let reference = one_shot_reference(&paths);

    let options = OrchestratorOptions {
        workers: 3,
        worker_cmd: worker_cmd(env!("CARGO_BIN_EXE_nchecker")),
        ..OrchestratorOptions::default()
    };
    let outcome = nck_svc::vet(&options, &paths);
    assert!(outcome.errors.is_empty(), "errors: {:?}", outcome.errors);
    assert_eq!(outcome.completed(), paths.len());

    let merged: String = outcome
        .reports
        .iter()
        .map(|r| r.as_deref().expect("every slot filled"))
        .collect();
    assert_eq!(merged, reference, "vet output diverged from one-shot");

    let assigned: usize = outcome.shards.iter().map(|s| s.assigned).sum();
    assert_eq!(assigned, paths.len(), "partition covers every input");
    assert!(
        outcome.shards.iter().filter(|s| s.assigned > 0).count() > 1,
        "the corpus must actually spread across workers"
    );
}

/// A worker that dies mid-run is restarted and its shard completes:
/// the wrapper script crashes the first invocation, then execs the
/// real binary.
#[test]
fn a_crashed_worker_is_restarted_and_its_shard_completes() {
    let dir = temp_dir("crash");
    let paths = write_bundles(&dir, 9, 10);

    let marker = dir.join("crashed-once");
    let wrapper = dir.join("flaky-worker.sh");
    std::fs::write(
        &wrapper,
        format!(
            "#!/bin/sh\nif [ ! -e {marker} ]; then\n  : > {marker}\n  exit 42\nfi\nexec {real} \"$@\"\n",
            marker = marker.display(),
            real = env!("CARGO_BIN_EXE_nchecker"),
        ),
    )
    .unwrap();
    let mut perms = std::fs::metadata(&wrapper).unwrap().permissions();
    perms.set_mode(0o755);
    std::fs::set_permissions(&wrapper, perms).unwrap();

    let options = OrchestratorOptions {
        workers: 1,
        worker_cmd: worker_cmd(wrapper.to_str().unwrap()),
        ..OrchestratorOptions::default()
    };
    let outcome = nck_svc::vet(&options, &paths);
    assert!(outcome.errors.is_empty(), "errors: {:?}", outcome.errors);
    assert_eq!(outcome.completed(), paths.len());
    assert_eq!(outcome.shards.len(), 1);
    assert!(
        outcome.shards[0].restarts >= 1,
        "the crash must be visible in the shard accounting"
    );
    assert_eq!(one_shot_reference(&paths), {
        let merged: String = outcome
            .reports
            .iter()
            .map(|r| r.as_deref().unwrap())
            .collect();
        merged
    });
}

/// Exhausted restarts fail the shard's remaining items cleanly instead
/// of hanging or panicking.
#[test]
fn restart_exhaustion_fails_the_shard_items_cleanly() {
    let dir = temp_dir("exhaust");
    let paths = write_bundles(&dir, 5, 4);

    // Always crashes: every spawn exits immediately.
    let wrapper = dir.join("always-dies.sh");
    std::fs::write(&wrapper, "#!/bin/sh\nexit 42\n").unwrap();
    let mut perms = std::fs::metadata(&wrapper).unwrap().permissions();
    perms.set_mode(0o755);
    std::fs::set_permissions(&wrapper, perms).unwrap();

    let options = OrchestratorOptions {
        workers: 1,
        max_restarts: 1,
        worker_cmd: worker_cmd(wrapper.to_str().unwrap()),
        ..OrchestratorOptions::default()
    };
    let outcome = nck_svc::vet(&options, &paths);
    assert_eq!(outcome.completed(), 0);
    assert_eq!(outcome.errors.len(), paths.len(), "every input fails");
    assert!(outcome.shards[0].restarts >= 1);
}

/// Writes an executable `#!/bin/sh` worker script.
fn write_script(path: &Path, body: &str) {
    std::fs::write(path, format!("#!/bin/sh\n{body}")).unwrap();
    let mut perms = std::fs::metadata(path).unwrap().permissions();
    perms.set_mode(0o755);
    std::fs::set_permissions(path, perms).unwrap();
}

/// Runs `vet` on a helper thread and fails the test, instead of
/// hanging it, when the round does not return within a minute.
fn vet_within_deadline(options: OrchestratorOptions, paths: Vec<String>) -> nck_svc::VetOutcome {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(nck_svc::vet(&options, &paths));
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("vet returned before its deadline")
}

/// A worker whose submit replies are `ok` without a job id is a dead
/// worker: it is restarted until the budget runs out, then every item
/// fails with a typed error and `vet` returns.
#[test]
fn a_submit_reply_without_a_job_id_is_a_dead_worker() {
    let dir = temp_dir("no-id");
    let paths = write_bundles(&dir, 5, 3);
    let worker = dir.join("ok-without-id.sh");
    write_script(
        &worker,
        "while read -r line; do echo '{\"ok\":true}'; done\n",
    );

    let options = OrchestratorOptions {
        workers: 1,
        max_restarts: 2,
        worker_cmd: vec![worker.to_string_lossy().into_owned()],
        ..OrchestratorOptions::default()
    };
    let outcome = vet_within_deadline(options, paths.clone());
    assert_eq!(outcome.completed(), 0);
    assert_eq!(outcome.errors.len(), paths.len(), "every input fails");
    assert!(
        outcome
            .errors
            .iter()
            .all(|(_, m)| m.contains("restart budget (2) exhausted")),
        "{:?}",
        outcome.errors
    );
    assert_eq!(outcome.shards[0].restarts, 2);
}

/// A worker whose stdout is cut mid-frame on its first spawn (the real
/// worker piped through a byte-counting `dd`, which unlike `head -c`
/// forwards every byte as it arrives) is restarted, and the merged
/// output stays byte-identical to one-shot.
#[test]
fn a_frame_cut_short_restarts_the_worker() {
    let dir = temp_dir("short-frame");
    let paths = write_bundles(&dir, 13, 6);
    let reference = one_shot_reference(&paths);
    let first = nck_svc::AnalysisService::new(ServiceOptions::default(), Obs::disabled())
        .analyze_one(&paths[0], &std::fs::read(&paths[0]).unwrap())
        .report
        .expect("analyzes");
    let first_len = serde_json::to_string_pretty(&nchecker::app_report_to_json(&first))
        .unwrap()
        .len();
    assert!(first_len > 2_000, "the first frame is long enough to cut");
    // The submit replies and the first fetch header take well under
    // 800 bytes, so this cut lands inside the first frame.
    let cut = 800 + first_len / 2;

    let marker = dir.join("cut-once");
    let wrapper = dir.join("cut-worker.sh");
    write_script(
        &wrapper,
        &format!(
            // The first spawn runs the pipeline in the background with
            // the worker's stdin passed through explicitly, then closes
            // its own copy of stdout: `dd` is then the only writer, so
            // its exit is an EOF the orchestrator sees.
            "if [ ! -e {marker} ]; then\n  : > {marker}\n  exec 3<&0\n  {real} \"$@\" <&3 3<&- | dd bs=1 count={cut} 2>/dev/null &\n  exec >&- 3<&-\n  wait\n  exit 0\nfi\nexec {real} \"$@\"\n",
            marker = marker.display(),
            real = env!("CARGO_BIN_EXE_nchecker"),
        ),
    );

    let options = OrchestratorOptions {
        workers: 1,
        worker_cmd: worker_cmd(wrapper.to_str().unwrap()),
        ..OrchestratorOptions::default()
    };
    let outcome = vet_within_deadline(options, paths.clone());
    assert!(outcome.errors.is_empty(), "errors: {:?}", outcome.errors);
    assert_eq!(
        outcome.shards[0].restarts, 1,
        "the cut frame kills the first worker"
    );
    let merged: String = outcome
        .reports
        .iter()
        .map(|r| r.as_deref().expect("every slot filled"))
        .collect();
    assert_eq!(merged, reference, "vet output diverged from one-shot");
}
