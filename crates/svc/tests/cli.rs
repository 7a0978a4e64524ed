//! Tests of the `nchecker` command-line binary.

use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_netlibs::library::Library;
use std::path::Path;

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nck-cli-{name}-{}", std::process::id()))
}

#[test]
fn summary_mode_prints_one_line_per_app() {
    let spec = AppSpec::new(
        "com.test.cli",
        vec![RequestSpec::new(
            Library::BasicHttpClient,
            Origin::UserClick,
        )],
    );
    let path = temp_path("ok.apk");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--summary")
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("com.test.cli"), "{stdout}");
    assert!(stdout.contains("defects"), "{stdout}");
}

#[test]
fn full_mode_prints_reports() {
    let spec = AppSpec::new(
        "com.test.cli2",
        vec![RequestSpec::new(Library::Volley, Origin::UserClick)],
    );
    let path = temp_path("full.apk");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fix Suggestion"), "{stdout}");
}

#[test]
fn bad_file_fails() {
    let path = temp_path("bad.apk");
    std::fs::write(&path, b"not an apk").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success());
}

#[test]
fn no_arguments_shows_usage() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .output()
        .expect("cli runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn json_mode_emits_valid_json() {
    let spec = AppSpec::new(
        "com.test.json",
        vec![RequestSpec::new(
            Library::BasicHttpClient,
            Origin::UserClick,
        )],
    );
    let path = temp_path("json.apk");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--json")
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"kind\""), "{stdout}");
    assert!(stdout.contains("missed-connectivity-check"), "{stdout}");
    assert!(
        stdout.contains("\"package\": \"com.test.json\""),
        "{stdout}"
    );
}

#[test]
fn cache_dir_persists_entries_and_reports_hits() {
    let spec = AppSpec::new(
        "com.test.cached",
        vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
    );
    let path = temp_path("cached.apk");
    let cache = temp_path("cache-dir");
    let _ = std::fs::remove_dir_all(&cache);
    nck_appgen::generate(&spec).save(&path).unwrap();

    let run = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .arg("--summary")
            .arg("--cache-dir")
            .arg(&cache)
            .arg(&path)
            .output()
            .expect("cli runs")
    };
    let first = run();
    assert!(first.status.success());
    let entries = std::fs::read_dir(&cache).map(|d| d.count()).unwrap_or(0);
    assert!(entries > 0, "cache dir must gain an entry");
    assert!(
        String::from_utf8_lossy(&first.stdout).contains("cache: 0 hit(s), 1 miss(es)"),
        "{}",
        String::from_utf8_lossy(&first.stdout)
    );

    // A second process restores the report from disk.
    let second = run();
    assert!(second.status.success());
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(stdout.contains("cache: 1 hit(s), 0 miss(es)"), "{stdout}");

    std::fs::remove_file(&path).ok();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn no_cache_silences_the_cache_summary() {
    let spec = AppSpec::new(
        "com.test.nocache",
        vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
    );
    let path = temp_path("nocache.apk");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--summary")
        .arg("--no-cache")
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("cache:"), "{stdout}");
}

fn make_apps(prefix: &str, n: usize) -> Vec<std::path::PathBuf> {
    (0..n)
        .map(|i| {
            let spec = AppSpec::new(
                &format!("com.test.{prefix}{i}"),
                vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
            );
            let path = temp_path(&format!("{prefix}{i}.apk"));
            nck_appgen::generate(&spec).save(&path).unwrap();
            path
        })
        .collect()
}

#[test]
fn doctor_snapshot_is_byte_identical_across_runs_and_jobs() {
    let apps = make_apps("doctor", 4);
    let cache = temp_path("doctor-cache");
    let _ = std::fs::remove_dir_all(&cache);

    let run = |jobs: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .arg("--doctor")
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--jobs")
            .arg(jobs)
            .args(&apps)
            .output()
            .expect("cli runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    // Warm the cache, then compare warm snapshots: the disk tier is
    // unchanged from here on.
    let _cold = run("2");
    let warm1 = run("1");
    let warm8 = run("8");
    let warm1b = run("1");
    assert_eq!(warm1, warm1b, "repeated runs must be byte-identical");
    assert_eq!(warm1, warm8, "--jobs must not change the snapshot");

    let v: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&warm1).unwrap()).expect("doctor emits JSON");
    assert_eq!(v["schema"], 1);
    assert_eq!(v["cache"]["hit"], 4, "warm run hits all apps");
    assert_eq!(v["cache"]["disk"]["entries"], 4);
    assert_eq!(v["last_run"]["apps"], 4);
    for key in ["build", "config", "funnel"] {
        assert!(v.get(key).is_some(), "missing {key}");
    }

    for p in &apps {
        std::fs::remove_file(p).ok();
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn doctor_works_without_bundles() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--doctor")
        .output()
        .expect("cli runs");
    assert!(out.status.success());
    let v: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).expect("doctor emits JSON");
    assert_eq!(v["last_run"]["apps"], 0);
    assert_eq!(v["cache"]["disk"]["configured"], false);
}

#[test]
fn trace_out_writes_a_chrome_trace() {
    let apps = make_apps("traceout", 3);
    let trace_file = temp_path("trace.json");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--summary")
        .arg("--trace-out")
        .arg(&trace_file)
        .args(&apps)
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The stderr span tree stays opt-in (--trace): recording for the
    // exporter must not spam the terminal.
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("--- trace:"),
        "no stderr tree without --trace"
    );

    let text = std::fs::read_to_string(&trace_file).expect("trace file written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("trace is JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    let spans: Vec<&serde_json::Value> = events.iter().filter(|e| e["ph"] == "X").collect();
    assert!(spans.len() >= 3, "one root span per app at least");
    assert!(
        events.iter().any(|e| e["ph"] == "M"),
        "lane metadata present"
    );
    // Monotonic ts within each lane.
    let mut last_ts: std::collections::BTreeMap<i64, f64> = Default::default();
    for s in &spans {
        let tid = s["tid"].as_i64().unwrap();
        let ts = s["ts"].as_f64().unwrap();
        assert!(
            ts >= last_ts.get(&tid).copied().unwrap_or(f64::MIN),
            "ts not monotonic in lane {tid}"
        );
        last_ts.insert(tid, ts);
    }
    // Every app label appears on some root span.
    for i in 0..3 {
        let pkg = format!("com.test.traceout{i}");
        assert!(
            spans.iter().any(|s| s["args"]["app"] == pkg.as_str()),
            "missing app {pkg}"
        );
    }

    for p in &apps {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&trace_file).ok();
}

#[test]
fn log_json_writes_typed_records() {
    let apps = make_apps("logjson", 2);
    let log_file = temp_path("log.jsonl");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--summary")
        .arg("--quiet")
        .arg("--log-json")
        .arg(&log_file)
        .args(&apps)
        .output()
        .expect("cli runs");
    assert!(out.status.success());

    let text = std::fs::read_to_string(&log_file).expect("log file written");
    let mut types = std::collections::BTreeSet::new();
    let mut app_records = 0;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("every line is JSON");
        let t = v["t"].as_str().expect("every record is typed").to_owned();
        if t == "app" {
            app_records += 1;
            assert!(v["wall_us"].as_i64().unwrap() > 0, "wall time recorded");
            assert!(v["phases"]["app"]["count"].as_i64().unwrap() >= 1);
        }
        if t == "run" {
            assert_eq!(v["apps"], 2);
            assert!(v["wall_us_p50"].as_i64().unwrap() > 0);
            assert!(v["wall_us_p99"].as_i64().unwrap() >= v["wall_us_p50"].as_i64().unwrap());
        }
        types.insert(t);
    }
    assert_eq!(app_records, 2, "one app record per bundle");
    for t in ["app", "cache", "funnel", "run"] {
        assert!(types.contains(t), "missing record type {t} in:\n{text}");
    }

    for p in &apps {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&log_file).ok();
}

#[test]
fn jobs_flag_accepts_a_worker_count_and_rejects_zero() {
    let spec = AppSpec::new(
        "com.test.jobs",
        vec![RequestSpec::new(Library::Volley, Origin::UserClick)],
    );
    let path = temp_path("jobs.apk");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let ok = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--summary")
        .arg("--jobs")
        .arg("2")
        .arg(&path)
        .output()
        .expect("cli runs");
    assert!(ok.status.success());

    let zero = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--jobs")
        .arg("0")
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(zero.status.code(), Some(2), "--jobs 0 is a usage error");
}

/// The binary's flag table, compiled in so the tests below iterate over
/// the rows themselves.
#[allow(dead_code)]
#[path = "../src/bin/nchecker/cli.rs"]
mod flags;

use std::process::{Command, Output, Stdio};

fn nchecker(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("cli runs")
}

/// A fresh, empty directory.
fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = temp_path(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &std::path::Path) -> &str {
    p.to_str().expect("temp paths are UTF-8")
}

#[test]
fn parse_bytes_takes_suffixes_and_rejects_overflow() {
    assert_eq!(flags::parse_bytes("0"), Some(0));
    assert_eq!(flags::parse_bytes("512"), Some(512));
    assert_eq!(flags::parse_bytes("64k"), Some(64 << 10));
    assert_eq!(flags::parse_bytes("64K"), Some(64 << 10));
    assert_eq!(flags::parse_bytes("3m"), Some(3 << 20));
    assert_eq!(flags::parse_bytes("3M"), Some(3 << 20));
    assert_eq!(flags::parse_bytes("2g"), Some(2 << 30));
    assert_eq!(flags::parse_bytes("2G"), Some(2 << 30));
    assert_eq!(
        flags::parse_bytes("17179869183G"),
        Some(u64::MAX - (1 << 30) + 1)
    );
    // 16 EiB does not fit in a u64.
    assert_eq!(flags::parse_bytes("17179869184G"), None);
    assert_eq!(flags::parse_bytes("18446744073709551616"), None);
    for bad in ["", "K", "G", "1T", "1.5G", "-1", "1 G"] {
        assert_eq!(flags::parse_bytes(bad), None, "{bad:?}");
    }
}

#[test]
fn an_overflowing_cache_budget_is_a_usage_error_and_deletes_nothing() {
    let apps = make_apps("budget", 2);
    let cache = temp_dir("budget-cache");
    let mut warm = vec!["--quiet", "--cache-dir", path_str(&cache)];
    warm.extend(apps.iter().map(|p| path_str(p)));
    assert!(nchecker(&warm).status.success());
    let entries = || std::fs::read_dir(&cache).unwrap().count();
    let before = entries();
    assert!(before > 0);

    let gc = ["cache-gc", "--cache-dir", path_str(&cache)];
    let out = nchecker(&[&gc[..], &["--cache-budget", "17179869184G"]].concat());
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(entries(), before, "a rejected budget must not GC anything");
    let mut one_shot = warm.clone();
    one_shot.extend(["--cache-budget", "17179869184G"]);
    assert_eq!(nchecker(&one_shot).status.code(), Some(2));
    assert_eq!(entries(), before);

    for p in &apps {
        std::fs::remove_file(p).ok();
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn value_tokens_are_not_read_as_flags() {
    let apps = make_apps("valuetok", 1);
    let dir = temp_dir("valuetok");
    // `--summary` is the value of `--delta-out`, not a switch.
    let out = Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .args(["--no-cache", "--delta-out", "--summary"])
        .arg(&apps[0])
        .current_dir(&dir)
        .output()
        .expect("cli runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("=== com.test.valuetok0"),
        "full report expected, not summary mode:\n{stdout}"
    );
    assert!(
        dir.join("--summary").is_file(),
        "delta file named --summary"
    );

    std::fs::remove_file(&apps[0]).ok();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the binary with `args` as a Unix-socket daemon, then shuts it
/// down over the socket.
fn serve_on_socket(args: &[&str], socket: &std::path::Path) -> std::process::ExitStatus {
    use std::io::{BufRead, Write};
    let mut child = Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    let mut stream = None;
    for _ in 0..500 {
        if let Ok(s) = std::os::unix::net::UnixStream::connect(socket) {
            stream = Some(s);
            break;
        }
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut stream = stream.expect("daemon listens on its socket");
    stream.write_all(b"{\"verb\":\"shutdown\"}\n").unwrap();
    let mut reply = String::new();
    std::io::BufReader::new(&stream)
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    child.wait().unwrap()
}

/// Every row of the flag table parses in every mode that claims it and
/// is a usage error (exit 2) in every mode that does not.
#[test]
fn every_flag_parses_exactly_in_the_modes_that_claim_it() {
    let dir = temp_dir("matrix");
    let apps = dir.join("apps");
    std::fs::create_dir_all(&apps).unwrap();
    let spec = AppSpec::new(
        "com.test.matrix",
        vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
    );
    let app = apps.join("app.apk");
    nck_appgen::generate(&spec).save(&app).unwrap();
    let gc_cache = dir.join("gc-cache");

    for flag in flags::FLAGS {
        for name in flag.names {
            let value = match flag.kind {
                flags::Kind::Switch(_) | flags::Kind::Level(_) => None,
                flags::Kind::Count(_) => Some("2".to_owned()),
                flags::Kind::Bytes(_) => Some("1M".to_owned()),
                flags::Kind::Path(..) => Some(match *name {
                    "--corpus-dir" | "--watch" => path_str(&apps).to_owned(),
                    _ => path_str(&dir.join(name.trim_start_matches('-'))).to_owned(),
                }),
            };
            let mut row: Vec<&str> = vec![name];
            row.extend(value.as_deref());
            for &(word, bit, _) in &flags::MODES {
                let mut args: Vec<&str> = match bit {
                    flags::ONE => vec![],
                    flags::SERVE if *name == "--socket" => vec!["serve"],
                    flags::SERVE => vec!["serve", "--stdio"],
                    flags::VET => vec!["vet", "--workers", "1", "--corpus-dir", path_str(&apps)],
                    _ => vec![
                        word,
                        "--cache-dir",
                        path_str(&gc_cache),
                        "--cache-budget",
                        "1M",
                    ],
                };
                args.extend(&row);
                if bit == flags::ONE {
                    args.push(path_str(&app));
                }
                let accepted = flag.modes & bit != 0;
                let code = if accepted && *name == "--socket" {
                    serve_on_socket(&args, Path::new(value.as_deref().unwrap())).code()
                } else {
                    nchecker(&args).status.code()
                };
                let want = if accepted { 0 } else { 2 };
                assert_eq!(code, Some(want), "nchecker {}", args.join(" "));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_last_of_interproc_and_no_interproc_wins() {
    let dir = temp_dir("interproc");
    let spec = nck_appgen::interproc_suite::interproc_apps()
        .into_iter()
        .find(|s| s.package == "com.ip.guardbasic")
        .expect("suite app");
    let app = dir.join("guardbasic.apk");
    nck_appgen::generate(&spec).save(&app).unwrap();
    let app = path_str(&app);

    for mode in [
        &["--json", "--no-cache"][..],
        &["vet", "--no-cache", "--quiet"],
    ] {
        let run = |flags: &[&str]| {
            let out = nchecker(&[mode, flags, &[app]].concat());
            assert!(out.status.success(), "{mode:?} {flags:?}");
            out.stdout
        };
        let on = run(&[]);
        let off = run(&["--no-interproc"]);
        assert_ne!(on, off, "the suite app must tell the engines apart");
        assert_eq!(run(&["--no-interproc", "--interproc"]), on, "{mode:?}");
        assert_eq!(run(&["--interproc", "--no-interproc"]), off, "{mode:?}");
        assert_eq!(
            run(&["--no-interproc", "--strict", "--interproc"]),
            run(&["--strict"])
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn vet_no_cache_prints_the_one_shot_bytes() {
    let dir = temp_dir("vet-nocache");
    let stream = nck_appgen::CorpusStream::new(11, 12);
    let mut paths = Vec::new();
    for i in 0..12 {
        let shard = dir.join(format!("shard-{:02}", i % 3));
        std::fs::create_dir_all(&shard).unwrap();
        let path = shard.join(format!("app{i:06}.apk"));
        nck_appgen::generate(&stream.spec_at(i))
            .save(&path)
            .unwrap();
        paths.push(path_str(&path).to_owned());
    }
    paths.sort();
    let mut one_shot = vec!["--json", "--no-cache"];
    one_shot.extend(paths.iter().map(String::as_str));
    let expected = nchecker(&one_shot);
    assert!(expected.status.success());

    let vet = nchecker(&[
        "vet",
        "--workers",
        "2",
        "--no-cache",
        "--quiet",
        "--corpus-dir",
        path_str(&dir),
    ]);
    assert!(
        vet.status.success(),
        "{}",
        String::from_utf8_lossy(&vet.stderr)
    );
    assert!(!expected.stdout.is_empty());
    assert_eq!(
        vet.stdout, expected.stdout,
        "vet --no-cache diverged from one-shot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_lists_every_flag_exactly_once() {
    let out = nchecker(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    let help = String::from_utf8(out.stderr).unwrap();
    assert_eq!(help, flags::help());
    let rows: Vec<&str> = help.lines().filter(|l| l.starts_with("  -")).collect();
    assert_eq!(rows.len(), flags::FLAGS.len(), "{help}");
    for flag in flags::FLAGS {
        let label = format!("  {} ", flag.label(", "));
        let n = rows.iter().filter(|l| l.starts_with(&label)).count();
        assert_eq!(n, 1, "{label:?} in:\n{help}");
        assert!(rows.iter().any(|l| l.ends_with(flag.help)));
    }
    // Each mode's synopsis lists exactly the rows that mode accepts.
    let mut synopses: Vec<String> = Vec::new();
    for line in help.split("\n\n").next().unwrap().lines() {
        match synopses.last_mut() {
            Some(last) if line.trim_start().starts_with('[') => last.push_str(line),
            _ => synopses.push(line.to_owned()),
        }
    }
    assert_eq!(synopses.len(), flags::MODES.len(), "{help}");
    for (synopsis, &(word, bit, _)) in synopses.iter().zip(&flags::MODES) {
        assert!(synopsis.contains(&format!("nchecker {word}")), "{synopsis}");
        for flag in flags::FLAGS {
            let item = format!("[{}]", flag.label("|"));
            let listed = synopsis.contains(&item);
            assert_eq!(listed, flag.modes & bit != 0, "{item} in {synopsis}");
        }
    }
}

/// Writes version `version` of the first `n` apps of a seed-11 store
/// stream under `dir`, returning the sorted paths.
fn write_stream(dir: &std::path::Path, n: usize, version: u32) -> Vec<String> {
    let stream = nck_appgen::CorpusStream::new(11, n);
    let mut paths: Vec<String> = (0..n)
        .map(|i| {
            let path = nck_appgen::stream::sharded_path(dir, 3, i);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            nck_appgen::generate(&stream.version_at(i, version))
                .save(&path)
                .unwrap();
            path_str(&path).to_owned()
        })
        .collect();
    paths.sort();
    paths
}

fn one_shot_ok(flags: &[&str], paths: &[String]) -> Output {
    let mut args = flags.to_vec();
    args.extend(paths.iter().map(String::as_str));
    let out = nchecker(&args);
    assert!(
        out.status.success(),
        "{flags:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn one_shot_json_is_byte_identical_across_cache_modes() {
    let dir = temp_dir("cache-modes");
    let paths = write_stream(&dir.join("tree"), 16, 0);
    let expected = one_shot_ok(&["--json", "--no-cache", "--jobs", "1"], &paths).stdout;
    assert_eq!(
        String::from_utf8_lossy(&expected).matches("\n}\n").count(),
        16,
        "one report per app"
    );
    for jobs in ["1", "2"] {
        let cache = dir.join(format!("cache-{jobs}"));
        let cache = path_str(&cache);
        for (mode, flags) in [
            ("default", vec!["--json", "--jobs", jobs]),
            ("--no-cache", vec!["--json", "--no-cache", "--jobs", jobs]),
            (
                "cold --cache-dir",
                vec!["--json", "--jobs", jobs, "--cache-dir", cache],
            ),
            (
                "warm --cache-dir",
                vec!["--json", "--jobs", jobs, "--cache-dir", cache],
            ),
        ] {
            let out = one_shot_ok(&flags, &paths);
            assert!(
                out.stdout == expected,
                "{mode} at --jobs {jobs} diverged from --no-cache"
            );
            if mode == "warm --cache-dir" {
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(err.contains("cache: 16 hit(s), 0 miss(es)"), "{err}");
            }
        }
        // One-shot keeps no memory tier: the batch leaves every clean
        // app on disk and nothing resident.
        let doctor = one_shot_ok(&["--doctor", "--jobs", jobs, "--cache-dir", cache], &paths);
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&doctor.stdout).unwrap()).unwrap();
        assert_eq!(v["cache"]["mem"]["entries"], 0, "{v:?}");
        assert_eq!(v["cache"]["mem"]["bytes"], 0, "{v:?}");
        assert_eq!(v["cache"]["disk"]["entries"], 16, "{v:?}");
        assert_eq!(v["cache"]["hit"], 16, "{v:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shot_delta_out_diffs_against_stale_disk_entries() {
    let dir = temp_dir("delta-out");
    let tree = dir.join("tree");
    let cache = dir.join("cache");
    let deltas = dir.join("deltas.jsonl");
    let n = 8;
    let churned = [1usize, 4, 6];
    let stream = nck_appgen::CorpusStream::new(11, n);
    let paths = write_stream(&tree, n, 0);
    one_shot_ok(&["--summary", "--cache-dir", path_str(&cache)], &paths);

    // Version 1 of the churned apps, same paths; the rest stay put.
    let mut expected = Vec::new();
    let checker = nchecker::NChecker::new();
    for &i in &churned {
        let path = nck_appgen::stream::sharded_path(&tree, 3, i);
        let old = std::fs::read(&path).unwrap();
        let new = nck_appgen::generate(&stream.version_at(i, 1)).to_bytes();
        std::fs::write(&path, &new).unwrap();
        let delta = nck_svc::diff_reports(
            path_str(&path),
            nck_dex::wire::fnv1a(&old),
            nck_dex::wire::fnv1a(&new),
            &checker.analyze_bytes(&old).unwrap(),
            &checker.analyze_bytes(&new).unwrap(),
        );
        expected.push(delta.to_json());
    }
    expected.sort_by_key(|d| d["key"].as_str().unwrap().to_owned());

    let out = one_shot_ok(
        &[
            "--summary",
            "--cache-dir",
            path_str(&cache),
            "--delta-out",
            path_str(&deltas),
        ],
        &paths,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache: 5 hit(s), 3 miss(es)"), "{stdout}");
    let got: Vec<serde_json::Value> = std::fs::read_to_string(&deltas)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("each delta line is JSON"))
        .collect();
    assert_eq!(
        got, expected,
        "one delta per churned app, none for the rest"
    );
    for d in &got {
        assert_ne!(d["prev_fp"], d["new_fp"], "{d:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_json_run_record_reports_mem_tier_bytes_and_peak_rss() {
    let dir = temp_dir("run-record");
    let log = dir.join("log.jsonl");
    let paths = write_stream(&dir.join("tree"), 2, 0);
    one_shot_ok(
        &["--summary", "--quiet", "--log-json", path_str(&log)],
        &paths,
    );
    let text = std::fs::read_to_string(&log).unwrap();
    let run: serde_json::Value = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .find(|v| v["t"] == "run")
        .expect("a run record");
    assert_eq!(run["cache_mem_bytes"], 0, "one-shot keeps no memory tier");
    if Path::new("/proc/self/status").exists() {
        assert!(run["peak_rss_kib"].as_i64().unwrap() > 0, "{run:?}");
    } else {
        assert!(run.get("peak_rss_kib").is_none(), "{run:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache entry files of `cache`, sorted by name.
fn cache_entries(cache: &Path) -> Vec<std::path::PathBuf> {
    let mut entries: Vec<_> = std::fs::read_dir(cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    entries
}

fn quarantined(cache: &Path) -> usize {
    std::fs::read_dir(cache)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|e| e == "quarantine")
        })
        .count()
}

/// The `schema` an entry file's first line names.
fn entry_schema(path: &Path) -> i64 {
    let text = std::fs::read_to_string(path).unwrap();
    let head = text.lines().next().unwrap();
    serde_json::from_str(head).unwrap()["schema"]
        .as_i64()
        .unwrap()
}

#[test]
fn old_layout_entries_are_plain_misses_rewritten_in_place() {
    let dir = temp_dir("old-layout");
    let cache = dir.join("cache");
    let deltas = dir.join("deltas.jsonl");
    let paths = write_stream(&dir.join("tree"), 8, 0);
    let expected = one_shot_ok(&["--json", "--no-cache"], &paths).stdout;
    one_shot_ok(&["--json", "--cache-dir", path_str(&cache)], &paths);

    // Rewrite every entry in the previous layout: one line, the wire
    // report under "report", schema 1.
    let entries = cache_entries(&cache);
    assert_eq!(entries.len(), 8);
    for path in &entries {
        let text = std::fs::read_to_string(path).unwrap();
        let (head, rest) = text.split_once('\n').unwrap();
        let head = serde_json::from_str(head).unwrap();
        let n = head["json_bytes"].as_i64().unwrap() as usize;
        let old = serde_json::json!({
            "schema": 1,
            "bundle_fp": head["bundle_fp"].clone(),
            "config_fp": head["config_fp"].clone(),
            "report": serde_json::from_str(&rest[n..]).unwrap(),
        });
        std::fs::write(path, serde_json::to_string(&old).unwrap()).unwrap();
        assert_eq!(entry_schema(path), 1);
    }

    let out = one_shot_ok(
        &[
            "--json",
            "--cache-dir",
            path_str(&cache),
            "--delta-out",
            path_str(&deltas),
        ],
        &paths,
    );
    assert!(
        out.stdout == expected,
        "upgrade run diverged from --no-cache"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cache: 0 hit(s), 8 miss(es)"), "{err}");
    assert_eq!(quarantined(&cache), 0, "old entries are not corrupt");
    assert_eq!(
        std::fs::read_to_string(&deltas).unwrap(),
        "",
        "an old entry is no delta base"
    );
    assert_eq!(cache_entries(&cache), entries, "rewritten in place");
    for path in &entries {
        assert_eq!(entry_schema(path), 2, "{}", path.display());
    }

    let warm = one_shot_ok(&["--json", "--cache-dir", path_str(&cache)], &paths);
    assert!(warm.stdout == expected);
    let err = String::from_utf8_lossy(&warm.stderr);
    assert!(err.contains("cache: 8 hit(s), 0 miss(es)"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_spelling_of_a_tree_shares_one_cache_entry_per_app() {
    let dir = temp_dir("key-spelling");
    let cache = dir.join("cache");
    let tree = dir.join("tree");
    let paths = write_stream(&tree, 12, 0);
    std::os::unix::fs::symlink(&tree, dir.join("link")).unwrap();
    let expected = one_shot_ok(&["--json", "--no-cache"], &paths).stdout;
    let vet = |corpus: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .args(["vet", "--workers", "2", "--quiet", "--cache-dir", "cache"])
            .args(["--corpus-dir", corpus])
            .current_dir(&dir)
            .stdin(Stdio::null())
            .output()
            .expect("cli runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout == expected, "vet --corpus-dir {corpus} diverged");
    };

    // Prime through the relative spelling, then re-vet through the
    // absolute one and through a symlink: no new key, so no new entry.
    vet("tree");
    let primed = cache_entries(&cache);
    assert_eq!(primed.len(), 12);
    vet(path_str(&tree));
    vet("link");
    assert_eq!(cache_entries(&cache), primed, "one entry per app");

    // One-shot keys agree with vet's: absolute paths all hit.
    let out = one_shot_ok(&["--json", "--cache-dir", path_str(&cache)], &paths);
    assert!(out.stdout == expected);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cache: 12 hit(s), 0 miss(es)"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A symlinked directory inside a corpus tree: `vet` and one-shot key
/// its apps by the same resolved path, so each hits the other's
/// entries whichever of them primes the cache.
#[test]
fn a_symlinked_subdirectory_keys_vet_and_one_shot_alike() {
    let dir = temp_dir("key-symlink-subdir");
    let cache = dir.join("cache");
    let paths = write_stream(&dir.join("other"), 8, 0);
    std::fs::create_dir_all(dir.join("tree")).unwrap();
    std::os::unix::fs::symlink(dir.join("other"), dir.join("tree").join("sub")).unwrap();
    let expected = one_shot_ok(&["--json", "--no-cache"], &paths).stdout;
    let vet = || {
        let out = Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .args(["vet", "--workers", "2", "--quiet", "--cache-dir", "cache"])
            .args(["--corpus-dir", "tree"])
            .current_dir(&dir)
            .stdin(Stdio::null())
            .output()
            .expect("cli runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout == expected, "vet through the symlink diverged");
    };
    let one_shot = || one_shot_ok(&["--json", "--cache-dir", path_str(&cache)], &paths);

    // vet primes through the symlink; one-shot over the real paths hits.
    vet();
    let primed = cache_entries(&cache);
    assert_eq!(primed.len(), 8);
    let out = one_shot();
    assert!(out.stdout == expected);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cache: 8 hit(s), 0 miss(es)"), "{err}");

    // One-shot primes a fresh cache; vet through the symlink adds no
    // entry, so every app hit.
    std::fs::remove_dir_all(&cache).unwrap();
    let out = one_shot();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cache: 0 hit(s), 8 miss(es)"), "{err}");
    let primed = cache_entries(&cache);
    vet();
    assert_eq!(
        cache_entries(&cache),
        primed,
        "vet reused one-shot's entries"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
