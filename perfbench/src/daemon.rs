//! Closed-loop client of one `nchecker serve --stdio` process.
//!
//! One connection keeps a fixed window of submits in flight, as two
//! groups of half the window each. Requests of a group are pipelined:
//! one write carries every submit (or every report request) of the
//! group, and the replies are read in order. A job the daemon answers
//! `not-ready` is asked again after a short pause. Latency is the time
//! from sending an app's `submit` to receiving its `report` reply.
//!
//! The daemon is measured from outside only: CPU and resident set come
//! from `/proc/<pid>`, store and queue counters from the `doctor` verb.
//! Wave 0 submits version 0 of every app and is the set-up phase; each
//! later wave resubmits every app after a seeded churn (see
//! [`crate::replay::daemon_plan`]).

use crate::replay::{daemon_plan, Sub};
use crate::Args;
use serde_json::{json, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

struct Conn {
    tx: BufWriter<ChildStdin>,
    rx: BufReader<ChildStdout>,
    line: String,
}

impl Conn {
    /// Writes request lines in one flush; the daemon answers in order.
    fn send(&mut self, reqs: &[Value]) -> Result<(), String> {
        let mut text = String::new();
        for req in reqs {
            text.push_str(&serde_json::to_string(req).expect("request serializes"));
            text.push('\n');
        }
        self.tx
            .write_all(text.as_bytes())
            .and_then(|()| self.tx.flush())
            .map_err(|e| format!("daemon write: {e}"))
    }

    /// Reads the next raw reply line.
    fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        let n = self
            .rx
            .read_line(&mut self.line)
            .map_err(|e| format!("daemon read: {e}"))?;
        if n == 0 {
            return Err("daemon closed its stdout".to_owned());
        }
        Ok(&self.line)
    }

    fn rpc(&mut self, req: &Value) -> Result<Value, String> {
        self.send(std::slice::from_ref(req))?;
        let line = self.recv()?;
        serde_json::from_str(line).map_err(|e| format!("daemon reply: {e:?}"))
    }
}

/// The still-escaped value of a `report` reply's `"report"` field. Inside
/// a JSON string every quote is escaped, so the first unescaped
/// `"report":"` is the field itself.
fn raw_report(line: &str) -> Option<&str> {
    let start = line.find("\"report\":\"")? + "\"report\":\"".len();
    let bytes = line.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&line[start..i]),
            _ => i += 1,
        }
    }
    None
}

/// Per-run accounting of the client side.
#[derive(Default)]
struct Tally {
    latency_us: Vec<f64>,
    report_rpc_us: Vec<f64>,
    failed: u64,
    mismatched: u64,
    /// `report` requests answered `not-ready`.
    not_ready: u64,
    /// First report per bundle, still escaped as it came off the wire;
    /// later ones must match it byte for byte.
    raw: BTreeMap<String, String>,
}

/// One in-flight group: job id, submit time and submission per app.
type Group<'a> = Vec<(u64, Instant, &'a Sub)>;

/// Submits a group in one write and reads its ids.
fn submit<'a>(conn: &mut Conn, subs: &'a [Sub], tally: &mut Tally) -> Result<Group<'a>, String> {
    let reqs: Vec<Value> = subs
        .iter()
        .map(|sub| json!({"verb": "submit", "path": sub.path, "key": sub.key}))
        .collect();
    let sent = Instant::now();
    conn.send(&reqs)?;
    let mut group = Vec::with_capacity(subs.len());
    for sub in subs {
        let reply: Value =
            serde_json::from_str(conn.recv()?).map_err(|e| format!("daemon reply: {e:?}"))?;
        match reply["id"].as_i64() {
            Some(id) if reply["ok"].as_bool() == Some(true) => group.push((id as u64, sent, sub)),
            _ => tally.failed += 1,
        }
    }
    Ok(group)
}

/// Fetches every report of a group in one write. The daemon finishes
/// jobs in submission order, so while some are `not-ready` the client
/// asks again for the first of them only, after a short pause, and asks
/// for all the rest as soon as that one is done.
fn collect(
    conn: &mut Conn,
    mut pending: Group<'_>,
    timed: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut ask_all = true;
    while !pending.is_empty() {
        let n = if ask_all { pending.len() } else { 1 };
        let reqs: Vec<Value> = pending[..n]
            .iter()
            .map(|(id, _, _)| json!({"verb": "report", "id": *id}))
            .collect();
        let asked = Instant::now();
        conn.send(&reqs)?;
        let (mut again, mut any_done) = (Vec::new(), false);
        for (id, sent, sub) in pending.drain(..n) {
            let line = conn.recv()?;
            // Error replies sort "error" first; only they are parsed in full.
            if !line.starts_with("{\"error\"") {
                any_done = true;
                if timed {
                    tally.latency_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    tally
                        .report_rpc_us
                        .push(asked.elapsed().as_secs_f64() * 1e6);
                }
                let raw = raw_report(line).ok_or("report reply without a report")?;
                match tally.raw.get(&sub.bundle) {
                    Some(first) if first != raw => tally.mismatched += 1,
                    Some(_) => {}
                    None => {
                        tally.raw.insert(sub.bundle.clone(), raw.to_owned());
                    }
                }
                continue;
            }
            let reply: Value =
                serde_json::from_str(line).map_err(|e| format!("daemon reply: {e:?}"))?;
            if reply["error"]["code"].as_str() == Some("not-ready") {
                tally.not_ready += 1;
                again.push((id, sent, sub));
            } else {
                tally.failed += 1;
            }
        }
        again.append(&mut pending);
        pending = again;
        ask_all = any_done;
        if !pending.is_empty() && !any_done {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    Ok(())
}

/// Runs one wave and returns its wall time in seconds. The window is
/// kept as two groups: while the daemon works on one, the client
/// collects the other and submits the next, so the queue never drains
/// on the client's account. Latencies are recorded only when `timed`.
fn wave(
    conn: &mut Conn,
    subs: &[Sub],
    window: usize,
    timed: bool,
    tally: &mut Tally,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut groups = subs.chunks((window / 2).max(1));
    let mut inflight: VecDeque<Group<'_>> = VecDeque::with_capacity(2);
    loop {
        while inflight.len() < 2 {
            let Some(group) = groups.next() else { break };
            inflight.push_back(submit(conn, group, tally)?);
        }
        let Some(group) = inflight.pop_front() else {
            break;
        };
        collect(conn, group, timed, tally)?;
    }
    Ok(start.elapsed().as_secs_f64())
}

fn proc_status_kib(pid: u32, field: &str) -> Result<u64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/status: no {field}"))
}

/// User plus system CPU ticks of every thread the process ever ran.
fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    let after_comm = &stat[stat.rfind(')').ok_or("malformed stat")? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime) of proc(5); `fields[0]` is field 3.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or("malformed stat")
    };
    Ok(tick(11)? + tick(12)?)
}

fn spawn(bin: &str, jobs: usize) -> Result<(Child, Conn), String> {
    let mut child = Command::new(bin)
        .args(["serve", "--stdio", "--quiet", "--jobs", &jobs.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{bin}: {e}"))?;
    let conn = Conn {
        tx: BufWriter::new(child.stdin.take().expect("piped stdin")),
        rx: BufReader::new(child.stdout.take().expect("piped stdout")),
        line: String::new(),
    };
    Ok((child, conn))
}

pub fn main(args: &Args) -> Result<String, String> {
    let bin = args.str("bin")?;
    let root = Path::new(args.str("root")?);
    let waves: usize = args.num("waves")?;
    let window: usize = args.num("window")?;
    let jobs: usize = args.num("jobs")?;
    let clk_tck: f64 = args.num("clk-tck")?;
    let manifest = serde_json::from_str(
        &std::fs::read_to_string(root.join("manifest.json")).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("manifest: {e:?}"))?;
    let plan = daemon_plan(root, &manifest, waves)?;

    let mut tally = Tally::default();
    let spawned = Instant::now();
    let (mut child, mut conn) = spawn(bin, jobs)?;
    let pid = child.id();
    let result = (|| -> Result<Value, String> {
        conn.rpc(&json!({"verb": "status"}))?;
        let spawn_s = spawned.elapsed().as_secs_f64();
        wave(&mut conn, &plan[0], window, false, &mut tally)?;
        let setup_s = spawned.elapsed().as_secs_f64();
        let mut rss_kib = vec![proc_status_kib(pid, "VmRSS:")?];
        // Reset the peak so it covers the timed waves only.
        std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
            .map_err(|e| format!("clear_refs: {e}"))?;
        let cpu0 = cpu_ticks(pid)?;
        let (mut wave_s, mut latency_us) = (Vec::with_capacity(waves), Vec::with_capacity(waves));
        for subs in &plan[1..] {
            wave_s.push(wave(&mut conn, subs, window, true, &mut tally)?);
            latency_us.push(std::mem::take(&mut tally.latency_us));
            rss_kib.push(proc_status_kib(pid, "VmRSS:")?);
        }
        let cpu_s = (cpu_ticks(pid)? - cpu0) as f64 / clk_tck;
        let hwm_kib = proc_status_kib(pid, "VmHWM:")?;
        let doctor: Value = serde_json::from_str(
            conn.rpc(&json!({"verb": "doctor"}))?["doctor"]
                .as_str()
                .ok_or("doctor reply carries no snapshot")?,
        )
        .map_err(|e| format!("doctor: {e:?}"))?;
        conn.rpc(&json!({"verb": "shutdown"}))?;
        let cache = &doctor["cache"];
        let wait = &doctor["queue"]["wait_us"];
        Ok(json!({
            "spawn_s": spawn_s,
            "setup_s": setup_s,
            "wave_s": wave_s,
            "apps_per_wave": plan[0].len(),
            "rss_kib": rss_kib,
            "hwm_kib": hwm_kib,
            "cpu_s": cpu_s,
            "latency_us": latency_us,
            "report_rpc_us": std::mem::take(&mut tally.report_rpc_us),
            "failed": tally.failed,
            "not_ready": tally.not_ready,
            "mismatched": tally.mismatched,
            "doctor": {
                "hit": cache["hit"].clone(),
                "miss": cache["miss"].clone(),
                "replay_apps": cache["replay_apps"].clone(),
                "replay_classes": cache["replay_classes"].clone(),
                "evict": cache["evict"].clone(),
                "gc_runs": cache["gc"]["runs"].clone(),
                "mem_bytes": cache["mem"]["bytes"].clone(),
                "mem_entries": cache["mem"]["entries"].clone(),
                "wait_p50_us": wait["p50"].clone(),
                "wait_p99_us": wait["p99"].clone(),
            },
        }))
    })();
    // Closing stdin is an implicit shutdown; reap the child either way.
    drop(conn);
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let out = result?;
    if !status.success() {
        return Err(format!("serve exited with {status}"));
    }
    let texts = tally
        .raw
        .into_iter()
        .map(|(k, raw)| {
            let text = serde_json::from_str(&format!("\"{raw}\""))
                .map_err(|e| format!("report of {k}: {e:?}"))?;
            Ok((k, text))
        })
        .collect::<Result<_, String>>()?;
    let path = args.str("reports")?;
    std::fs::write(
        path,
        serde_json::to_string(&Value::Object(texts)).expect("texts serialize"),
    )
    .map_err(|e| format!("{path}: {e}"))?;
    Ok(serde_json::to_string(&out).expect("result serializes"))
}
