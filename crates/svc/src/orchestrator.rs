//! The multi-process shard orchestrator behind `nchecker vet`.
//!
//! Store-scale vetting wants more isolation than a thread pool gives:
//! one pathological bundle must not take down (or even slow) the other
//! shards, and a corpus worth of cache entries must not live in one
//! address space. So the orchestrator partitions the corpus by content
//! hash of the *key* across N worker **processes** — each a spawned
//! `nchecker serve --stdio` child spoken to over the existing
//! line-delimited wire protocol — and merges their reports back into
//! input order. The workers share nothing in memory; the on-disk
//! [`crate::AnalysisStore`] tier (when `--cache-dir` is passed through)
//! is the common cache, coordination-free because entries are
//! content-addressed and written tmp+rename.
//!
//! Reliability is the orchestrator's job, not the workers':
//!
//! - **Crash-restart** — a worker that dies mid-chunk (EOF on its
//!   stdout, a write failure, a malformed reply or a short frame) is
//!   killed, respawned, and the chunk's unfinished items are
//!   resubmitted, up to [`OrchestratorOptions::max_restarts`] per
//!   shard. The shared disk cache makes resubmission cheap: items the
//!   dead worker finished writing are whole-report hits the second
//!   time. A submit reply that is neither a job id nor a typed error
//!   counts as a dead worker too, so no item is left without a result.
//! - **Straggler detection** — a shard still running after
//!   `straggler_factor ×` the median completed-shard wall time is
//!   flagged in [`VetOutcome::stragglers`] (detection, not preemption:
//!   killing a slow shard would trade latency for lost work).
//! - **Per-shard accounting** — every [`ShardReport`] carries assigned
//!   / completed / failed counts, restarts, and wall time, so a vetting
//!   run's summary names the shard that misbehaved.
//!
//! Transport: each chunk of submits goes out in one write, then the
//! chunk's `fetch` requests go out in one write, and the orchestrator
//! reads one raw frame per job back in order. A `fetch` blocks in the
//! worker until the job finishes, so a shard thread never polls or
//! sleeps, and the frame's payload is the report bytes themselves,
//! never escaped into a JSON string and parsed back out.
//!
//! Output discipline: results land in input-order slots, and the
//! report string for each app is the daemon's `fetch` frame payload —
//! which the daemon guarantees is byte-identical to one-shot
//! `--json` output. Concatenating [`VetOutcome::reports`] therefore
//! reproduces exactly what a single `nchecker --json` run over the
//! same paths would print.
//!
//! Workers are owned by a [`WorkerFleet`], which outlives any single
//! [`WorkerFleet::vet`] round: the shard processes stay alive between
//! rounds, so a continuous-vetting loop (re-vetting a corpus wave
//! after wave) pays process spawn and startup exactly once per shard,
//! not once per wave. A shard with no items in a round spawns nothing;
//! a warm worker that died between rounds respawns on demand through
//! the normal restart path. The one-shot [`vet`] entry point wraps a
//! fleet around a single round and shuts it down.

use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Tuning for a [`vet`] run.
#[derive(Debug, Clone)]
pub struct OrchestratorOptions {
    /// Worker processes to spawn (clamped to at least 1).
    pub workers: usize,
    /// The worker command line: argv[0] plus arguments. Must speak the
    /// serve wire protocol on stdio.
    pub worker_cmd: Vec<String>,
    /// Submits pipelined per chunk before reading replies back. Must
    /// stay at or below the worker's queue capacity, or admission
    /// control rejects the overflow.
    pub window: usize,
    /// Worker restarts tolerated per shard before the shard's remaining
    /// items are marked failed.
    pub max_restarts: usize,
    /// A shard is a straggler after `straggler_factor ×` the median
    /// completed-shard wall time (with a small absolute floor so tiny
    /// corpora do not flag noise).
    pub straggler_factor: u32,
}

impl Default for OrchestratorOptions {
    fn default() -> OrchestratorOptions {
        OrchestratorOptions {
            workers: 2,
            worker_cmd: Vec::new(),
            window: 32,
            max_restarts: 2,
            straggler_factor: 4,
        }
    }
}

/// One shard's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index (also the worker index).
    pub shard: usize,
    /// Items partitioned onto this shard.
    pub assigned: usize,
    /// Items with a report.
    pub completed: usize,
    /// Items that failed (analysis error, or worker restarts
    /// exhausted).
    pub failed: usize,
    /// Worker processes respawned for this shard.
    pub restarts: usize,
    /// Shard wall time, milliseconds.
    pub wall_ms: u64,
}

/// A finished [`vet`] run.
#[derive(Debug, Default)]
pub struct VetOutcome {
    /// Per-input report strings (exact one-shot `--json` bytes), in
    /// input order. `None` where that input failed.
    pub reports: Vec<Option<String>>,
    /// Per-input defect deltas (the daemon's `delta` payload), in input
    /// order; `None` for first submissions and failures.
    pub deltas: Vec<Option<Value>>,
    /// `(input index, message)` for every failed input, sorted by
    /// index.
    pub errors: Vec<(usize, String)>,
    /// Inputs whose analysis degraded (methods skipped).
    pub degraded: usize,
    /// Per-shard accounting, in shard order.
    pub shards: Vec<ShardReport>,
    /// Shard indices flagged as stragglers.
    pub stragglers: Vec<usize>,
    /// Worker processes spawned during this round (cold shards plus
    /// crash respawns). A round served entirely by a warm fleet is 0.
    pub worker_spawns: usize,
    /// Shards served by a worker that was already alive when the round
    /// started.
    pub workers_reused: usize,
}

impl VetOutcome {
    /// Inputs that produced a report.
    pub fn completed(&self) -> usize {
        self.reports.iter().flatten().count()
    }
}

/// Which shard an input key belongs to: content hash of the key, not
/// round-robin, so a re-vetting run with the same worker count routes
/// every key to the same shard (and its warm worker-local state).
pub fn shard_of(key: &str, workers: usize) -> usize {
    (nck_dex::wire::fnv1a(key.as_bytes()) as usize) % workers.max(1)
}

/// Pure straggler rule, factored out for testing: given completed
/// shard wall times and a still-running shard's elapsed time, is the
/// runner a straggler? Needs a majority of shards finished to have a
/// meaningful median, and floors the threshold at 50ms so micro-corpora
/// never flag.
pub fn is_straggler(
    completed_walls: &[Duration],
    elapsed: Duration,
    factor: u32,
    total: usize,
) -> bool {
    if completed_walls.len() * 2 < total {
        return false;
    }
    let mut walls = completed_walls.to_vec();
    walls.sort();
    let median = walls[walls.len() / 2];
    let threshold = (median * factor.max(1)).max(Duration::from_millis(50));
    elapsed > threshold
}

/// One worker process and its wire-protocol plumbing.
struct Worker {
    child: Child,
    stdin: BufWriter<std::process::ChildStdin>,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Worker {
    fn spawn(cmd: &[String]) -> std::io::Result<Worker> {
        let (argv0, rest) = cmd.split_first().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty worker command")
        })?;
        let mut child = Command::new(argv0)
            .args(rest)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(Worker {
            child,
            stdin: BufWriter::new(stdin),
            stdout: BufReader::new(stdout),
        })
    }

    /// Writes `reqs` in one flush. The daemon replies serially in
    /// request order, so pipelined callers read replies in send order.
    fn send_all(&mut self, reqs: impl IntoIterator<Item = Value>) -> std::io::Result<()> {
        for req in reqs {
            let line = serde_json::to_string(&req).expect("request serializes");
            self.stdin.write_all(line.as_bytes())?;
            self.stdin.write_all(b"\n")?;
        }
        self.stdin.flush()
    }

    fn recv(&mut self) -> std::io::Result<Value> {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line)?;
        if n == 0 {
            return Err(dead("worker closed its stdout"));
        }
        serde_json::from_str(&line).map_err(|e| dead(&format!("malformed worker reply: {e}")))
    }

    /// The `bytes`-long raw frame after a `fetch` header. Reads through
    /// `take`, so a header that overstates its length costs at most
    /// the bytes actually received before the short read is caught.
    fn recv_frame(&mut self, bytes: u64) -> std::io::Result<String> {
        let mut buf = Vec::new();
        (&mut self.stdout).take(bytes).read_to_end(&mut buf)?;
        if buf.len() as u64 != bytes {
            return Err(dead(&format!(
                "short frame: {} of {bytes} bytes",
                buf.len()
            )));
        }
        String::from_utf8(buf).map_err(|_| dead("frame payload is not UTF-8"))
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The error that marks a worker connection unusable: the caller
/// kills and respawns the worker.
fn dead(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

/// A typed error reply's code and message, or `None` when the reply is
/// not one.
fn typed_error(reply: &Value) -> Option<(&str, &str)> {
    if reply["ok"].as_bool() != Some(false) {
        return None;
    }
    let code = reply["error"]["code"].as_str()?;
    Some((code, reply["error"]["message"].as_str().unwrap_or("")))
}

/// What one input ended as, inside a shard.
enum ItemResult {
    Done {
        report: String,
        delta: Option<Value>,
        degraded: bool,
    },
    Failed(String),
}

/// How a shard used its worker slot during one round.
#[derive(Debug, Default, Clone, Copy)]
struct ShardUse {
    /// Workers respawned after a death.
    restarts: usize,
    /// Processes spawned (cold start plus respawns).
    spawned: usize,
    /// 1 when the round started on an already-warm worker.
    reused: usize,
}

/// One input of a round: its index, the bundle path a worker reads,
/// and the cache key the worker analyzes it under.
struct Input<'a> {
    idx: usize,
    path: &'a str,
    key: &'a str,
}

/// Runs one shard: submits its items through the worker process in
/// `slot` — reusing it warm when present, spawning it when not —
/// restarting it (and resubmitting the chunk's unfinished items) on
/// death. The worker is *left alive in the slot* when the round ends;
/// the owning [`WorkerFleet`] decides when it shuts down. A shard with
/// no items spawns nothing.
fn run_shard(
    slot: &mut Option<Worker>,
    cmd: &[String],
    window: usize,
    max_restarts: usize,
    items: &[Input<'_>],
) -> (BTreeMap<usize, ItemResult>, ShardUse) {
    let mut results: BTreeMap<usize, ItemResult> = BTreeMap::new();
    let mut usage = ShardUse::default();
    if items.is_empty() {
        return (results, usage);
    }
    if slot.is_some() {
        usage.reused = 1;
    } else {
        match Worker::spawn(cmd) {
            Ok(w) => {
                *slot = Some(w);
                usage.spawned += 1;
            }
            Err(e) => {
                for item in items {
                    results.insert(
                        item.idx,
                        ItemResult::Failed(format!("worker spawn failed: {e}")),
                    );
                }
                return (results, usage);
            }
        }
    }

    let window = window.max(1);
    let mut chunk_start = 0usize;
    while chunk_start < items.len() {
        let chunk: Vec<&Input<'_>> = items[chunk_start..]
            .iter()
            .filter(|item| !results.contains_key(&item.idx))
            .take(window)
            .collect();
        if chunk.is_empty() {
            chunk_start = items.len();
            continue;
        }
        let w = slot.as_mut().expect("live worker");
        match run_chunk(w, &chunk, &mut results) {
            Ok(()) => {
                // Everything in the chunk resolved (done or failed);
                // advance past every leading resolved item.
                while chunk_start < items.len() && results.contains_key(&items[chunk_start].idx) {
                    chunk_start += 1;
                }
            }
            Err(e) => {
                // Worker I/O died mid-chunk. Kill, maybe respawn, and
                // retry the chunk's unfinished items — finished ones
                // keep their results, and re-analysis of items the dead
                // worker had completed hits the shared disk cache.
                slot.take().expect("live worker").kill();
                if usage.restarts >= max_restarts {
                    for item in items {
                        results.entry(item.idx).or_insert_with(|| {
                            ItemResult::Failed(format!(
                                "worker died ({e}); restart budget ({max_restarts}) exhausted"
                            ))
                        });
                    }
                    return (results, usage);
                }
                usage.restarts += 1;
                match Worker::spawn(cmd) {
                    Ok(w) => {
                        *slot = Some(w);
                        usage.spawned += 1;
                    }
                    Err(spawn_err) => {
                        for item in items {
                            results.entry(item.idx).or_insert_with(|| {
                                ItemResult::Failed(format!("worker respawn failed: {spawn_err}"))
                            });
                        }
                        return (results, usage);
                    }
                }
            }
        }
    }
    (results, usage)
}

/// One pipelined chunk: every submit in one write, then every fetch
/// in one write, then one frame per job in order. `Err` means the
/// worker connection is unusable (caller restarts); per-item failures
/// (typed error replies) are recorded and are *not* errors.
fn run_chunk(
    worker: &mut Worker,
    chunk: &[&Input<'_>],
    results: &mut BTreeMap<usize, ItemResult>,
) -> std::io::Result<()> {
    worker.send_all(
        chunk
            .iter()
            .map(|item| serde_json::json!({"verb": "submit", "path": item.path, "key": item.key})),
    )?;
    let mut jobs: Vec<(usize, u64)> = Vec::with_capacity(chunk.len());
    for &&Input { idx, path, .. } in chunk {
        let reply = worker.recv()?;
        let id = reply["id"].as_i64().and_then(|id| u64::try_from(id).ok());
        match (reply["ok"].as_bool(), id) {
            (Some(true), Some(id)) => jobs.push((idx, id)),
            // An admission reject is a protocol-level surprise (the
            // window is sized to the queue) but not a dead worker.
            _ => match typed_error(&reply) {
                Some((code, _)) => {
                    results.insert(
                        idx,
                        ItemResult::Failed(format!("{path}: submit rejected: {code}")),
                    );
                }
                None => return Err(dead("submit reply is neither a job id nor a typed error")),
            },
        }
    }

    worker.send_all(
        jobs.iter()
            .map(|(_, id)| serde_json::json!({"verb": "fetch", "id": id})),
    )?;
    for (idx, _) in jobs {
        let header = worker.recv()?;
        let bytes = header["bytes"].as_i64().and_then(|n| u64::try_from(n).ok());
        let result = match (header["ok"].as_bool(), bytes) {
            (Some(true), Some(bytes)) => ItemResult::Done {
                report: worker.recv_frame(bytes)?,
                delta: match &header["delta"] {
                    Value::Null => None,
                    d => Some(d.clone()),
                },
                degraded: header["degraded"].as_bool().unwrap_or(false),
            },
            _ => match typed_error(&header) {
                Some((code, message)) => ItemResult::Failed(format!("{code}: {message}")),
                None => return Err(dead("fetch reply is neither a frame nor a typed error")),
            },
        };
        results.insert(idx, result);
    }
    Ok(())
}

/// A persistent fleet of shard worker processes. One fleet serves any
/// number of [`WorkerFleet::vet`] rounds; workers spawned for a round
/// stay alive for the next, so continuous vetting pays spawn and
/// startup once per shard, not once per wave. Key→shard routing is
/// stable ([`shard_of`]), so a re-vetted key lands on the same warm
/// worker — and its warm memory-tier cache — every round.
pub struct WorkerFleet {
    options: OrchestratorOptions,
    slots: Vec<Option<Worker>>,
}

impl WorkerFleet {
    /// A fleet with every slot cold. No processes spawn until a round
    /// routes items to their shards.
    pub fn new(options: OrchestratorOptions) -> WorkerFleet {
        let workers = options.workers.max(1);
        WorkerFleet {
            options,
            slots: (0..workers).map(|_| None).collect(),
        }
    }

    /// Workers currently alive in the fleet.
    pub fn warm_workers(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Vets `paths` across the fleet, each analyzed under its path as
    /// the cache key: [`WorkerFleet::vet_keyed`].
    pub fn vet(&mut self, paths: &[String]) -> VetOutcome {
        self.vet_keyed(paths, paths)
    }

    /// Vets `paths[i]` under the cache key `keys[i]` across the fleet:
    /// partitions by key hash, runs every shard concurrently (reusing
    /// warm workers, spawning cold ones), and merges results back into
    /// input order. `keys` is as long as `paths`.
    pub fn vet_keyed(&mut self, paths: &[String], keys: &[String]) -> VetOutcome {
        assert_eq!(paths.len(), keys.len(), "one cache key per path");
        let options = &self.options;
        let workers = options.workers.max(1);
        let mut partitions: Vec<Vec<Input<'_>>> = (0..workers).map(|_| Vec::new()).collect();
        for (idx, (path, key)) in paths.iter().zip(keys).enumerate() {
            partitions[shard_of(key, workers)].push(Input { idx, path, key });
        }

        let mut outcome = VetOutcome {
            reports: (0..paths.len()).map(|_| None).collect(),
            deltas: (0..paths.len()).map(|_| None).collect(),
            ..VetOutcome::default()
        };

        let started = Instant::now();
        let shard_walls: Vec<std::sync::Mutex<Option<Duration>>> =
            (0..workers).map(|_| std::sync::Mutex::new(None)).collect();
        let mut shard_results: Vec<Option<(BTreeMap<usize, ItemResult>, ShardUse)>> =
            (0..workers).map(|_| None).collect();
        let mut stragglers: Vec<usize> = Vec::new();

        std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .enumerate()
                .zip(self.slots.iter_mut())
                .map(|((shard, items), slot)| {
                    let walls = &shard_walls;
                    let opts = options;
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        let r = run_shard(
                            slot,
                            &opts.worker_cmd,
                            opts.window,
                            opts.max_restarts,
                            items,
                        );
                        *walls[shard].lock().expect("wall slot") = Some(t0.elapsed());
                        r
                    })
                })
                .collect();

            // Straggler watch: poll until every shard finishes, flagging
            // shards that outlive the completed median by the factor.
            loop {
                let walls: Vec<Duration> = shard_walls
                    .iter()
                    .filter_map(|w| *w.lock().expect("wall slot"))
                    .collect();
                if walls.len() == workers {
                    break;
                }
                let elapsed = started.elapsed();
                for (shard, slot) in shard_walls.iter().enumerate() {
                    if slot.lock().expect("wall slot").is_none()
                        && !stragglers.contains(&shard)
                        && is_straggler(&walls, elapsed, options.straggler_factor, workers)
                    {
                        stragglers.push(shard);
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }

            for (shard, handle) in handles.into_iter().enumerate() {
                shard_results[shard] = Some(handle.join().unwrap_or_else(|_| {
                    let mut failed = BTreeMap::new();
                    for item in &partitions[shard] {
                        failed.insert(
                            item.idx,
                            ItemResult::Failed("shard thread panicked".to_owned()),
                        );
                    }
                    (failed, ShardUse::default())
                }));
            }
        });

        for (shard, slot) in shard_results.into_iter().enumerate() {
            let (results, usage) = slot.expect("joined shard");
            outcome.worker_spawns += usage.spawned;
            outcome.workers_reused += usage.reused;
            let mut report = ShardReport {
                shard,
                assigned: partitions[shard].len(),
                completed: 0,
                failed: 0,
                restarts: usage.restarts,
                wall_ms: shard_walls[shard]
                    .lock()
                    .expect("wall slot")
                    .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            };
            for (idx, result) in results {
                match result {
                    ItemResult::Done {
                        report: text,
                        delta,
                        degraded,
                    } => {
                        report.completed += 1;
                        outcome.degraded += usize::from(degraded);
                        outcome.reports[idx] = Some(text);
                        outcome.deltas[idx] = delta;
                    }
                    ItemResult::Failed(msg) => {
                        report.failed += 1;
                        outcome.errors.push((idx, msg));
                    }
                }
            }
            outcome.shards.push(report);
        }
        outcome.errors.sort_by_key(|(idx, _)| *idx);
        stragglers.sort_unstable();
        outcome.stragglers = stragglers;
        outcome
    }

    /// Graceful teardown: every warm worker gets the `shutdown` verb
    /// before any is reaped, so they drain and flush their caches in
    /// parallel. A worker still running 10 s later is killed, so a
    /// wedged one cannot hang the orchestrator.
    pub fn shutdown(mut self) {
        let mut live: Vec<Worker> = self.slots.iter_mut().filter_map(Option::take).collect();
        for w in &mut live {
            let _ = w.send_all([serde_json::json!({"verb": "shutdown"})]);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !live.is_empty() && Instant::now() < deadline {
            live.retain_mut(|w| !matches!(w.child.try_wait(), Ok(Some(_))));
            if !live.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for w in live {
            w.kill();
        }
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        // A dropped (not shut down) fleet must not leak processes, and
        // must not hang for the graceful-shutdown deadline per worker:
        // kill outright.
        for slot in &mut self.slots {
            if let Some(w) = slot.take() {
                w.kill();
            }
        }
    }
}

/// Vets `paths` across worker processes in one round: a [`WorkerFleet`]
/// spun up for the call and shut down after it. Continuous vetting
/// should hold a fleet instead and call [`WorkerFleet::vet`] per wave.
pub fn vet(options: &OrchestratorOptions, paths: &[String]) -> VetOutcome {
    let mut fleet = WorkerFleet::new(options.clone());
    let outcome = fleet.vet(paths);
    fleet.shutdown();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_partition_is_stable_and_total() {
        let keys = ["a.apk", "b.apk", "dir/c.apk", "dir/d.adx"];
        for workers in 1..=4 {
            for k in keys {
                let s = shard_of(k, workers);
                assert!(s < workers);
                assert_eq!(s, shard_of(k, workers), "stable per key");
            }
        }
        // Hash partitioning actually spreads keys (not all one shard).
        let spread: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| shard_of(&format!("app{i:03}.apk"), 4))
            .collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn straggler_rule_needs_a_median_and_a_margin() {
        let ms = Duration::from_millis;
        // Not enough finished shards: never a straggler.
        assert!(!is_straggler(&[ms(10)], ms(10_000), 4, 4));
        // Majority finished, runner just over the median: fine.
        assert!(!is_straggler(&[ms(100), ms(120), ms(110)], ms(200), 4, 4));
        // Runner far past factor × median: flagged.
        assert!(is_straggler(&[ms(100), ms(120), ms(110)], ms(600), 4, 4));
        // The 50ms floor: micro-shards never flag at micro-elapsed.
        assert!(!is_straggler(&[ms(1), ms(1), ms(1)], ms(40), 4, 4));
        assert!(is_straggler(&[ms(1), ms(1), ms(1)], ms(60), 4, 4));
    }

    #[test]
    fn vet_with_an_unspawnable_worker_fails_every_input_cleanly() {
        let options = OrchestratorOptions {
            workers: 2,
            worker_cmd: vec!["/nonexistent/bin/definitely-not-here".to_owned()],
            ..OrchestratorOptions::default()
        };
        let paths = vec!["a.apk".to_owned(), "b.apk".to_owned(), "c.apk".to_owned()];
        let out = vet(&options, &paths);
        assert_eq!(out.completed(), 0);
        assert_eq!(out.errors.len(), 3);
        assert_eq!(out.reports, vec![None, None, None]);
        assert_eq!(out.shards.len(), 2);
        let assigned: usize = out.shards.iter().map(|s| s.assigned).sum();
        let failed: usize = out.shards.iter().map(|s| s.failed).sum();
        assert_eq!(assigned, 3);
        assert_eq!(failed, 3);
        assert!(out.errors.iter().all(|(_, m)| m.contains("spawn failed")));
        assert_eq!(out.worker_spawns, 0, "failed spawns are not spawns");
        assert_eq!(out.workers_reused, 0);
    }

    #[test]
    fn a_fleet_round_with_no_items_spawns_nothing() {
        let mut fleet = WorkerFleet::new(OrchestratorOptions {
            workers: 3,
            worker_cmd: vec!["/nonexistent/bin/definitely-not-here".to_owned()],
            ..OrchestratorOptions::default()
        });
        let out = fleet.vet(&[]);
        assert_eq!(out.worker_spawns, 0);
        assert_eq!(out.workers_reused, 0);
        assert_eq!(fleet.warm_workers(), 0);
        assert_eq!(out.shards.len(), 3);
        assert!(out.shards.iter().all(|s| s.assigned == 0));
        fleet.shutdown();
    }
}
