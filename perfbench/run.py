#!/usr/bin/env python3
"""End-to-end benchmark of the nchecker binaries.

    python3 perfbench/run.py --workload cold|revet|daemon --seed N \
        --seconds S --trace 0|1

Run from the repository root. The script builds the release `nchecker`
binary and the benchmark helper (`perfbench/Cargo.toml`), generates a
seeded CorpusStream tree, drives the binary in the chosen mode, checks
every report against the generator's ground truth and against a
one-shot `--json --no-cache` reference, and prints one JSON object as
the last line of stdout.

With `--trace 0` the object holds the chosen workload's end-to-end
metrics, measured on the real binary with nothing traced. With
`--trace 1` it holds the per-layer table of every workload, named
`<workload>.<row>`: the helper replays each workload in-process with
spans around each layer's public functions, and the rows are set against
the untraced wall time of the binary. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

APPS = 1500          # one tree shared by every workload
CHURN_PCT = 3        # share of apps replaced by a new version
WAVES = 6            # timed daemon waves after the wave-0 fill
WINDOW = 16          # in-flight submits of the daemon client
SETUP_REPS = 3       # revet set-up phases per run, spread over it
STARTUP_REPS = 3     # cold start-up samples before each pass
MIN_PASSES = 3       # timed passes per run, at least
REPLAY_REPS = 3      # binary passes and in-process replays, interleaved, per traced run
MEM_BUDGET = 256 << 20  # the daemon's default memory-tier budget
KEEP_INPUTS = 4      # seeds whose generated inputs stay on disk
NPROC = max(1, min(os.cpu_count() or 1, 2))

E2E_UNITS = {
    "apps_per_s": "1/s",
    "cpu_ms_per_app": "ms",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "correct_frac": "frac",
}

# Units of the per-layer rows, named after the crates.
ROW_UNITS = {
    "android.parse_ms": "ms",
    "dexfile.verify_ms": "ms",
    "dexfile.fingerprint_ms": "ms",
    "ir.lift_ms": "ms",
    "ir.stmts": "count",
    "core.context_ms": "ms",
    "core.checkers_ms": "ms",
    "core.render_ms": "ms",
    "core.report_bytes": "bytes",
    "core.replay_class_frac": "frac",
    "store.lookup_mem_ms": "ms",
    "store.lookup_disk_ms": "ms",
    "store.hits_mem": "count",
    "store.hits_disk": "count",
    "store.misses": "count",
    "store.hit_frac": "frac",
    "store.insert_ms": "ms",
    "store.drop_ms": "ms",
    "store.disk_bytes_written": "bytes",
    "store.entry_bytes_mean": "bytes",
    "store.evictions": "count",
    "store.gc_runs": "count",
    "service.pool_overhead_ms": "ms",
    "daemon.wire_ms": "ms",
    "daemon.report_rpc_ms": "ms",
    **{f"daemon.rss_mib.wave_{k}": "MiB" for k in range(WAVES + 1)},
    "orchestrator.spawn_ms": "ms",
    "orchestrator.overhead_ms": "ms",
    "orchestrator.shard_max_over_mean": "ratio",
    "io.read_ms": "ms",
    "io.stdout_bytes": "bytes",
    "residual_ms": "ms",
    "trace_overhead_frac": "frac",
}

# The rows each workload exercises. A row a workload bypasses is left
# out rather than printed as a constant zero.
COMMON_ROWS = [
    "android.parse_ms", "dexfile.verify_ms", "dexfile.fingerprint_ms", "ir.lift_ms", "ir.stmts",
    "core.context_ms", "core.checkers_ms", "core.render_ms", "core.report_bytes",
    "store.lookup_mem_ms", "store.misses", "store.hit_frac", "store.insert_ms",
    "store.entry_bytes_mean", "store.evictions", "store.gc_runs", "io.read_ms", "io.stdout_bytes",
    "residual_ms", "trace_overhead_frac",
]
WORKLOAD_ROWS = {
    "cold": COMMON_ROWS + ["store.drop_ms", "service.pool_overhead_ms"],
    "revet": COMMON_ROWS + [
        "store.lookup_disk_ms", "store.hits_disk", "store.drop_ms", "store.disk_bytes_written",
        "orchestrator.spawn_ms", "orchestrator.overhead_ms", "orchestrator.shard_max_over_mean",
    ],
    "daemon": COMMON_ROWS + [
        "core.replay_class_frac", "store.hits_mem", "daemon.wire_ms", "daemon.report_rpc_ms",
        *(f"daemon.rss_mib.wave_{k}" for k in range(WAVES + 1)),
    ],
}

# Every traced run prints every workload's table, as `<workload>.<row>`.
LAYER_UNITS = {f"{w}.{row}": ROW_UNITS[row] for w, rows in WORKLOAD_ROWS.items() for row in rows}

# Rows that add up, with residual_ms, to the untraced wall of one pass.
ADDITIVE_ROWS = [
    "io.read_ms", "dexfile.fingerprint_ms", "store.lookup_mem_ms",
    "store.lookup_disk_ms", "android.parse_ms", "dexfile.verify_ms",
    "ir.lift_ms", "core.context_ms", "core.checkers_ms", "store.insert_ms",
    "store.drop_ms", "core.render_ms", "daemon.wire_ms", "service.pool_overhead_ms",
    "orchestrator.overhead_ms",
]


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Pure helpers (covered by test_perfbench.py)
# --------------------------------------------------------------------------

def nearest_rank(values, pct):
    """The nearest-rank percentile: the smallest sample with at least
    `pct` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def split_reports(text):
    """Splits concatenated one-shot `--json` output into report texts.
    Each report is a pretty-printed object whose closing brace is the
    only `}` at column 0, followed by a newline."""
    parts = text.split("\n}\n")
    if parts[-1] != "":
        raise BenchError("output does not end with a complete report")
    return [p + "\n}\n" for p in parts[:-1]]


def oracle_ok(text, bundle):
    """Whether a report's multiset of defect kinds and package match the
    generator's ground truth for the bundle it describes."""
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    kinds = Counter(d.get("kind") for d in doc.get("defects", []))
    return (kinds == Counter(bundle["expect"])
            and doc.get("stats", {}).get("package") == bundle["package"]
            and doc.get("degraded") is False)


def residual_ms(wall_ms, rows):
    """Untraced wall time minus the additive layer rows."""
    return wall_ms - sum(rows.get(name, 0.0) for name in ADDITIVE_ROWS)


def sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# Build and inputs
# --------------------------------------------------------------------------

def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "svc").is_dir():
        raise BenchError(f"no nchecker sources under {ROOT}")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "nck-svc", "--bin", "nchecker"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         str(BENCH / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return str(release / "nchecker"), str(release / "nck-perfbench")


def tree_files(seed_dir, manifest):
    """Every generated file, relative to the seed directory."""
    shards = manifest["shards"]
    files = [b["file"] for b in manifest["bundles"].values()]
    files += [f"revet/shard-{i % shards:02x}/app{i:06d}.apk" for i in range(manifest["apps"])]
    return sorted(files)


def inputs(helper, seed):
    """Generates the seed's inputs once per helper build and reuses them
    while a content check over every file passes. Returns (dir,
    manifest, seconds spent generating or checking)."""
    generator = sha(Path(helper).read_bytes())[:12]
    seed_dir = WORK / "inputs" / f"seed-{seed}-{generator}"
    digests_path = seed_dir / "digests.json"
    start = time.perf_counter()
    if digests_path.is_file():
        manifest = json.loads((seed_dir / "manifest.json").read_text())
        digests = json.loads(digests_path.read_text())
        try:
            if all(sha((seed_dir / f).read_bytes()) == d for f, d in digests.items()):
                os.utime(seed_dir)
                return seed_dir, manifest, time.perf_counter() - start
        except OSError:
            pass
        log(f"inputs for seed {seed} failed the content check; regenerating")
    shutil.rmtree(seed_dir, ignore_errors=True)
    # Inputs of other seeds are kept for reuse, a few at most.
    others = sorted((WORK / "inputs").glob("seed-*"), key=lambda p: p.stat().st_mtime)
    for old in others[:max(0, len(others) - KEEP_INPUTS + 1)]:
        shutil.rmtree(old, ignore_errors=True)
    churn = max(1, APPS * CHURN_PCT // 100)
    run_checked([helper, "gen", "--seed", str(seed), "--apps", str(APPS), "--churn", str(churn),
                 "--waves", str(WAVES), "--out", str(seed_dir)])
    manifest = json.loads((seed_dir / "manifest.json").read_text())
    digests = {f: sha((seed_dir / f).read_bytes()) for f in tree_files(seed_dir, manifest)}
    digests_path.write_text(json.dumps(digests))
    return seed_dir, manifest, time.perf_counter() - start


def run_checked(cmd, **kw):
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, **kw)
    if done.returncode != 0:
        raise BenchError(f"exit {done.returncode}: {' '.join(cmd[:3])} ...")
    return done.stdout.decode()


def rel(path):
    return os.path.relpath(path, ROOT)


def tree_paths(seed_dir, manifest, sub):
    shards = manifest["shards"]
    return sorted(rel(seed_dir / sub / f"shard-{i % shards:02x}" / f"app{i:06d}.apk")
                  for i in range(manifest["apps"]))


def index_of(path):
    return int(re.search(r"app(\d{6})\.apk$", path).group(1))


# --------------------------------------------------------------------------
# Correctness: ground truth plus byte identity with a one-shot reference
# --------------------------------------------------------------------------

def build_reference(nchecker, seed_dir, bundles):
    """Digest of the one-shot `--json --no-cache` report of every bundle,
    cached per seed and per `nchecker` binary. Each reference report
    must itself pass the ground truth."""
    program = sha(Path(nchecker).read_bytes())
    path = seed_dir / f"reference-{program[:16]}.json"
    if path.is_file():
        return json.loads(path.read_text())
    keys = sorted(bundles)
    files = [rel(seed_dir / bundles[k]["file"]) for k in keys]
    out = run_checked([nchecker, "--json", "--no-cache", "--jobs", str(NPROC)] + files)
    texts = split_reports(out)
    if len(texts) != len(keys):
        raise BenchError("reference run printed the wrong number of reports")
    reference = {}
    for key, text in zip(keys, texts):
        if not oracle_ok(text, bundles[key]):
            raise BenchError(f"reference report for bundle {key} fails the ground truth")
        reference[key] = sha(text)
    path.write_text(json.dumps(reference))
    return reference


class Checker:
    """Checks reports by bundle (`"<index>:<version>"`): each must carry
    the generator's expected defect kinds and be byte-identical to what
    one-shot `--json --no-cache` prints for the same bundle, so every
    workload's report for a bundle is the same bytes."""

    def __init__(self, bundles, reference):
        self.bundles = bundles
        self.reference = reference
        self.verified = {}

    def ok(self, bundle, text):
        digest = sha(text)
        known = self.verified.get((bundle, digest))
        if known is None:
            known = digest == self.reference.get(bundle) and oracle_ok(text, self.bundles[bundle])
            self.verified[(bundle, digest)] = known
        return known

    def stream(self, output, bundles):
        """Failures in a concatenated output expected to hold `bundles`."""
        try:
            texts = split_reports(output)
        except BenchError:
            return len(bundles)
        if len(texts) != len(bundles):
            return len(bundles)
        return sum(not self.ok(b, t) for b, t in zip(bundles, texts))


# --------------------------------------------------------------------------
# Process accounting
# --------------------------------------------------------------------------

def timed_process(cmd):
    """Runs `cmd`, reading its stdout as it arrives. Returns wall seconds,
    stdout, CPU seconds and peak RSS (MiB) of the process and every
    descendant it reaped, stderr, and for each complete report the
    seconds from spawn to its arrival."""
    with tempfile.TemporaryFile(dir=WORK) as errfile:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=errfile)
        chunks, arrivals, tail = [], [], b""
        fd = proc.stdout.fileno()
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            now = time.perf_counter() - start
            window = tail + chunk
            arrivals.extend([now] * window.count(b"\n}\n"))
            tail = window[-2:]
            chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        errfile.seek(0)
        err = errfile.read().decode(errors="replace")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}: {err.strip()[-400:]}")
    cpu = usage.ru_utime + usage.ru_stime
    return wall, b"".join(chunks).decode(), cpu, usage.ru_maxrss / 1024.0, err, arrivals


def written_since(cache_dir, start_ns):
    """Cache entries written at or after `start_ns`: count and bytes."""
    count = size = 0
    for entry in os.scandir(cache_dir):
        if entry.name.endswith(".json"):
            st = entry.stat()
            if st.st_mtime_ns >= start_ns:
                count += 1
                size += st.st_size
    return count, size


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Run:
    """Samples gathered over one run's timed passes."""

    def __init__(self):
        self.rate, self.cpu_ms, self.rss, self.setup = [], [], [], []
        self.p50_ms, self.p99_ms, self.walls_ms = [], [], []
        self.attempted = self.failed = 0
        self.output = ""
        self.good_output = None

    def failures(self, check, output, bundles):
        """Wrong reports in a pass's output; a pass that repeats an
        output already checked clean is not parsed again."""
        digest = sha(output)
        if digest == self.good_output:
            return 0
        failed = check.stream(output, bundles)
        if failed == 0:
            self.good_output = digest
        return failed

    def add_pass(self, apps, failed, wall_s, cpu_s, rss_mib, latency_ms):
        """Records one timed pass."""
        self.add_units(apps, failed, [wall_s], cpu_s, rss_mib, [latency_ms])

    def add_units(self, apps, failed, walls_s, cpu_s, rss_mib, latencies_ms):
        """Records a pass made of equal units (the daemon's waves). Rates
        and latency percentiles are taken per unit, each over at least
        1,500 apps, so a host stall moves one unit rather than the run."""
        self.attempted += apps
        self.failed += failed
        per_unit = (apps - failed) / len(walls_s)
        self.rate.extend(per_unit / wall for wall in walls_s)
        self.cpu_ms.append(cpu_s * 1e3 / apps)
        self.rss.append(rss_mib)
        self.p50_ms.extend(nearest_rank(lat, 50) for lat in latencies_ms)
        self.p99_ms.extend(nearest_rank(lat, 99) for lat in latencies_ms)

    def metrics(self):
        return {
            "apps_per_s": statistics.median(self.rate),
            "cpu_ms_per_app": statistics.median(self.cpu_ms),
            "latency_p50_ms": statistics.median(self.p50_ms),
            "latency_p99_ms": statistics.median(self.p99_ms),
            "peak_rss_mib": statistics.median(self.rss),
            "setup_s": statistics.median(self.setup),
            "correct_frac": (self.attempted - self.failed) / self.attempted,
        }


def passes(seconds, one_pass):
    """Runs `one_pass` until `seconds` of measuring have elapsed and at
    least MIN_PASSES ran. Returns the pass count."""
    start, n = time.perf_counter(), 0
    while n < MIN_PASSES or time.perf_counter() - start < seconds:
        one_pass()
        n += 1
    return n


def batch_pass(run, check, cmd, bundles):
    """One timed run of a batch command over `bundles`; returns stderr."""
    wall, out, cpu, rss, err, arrivals = timed_process(cmd)
    failed = run.failures(check, out, bundles)
    run.add_pass(len(bundles), failed, wall, cpu, rss, [a * 1e3 for a in arrivals[:len(bundles)]])
    run.walls_ms.append(wall * 1e3)
    run.output = out
    return err


def startup_s(nchecker):
    start = time.perf_counter()
    subprocess.run([nchecker, "--doctor"], cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def cold(ctx, seconds):
    paths = tree_paths(ctx["dir"], ctx["manifest"], "tree")
    cmd = [ctx["nchecker"], "--json", "--jobs", str(NPROC)] + paths
    bundles = [f"{index_of(p)}:0" for p in paths]
    run, shares = Run(), Counter()

    def one():
        # A one-shot run has no set-up phase; setup_s is its start-up
        # floor, sampled between passes so it sees the same host.
        run.setup.extend(startup_s(ctx["nchecker"]) for _ in range(STARTUP_REPS))
        err = batch_pass(run, ctx["check"], cmd, bundles)
        m = re.search(r"cache: (\d+) hit\(s\), (\d+) miss\(es\).*classes reused (\d+)/", err)
        if m:
            shares.update(hits=int(m[1]), misses=int(m[2]), replay_classes=int(m[3]))

    n = passes(seconds, one)
    ctx["shares"] = {k: v / n for k, v in shares.items()}
    return run


class Revet:
    """The `revet` tree: primed from version 0, then churned to version 1."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.dir = ctx["dir"] / "revet"
        self.paths = tree_paths(ctx["dir"], ctx["manifest"], "revet")
        self.churn = set(ctx["manifest"]["revet_churn"])
        self.work = WORK / "revet"
        self.primed = None
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def vet(self, cache_dir, extra=()):
        return [self.ctx["nchecker"], "vet", "--workers", str(NPROC), "--jobs", "1",
                "--cache-dir", rel(cache_dir), "--corpus-dir", rel(self.dir), *extra]

    def set_version(self, churned):
        manifest, seed_dir = self.ctx["manifest"], self.ctx["dir"]
        for i in self.churn:
            src = manifest["bundles"][f"{i}:{1 if churned else 0}"]["file"]
            dst = self.dir / f"shard-{i % manifest['shards']:02x}" / f"app{i:06d}.apk"
            shutil.copyfile(seed_dir / src, dst)

    def bundles(self, churned):
        return [f"{i}:{1 if churned and i in self.churn else 0}" for i in map(index_of, self.paths)]

    def prime(self, run):
        """One set-up phase: `vet` over version 0 into an empty cache.
        The first primed cache is kept for the timed passes."""
        self.set_version(False)
        cache = self.work / f"prime-{len(run.setup)}"
        wall, out, *_ = timed_process(self.vet(cache))
        failed = self.ctx["check"].stream(out, self.bundles(False))
        if failed:
            raise BenchError(f"priming vet pass printed {failed} wrong report(s)")
        run.setup.append(wall)
        if self.primed is None:
            self.primed = cache
        else:
            shutil.rmtree(cache)
        self.set_version(True)

    def fresh_cache(self):
        cache = self.work / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        shutil.copytree(self.primed, cache)
        return cache

    def restore(self):
        self.set_version(False)
        shutil.rmtree(self.work, ignore_errors=True)


def revet(ctx, seconds):
    tree, run, shares = Revet(ctx), Run(), Counter()
    start = time.perf_counter()
    try:
        tree.prime(run)
        bundles = tree.bundles(True)

        def one():
            # Set-up phases are spread over the run: first, midway, last.
            if len(run.setup) < SETUP_REPS - 1 and time.perf_counter() - start > seconds / 2:
                tree.prime(run)
            cache = tree.fresh_cache()
            start_ns = time.time_ns()
            batch_pass(run, ctx["check"], tree.vet(cache), bundles)
            written, _ = written_since(cache, start_ns)
            shares.update(misses=written, hits=len(bundles) - written)

        n = passes(seconds, one)
        while len(run.setup) < SETUP_REPS:
            tree.prime(run)
        ctx["shares"] = {k: v / n for k, v in shares.items()}
    finally:
        tree.restore()
    return run


def log_queue_wait(result):
    """`svc.queue.wait_us` as the daemon exports it: histogram bucket
    bounds, too coarse to be a metric (they read the same run after run)."""
    d = result["doctor"]
    log(f"daemon: queue wait (svc.queue.wait_us bucket bounds) p50 <= {d['wait_p50_us']} us, "
        f"p99 <= {d['wait_p99_us']} us")


def daemon_pass(ctx):
    reports = WORK / "daemon-reports.json"
    out = run_checked([ctx["helper"], "daemon", "--bin", ctx["nchecker"], "--root", rel(ctx["dir"]),
                       "--waves", str(WAVES), "--window", str(WINDOW), "--jobs", str(NPROC),
                       "--clk-tck", str(os.sysconf("SC_CLK_TCK")), "--reports", str(reports)])
    result = json.loads(out.strip().splitlines()[-1])
    texts = json.loads(reports.read_text())
    reports.unlink()
    return result, texts


def daemon_submissions(manifest):
    """How often each bundle is submitted in the timed waves."""
    versions = [0] * manifest["apps"]
    counts = Counter()
    for churned in manifest["daemon_churn"][:WAVES]:
        for i in churned:
            versions[i] += 1
        counts.update(f"{i}:{v}" for i, v in enumerate(versions))
    return counts


def daemon(ctx, seconds):
    run, check, manifest = Run(), ctx["check"], ctx["manifest"]
    submitted = daemon_submissions(manifest)
    shares = Counter()

    def one():
        result, texts = daemon_pass(ctx)
        bad = {b for b, t in texts.items() if not check.ok(b, t)}
        bad |= {b for b in submitted if b not in texts}
        apps = result["apps_per_wave"] * WAVES
        failed = min(apps, result["failed"] + result["mismatched"]
                     + sum(submitted[b] for b in bad))
        run.add_units(apps, failed, result["wave_s"], result["cpu_s"], result["hwm_kib"] / 1024.0,
                      [[us / 1e3 for us in wave] for wave in result["latency_us"]])
        run.setup.append(result["setup_s"])
        d = result["doctor"]
        # Doctor counts include the wave-0 fill: one miss per app.
        shares.update(hits=d["hit"], misses=d["miss"] - result["apps_per_wave"],
                      replays=d["replay_apps"], not_ready_replies=result["not_ready"])
        ctx["daemon"] = result

    n = passes(seconds, one)
    ctx["shares"] = {k: v / (n * WAVES) for k, v in shares.items()}
    return run


# --------------------------------------------------------------------------
# Traced runs: the per-layer table
# --------------------------------------------------------------------------

def replay(ctx, workload, extra=()):
    out = run_checked([ctx["helper"], "replay", "--workload", workload, "--root", rel(ctx["dir"]),
                       "--jobs", str(NPROC), "--out", str(WORK / "replay-output"), *extra])
    return json.loads(out.strip().splitlines()[-1])


def layer_table(wall_ms, r, stdout_bytes, measured=None):
    """The per-layer rows: the replay's spans and counts, then the rows
    `measured` on the binary from outside, then the residual."""
    rows = dict(r["rows"])
    hits = r["hits_mem"] + r["hits_disk"]
    attempts = hits + r["misses"]
    rows.update({
        "ir.stmts": r["stmts"],
        "core.report_bytes": r["report_bytes"],
        "core.replay_class_frac": (r["replay_classes_reused"] / r["replay_classes_total"]
                                   if r["replay_classes_total"] else 0.0),
        "store.hits_mem": r["hits_mem"],
        "store.hits_disk": r["hits_disk"],
        "store.misses": r["misses"],
        "store.hit_frac": hits / attempts if attempts else 0.0,
        "store.entry_bytes_mean": r["entry_bytes_mean"],
        "store.evictions": r["evictions"],
        "store.gc_runs": r["gc_runs"],
        "io.stdout_bytes": stdout_bytes,
        "trace_overhead_frac": r["wall_traced_ms"] / r["wall_untraced_ms"] - 1.0,
    })
    rows.update(measured or {})
    rows["residual_ms"] = residual_ms(wall_ms, rows)
    return rows


def replay_output():
    path = WORK / "replay-output"
    text = path.read_text()
    path.unlink()
    return text


def merge_replays(reps):
    """Medians of rows and walls over replays that were interleaved with
    the binary's passes, so both sides saw the same host; counts come
    from the last replay."""
    merged = dict(reps[-1])
    merged["rows"] = {k: statistics.median([r["rows"][k] for r in reps]) for k in reps[-1]["rows"]}
    for key in ("wall_untraced_ms", "wall_traced_ms", "entry_bytes_mean"):
        merged[key] = statistics.median([r[key] for r in reps])
    return merged


def trace_cold(ctx):
    run, reps = Run(), []
    paths = tree_paths(ctx["dir"], ctx["manifest"], "tree")
    cmd = [ctx["nchecker"], "--json", "--jobs", str(NPROC)] + paths
    bundles = [f"{index_of(p)}:0" for p in paths]
    for _ in range(REPLAY_REPS):
        batch_pass(run, ctx["check"], cmd, bundles)
        reps.append(replay(ctx, "cold"))
        if replay_output() != run.output:
            raise BenchError("the in-process replay printed different reports than the binary")
    if run.failed:
        raise BenchError("the binary printed a wrong report")
    r = merge_replays(reps)
    return run, layer_table(statistics.median(run.walls_ms), r, len(run.output.encode()))


def spawn_ms(nchecker):
    """Spawn of one `serve --stdio` worker to its first reply."""
    start = time.perf_counter()
    proc = subprocess.Popen([nchecker, "serve", "--stdio", "--quiet", "--jobs", "1"],
                            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    proc.stdin.write(b'{"verb": "status"}\n')
    proc.stdin.flush()
    proc.stdout.readline()
    elapsed = (time.perf_counter() - start) * 1e3
    proc.stdin.close()
    proc.stdout.close()
    proc.wait()
    return elapsed


def trace_revet(ctx):
    tree, run, reps = Revet(ctx), Run(), []
    replay_cache = WORK / "replay-cache"
    try:
        tree.prime(run)
        bundles = tree.bundles(True)
        for _ in range(REPLAY_REPS):
            batch_pass(run, ctx["check"], tree.vet(tree.fresh_cache()), bundles)
            reps.append(replay(ctx, "revet", ["--primed", str(tree.primed),
                                              "--work-cache", str(replay_cache)]))
            if replay_output() != run.output:
                raise BenchError("the in-process replay printed different reports than vet")
        if run.failed:
            raise BenchError("vet printed a wrong report")
        # One more pass with shard timings on stderr, outside the wall.
        cache = tree.fresh_cache()
        start_ns = time.time_ns()
        _, _, _, _, err, _ = timed_process(tree.vet(cache, ["-v"]))
        _, written_bytes = written_since(cache, start_ns)
        shard_ms = [int(m) for m in re.findall(r"vet: shard \d+: .* (\d+) ms", err)]
        spawn = [spawn_ms(ctx["nchecker"]) for _ in range(5)]
        r = merge_replays(reps)
        wall = statistics.median(run.walls_ms)
        measured = {
            "orchestrator.spawn_ms": statistics.median(spawn),
            "orchestrator.overhead_ms": wall - r["wall_untraced_ms"],
            "orchestrator.shard_max_over_mean": (max(shard_ms) / statistics.mean(shard_ms)
                                                 if shard_ms else 0.0),
            "store.disk_bytes_written": written_bytes,
        }
        return run, layer_table(wall, r, len(run.output.encode()), measured)
    finally:
        shutil.rmtree(replay_cache, ignore_errors=True)
        tree.restore()


def trace_daemon(ctx):
    run, reps, results = Run(), [], []
    for _ in range(REPLAY_REPS):
        result, texts = daemon_pass(ctx)
        if (result["failed"] or result["mismatched"]
                or any(not ctx["check"].ok(b, t) for b, t in texts.items())):
            raise BenchError("the daemon served a wrong or missing report")
        run.attempted += result["apps_per_wave"] * (WAVES + 1)
        results.append(result)
        reps.append(replay(ctx, "daemon", ["--waves", str(WAVES), "--window", str(WINDOW)]))
        if json.loads(replay_output()) != texts:
            raise BenchError("the in-process replay printed different reports than the daemon")
    log_queue_wait(results[-1])
    rpc_us = [us for result in results for us in result["report_rpc_us"]]
    measured = {"daemon.report_rpc_ms": statistics.median(rpc_us) / 1e3}
    for k in range(WAVES + 1):
        kib = statistics.median([result["rss_kib"][k] for result in results])
        measured[f"daemon.rss_mib.wave_{k}"] = kib / 1024.0
    wall = statistics.median([s for result in results for s in result["wave_s"]]) * 1e3
    r = merge_replays(reps)
    return run, layer_table(wall, r, r["report_bytes"], measured)


WORKLOADS = {
    "cold": (cold, trace_cold),
    "revet": (revet, trace_revet),
    "daemon": (daemon, trace_daemon),
}


def describe_shares(workload, ctx):
    shares = ctx.get("shares", {})
    if shares:
        parts = ", ".join(f"{k} {v:.1f}" for k, v in sorted(shares.items()))
        log(f"{workload}: per pass (per wave for daemon): {parts}")
    if workload == "daemon" and "daemon" in ctx:
        d = ctx["daemon"]["doctor"]
        mean = d["mem_bytes"] / max(1, d["mem_entries"])
        log(f"daemon: {d['mem_entries']} resident entries, {mean / 1e3:.1f} kB each "
            f"(store.entry_bytes_mean), {d['mem_bytes'] / MEM_BUDGET:.0%} of the "
            f"{MEM_BUDGET >> 20} MiB memory tier; room for {int(MEM_BUDGET / mean)} apps, "
            f"headroom {1 - d['mem_bytes'] / MEM_BUDGET:.0%}; evictions {d['evict']}")
        log_queue_wait(ctx["daemon"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        nchecker, helper = build()
        WORK.mkdir(parents=True, exist_ok=True)
        seed_dir, manifest, gen_s = inputs(helper, args.seed)
        ctx = {"nchecker": nchecker, "helper": helper, "dir": seed_dir, "manifest": manifest}
        start = time.perf_counter()
        ctx["check"] = Checker(manifest["bundles"],
                               build_reference(nchecker, seed_dir, manifest["bundles"]))
        check_s = time.perf_counter() - start
        log(f"harness: inputs {gen_s:.2f} s (generated or content-checked), "
            f"reference {check_s:.2f} s; not part of any metric")
        if args.trace:
            # One traced run measures every workload's table.
            run, metrics = Run(), {}
            for workload, (_, trace) in WORKLOADS.items():
                traced, rows = trace(ctx)
                run.attempted += traced.attempted
                for row in WORKLOAD_ROWS[workload]:
                    metrics[f"{workload}.{row}"] = {"value": rows[row], "unit": ROW_UNITS[row]}
        else:
            run = WORKLOADS[args.workload][0](ctx, args.seconds)
            describe_shares(args.workload, ctx)
            values = run.metrics()
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
            log(f"{args.workload}: failed_frac {run.failed / run.attempted:.6f} "
                f"({run.failed} of {run.attempted})")
            if run.failed:
                raise BenchError(f"{run.failed} app(s) got no report or a wrong one")
    except BenchError as e:
        log(f"error: {e}")
        return 1
    attempted = max(run.attempted, 1)
    print(json.dumps({"correct": run.failed == 0, "attempted": attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
