#!/usr/bin/env bash
# Repository CI gate: build, test, lint, format. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> one level of parallelism"
# An app's analysis runs on the pool thread that took it: the library
# crates below the service start no threads of their own, so `--jobs N`
# means N analysis threads.
if grep -rnE 'crossbeam::scope|thread::(scope|spawn)|available_parallelism' \
    crates/{core,dataflow,ir,dexfile,android,netlibs}/src; then
    echo "nested analysis threads above: nck_svc::run_pool is the one place that starts analysis threads"
    exit 1
fi

echo "==> corruption fuzz smoke test"
# 2000 seeds x 3 base apps = 6000 mutated bundles through the whole
# pipeline; exits non-zero on any panic or silently accepted corruption.
./target/release/fuzz_smoke 2000

echo "==> hot-path throughput smoke test"
# One measuring pass over the 285-app corpus; exits non-zero on any
# panic. Regression verdicts live in the bench_gate step below.
./target/release/hotpath_bench --smoke

echo "==> targeted-mode differential smoke test"
# The 16-app interprocedural accuracy suite through the CLI in both
# modes: the demand-driven (--targeted) pipeline must print the exact
# bytes the whole-app pipeline prints.
targeted_dir="$(mktemp -d)"
trap 'rm -rf "$targeted_dir"' EXIT
for i in $(seq 0 15); do
    ./target/release/genapp "suite:$i" "$targeted_dir/app$i.apk"
done
./target/release/nchecker --json --no-cache "$targeted_dir"/app*.apk \
    > "$targeted_dir/full.json"
./target/release/nchecker --json --no-cache --targeted "$targeted_dir"/app*.apk \
    > "$targeted_dir/targeted.json"
diff -u "$targeted_dir/full.json" "$targeted_dir/targeted.json" \
    || { echo "targeted smoke: reports diverge between modes"; exit 1; }
echo "targeted smoke ok: 16 apps byte-identical across modes"

echo "==> warm-cache byte identity"
# After a priming run, every warm surface prints the --no-cache bytes:
# one-shot --json (the entries' stored bytes), text mode (the decoded
# reports) and vet (fetch frames), all under the same canonical keys.
warm_cache="$targeted_dir/warm-cache"
./target/release/nchecker --json --quiet --cache-dir "$warm_cache" \
    "$targeted_dir"/app*.apk > /dev/null
./target/release/nchecker --json --cache-dir "$warm_cache" "$targeted_dir"/app*.apk \
    > "$targeted_dir/warm.json" 2> "$targeted_dir/warm.err"
grep -q "cache: 16 hit(s), 0 miss(es)" "$targeted_dir/warm.err" \
    || { echo "warm identity: the warm run missed"; cat "$targeted_dir/warm.err"; exit 1; }
cmp "$targeted_dir/full.json" "$targeted_dir/warm.json" \
    || { echo "warm identity: warm --json differs from --no-cache"; exit 1; }
./target/release/nchecker --no-cache "$targeted_dir"/app*.apk > "$targeted_dir/text.txt"
./target/release/nchecker --cache-dir "$warm_cache" "$targeted_dir"/app*.apk \
    > "$targeted_dir/warm-text.txt"
# Text mode ends with the cache accounting line; the reports above it
# must match.
tail -n 1 "$targeted_dir/warm-text.txt" | grep -q "^cache: 16 hit(s), 0 miss(es)" \
    || { echo "warm identity: warm text run missed"; exit 1; }
head -n -1 "$targeted_dir/warm-text.txt" | cmp - "$targeted_dir/text.txt" \
    || { echo "warm identity: warm text mode differs from --no-cache"; exit 1; }
./target/release/nchecker vet --workers 2 --quiet --cache-dir "$warm_cache" \
    "$targeted_dir"/app*.apk > "$targeted_dir/warm-vet.json"
cmp "$targeted_dir/full.json" "$targeted_dir/warm-vet.json" \
    || { echo "warm identity: warm vet differs from --no-cache"; exit 1; }
[ "$(find "$warm_cache" -name '*.json' | wc -l)" -eq 16 ] \
    || { echo "warm identity: vet wrote entries under new keys"; exit 1; }
echo "warm identity ok: warm --json, text mode and vet print the --no-cache bytes"

echo "==> damaged cache entries"
# Damage each of the 16 primed entries in a different way. Every damage
# is read as a miss (quarantined, except the previous layout and a stale
# bundle fingerprint, which are plain misses) and re-analyzed, so both
# one-shot --json and vet still print the --no-cache bytes.
damage() {
    python3 - "$warm_cache" <<'PY'
import json, os, sys

d = sys.argv[1]
names = sorted(n for n in os.listdir(d) if n.endswith(".json"))
assert len(names) == 16, names
for k, name in enumerate(names):
    path = os.path.join(d, name)
    data = open(path, "rb").read()
    head, rest = data.split(b"\n", 1)
    h = json.loads(head)
    n = h["json_bytes"]
    payload, tail = rest[:n], rest[n:]

    def with_head(**fields):
        return json.dumps(dict(h, **fields)).encode() + b"\n" + payload + tail

    old = {"schema": 1, "bundle_fp": h["bundle_fp"], "config_fp": h["config_fp"],
           "report": json.loads(tail)}
    damaged = [
        b"{schema 2\n" + rest,                          # header not JSON
        head,                                           # no newline
        with_head(json_bytes=len(rest) + 1),            # length beyond the file
        with_head(json_bytes=-1),                       # negative length
        with_head(json_bytes=2**64 - 1),                # u64::MAX
        head + b"\n" + payload[:n // 2] + b"\xff" + payload[n // 2 + 1:] + tail,
        data[:len(head) + 1 + n // 2],                  # truncated mid-payload
        head + b"\n" + payload + b'{"schema": 1}\n',   # undecodable wire tail
        b"",                                            # empty file
        with_head(config_fp="1"),                       # another config's payload
        with_head(schema=3),                            # unknown layout
        head + b"\n" + payload,                         # no wire tail
        with_head(json_bytes=str(n)),                   # length not an integer
        with_head(bundle_fp="not a number"),            # fingerprint unreadable
        json.dumps(old).encode(),                       # previous layout: plain miss
        with_head(bundle_fp="1"),                       # stale version: plain miss
    ][k]
    open(path, "wb").write(damaged)
PY
}
damage
./target/release/nchecker --json --quiet --cache-dir "$warm_cache" "$targeted_dir"/app*.apk \
    > "$targeted_dir/damaged.json"
cmp "$targeted_dir/full.json" "$targeted_dir/damaged.json" \
    || { echo "damaged cache: --json differs from --no-cache"; exit 1; }
damage
./target/release/nchecker vet --workers 2 --quiet --cache-dir "$warm_cache" \
    "$targeted_dir"/app*.apk > "$targeted_dir/damaged-vet.json"
cmp "$targeted_dir/full.json" "$targeted_dir/damaged-vet.json" \
    || { echo "damaged cache: vet differs from --no-cache"; exit 1; }
[ "$(find "$warm_cache" -name '*.quarantine' | wc -l)" -eq 14 ] \
    || { echo "damaged cache: expected 14 quarantined entries"; ls "$warm_cache"; exit 1; }
[ "$(find "$warm_cache" -name '*.json' | wc -l)" -eq 16 ] \
    || { echo "damaged cache: the misses did not rewrite every entry"; exit 1; }
echo "damaged cache ok: 16 damages read as misses, 14 quarantined, output unchanged"

echo "==> targeted throughput smoke test"
# Small clean-heavy corpus, both modes, in-bench byte-diff gate; exits
# non-zero when the modes disagree. Throughput verdicts come from
# bench_gate below.
./target/release/targeted_bench --smoke

echo "==> bench regression gate"
# One declarative check of the recorded BENCH_pipeline.json against the
# committed BENCH_baseline.json tolerances (replaces the old per-bench
# --smoke floors). --smoke tolerates sections a partial bench run did
# not regenerate; out-of-tolerance values still fail.
./target/release/bench_gate --smoke

echo "==> observability smoke test"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$targeted_dir"' EXIT
./target/release/genapp gpslogger "$smoke_dir/app.apk"
./target/release/nchecker --json --metrics "$smoke_dir/app.apk" > "$smoke_dir/report.json"
python3 - "$smoke_dir/report.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
metrics = doc["metrics"]
assert metrics["schema"] == 1, "metrics schema version changed"
assert "summary_cache" in metrics, "metrics lacks summary_cache"
assert metrics["counters"], "metrics lacks recorded counters"
assert doc["defects"], "smoke app produced no defects"
for defect in doc["defects"]:
    assert defect["provenance"], f"defect {defect['kind']} lacks provenance"
    assert defect["provenance"][0]["kind"] == "request"
print(f"smoke ok: {len(doc['defects'])} defects, "
      f"{len(metrics['counters'])} counters, provenance present")
EOF

echo "==> telemetry export smoke test"
# Chrome trace + JSONL sinks and the --doctor snapshot, validated for
# shape and the properties the exporters promise: per-lane monotonic
# trace timestamps, typed JSONL records, and byte-identical doctor
# output across --jobs on an unchanged cache directory.
tele_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$targeted_dir" "$tele_dir"' EXIT
for i in $(seq 0 3); do
    ./target/release/genapp "suite:$i" "$tele_dir/app$i.apk"
done
./target/release/nchecker --quiet --summary --cache-dir "$tele_dir/cache" \
    --trace-out "$tele_dir/trace.json" --log-json "$tele_dir/log.jsonl" \
    "$tele_dir"/app*.apk > /dev/null
python3 - "$tele_dir/trace.json" "$tele_dir/log.jsonl" <<'EOF'
import json, sys
from collections import defaultdict

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
spans = [e for e in events if e["ph"] == "X"]
meta = [e for e in events if e["ph"] == "M"]
assert spans, "trace has no duration events"
assert any(m["name"] == "process_name" for m in meta), "missing process_name"
assert any(m["name"] == "thread_name" for m in meta), "missing worker lanes"
for e in spans:
    assert e["dur"] >= 0 and e["ts"] >= 0, f"negative time in {e}"
lanes = defaultdict(list)
for e in spans:
    lanes[e["tid"]].append(e["ts"])
for tid, ts in lanes.items():
    assert ts == sorted(ts), f"lane {tid} timestamps not monotonic"

types = set()
with open(sys.argv[2]) as f:
    for line in f:
        rec = json.loads(line)
        types.add(rec["t"])
assert {"app", "cache", "funnel", "run"} <= types, f"missing record types: {types}"
print(f"telemetry ok: {len(spans)} spans over {len(lanes)} lanes, "
      f"record types {sorted(types)}")
EOF
# Doctor determinism: same snapshot bytes regardless of parallelism,
# run twice against the cache directory the run above warmed.
./target/release/nchecker --quiet --doctor --jobs 1 --cache-dir "$tele_dir/cache" \
    "$tele_dir"/app*.apk > "$tele_dir/doctor1.json"
./target/release/nchecker --quiet --doctor --jobs 8 --cache-dir "$tele_dir/cache" \
    "$tele_dir"/app*.apk > "$tele_dir/doctor8.json"
cmp "$tele_dir/doctor1.json" "$tele_dir/doctor8.json" \
    || { echo "doctor snapshot differs across --jobs"; exit 1; }
python3 - "$tele_dir/doctor1.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("schema", "build", "config", "cache", "funnel", "last_run"):
    assert key in doc, f"doctor snapshot missing {key}"
assert doc["schema"] == 1
assert doc["cache"]["disk"]["configured"] is True
assert doc["cache"]["hit"] + doc["cache"]["miss"] >= 4, "no cache traffic recorded"
print(f"doctor ok: {doc['cache']['disk']['entries']} cache entries, "
      f"{doc['last_run']['apps']} apps, byte-identical across --jobs")
EOF

echo "==> daemon smoke test"
# The persistent daemon (`nchecker serve`) over --stdio: submit a suite
# app, poll status, fetch the report and require it byte-identical to
# the one-shot --json output, fetch the doctor snapshot (canonical
# document + queue section), exercise a typed protocol error, and shut
# down cleanly with exit 0.
daemon_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$targeted_dir" "$tele_dir" "$daemon_dir"' EXIT
./target/release/genapp "suite:0" "$daemon_dir/app.apk"
./target/release/nchecker --json --no-cache "$daemon_dir/app.apk" \
    > "$daemon_dir/oneshot.json"
python3 - "$daemon_dir" <<'EOF'
import json, os, subprocess, sys, time

d = sys.argv[1]
proc = subprocess.Popen(
    ["./target/release/nchecker", "serve", "--stdio", "--quiet"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

def rpc(req):
    proc.stdin.write(json.dumps(req) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())

r = rpc({"verb": "submit", "path": os.path.join(d, "app.apk")})
assert r["ok"], r
job = r["id"]
state = None
for _ in range(500):
    s = rpc({"verb": "status", "id": job})
    state = s["state"]
    if state in ("done", "failed"):
        break
    time.sleep(0.01)
assert state == "done", f"job never finished: {state}"
rep = rpc({"verb": "report", "id": job})
with open(os.path.join(d, "oneshot.json")) as f:
    oneshot = f.read()
assert rep["report"] == oneshot, "daemon report differs from one-shot --json"
doc = rpc({"verb": "doctor"})
snap = json.loads(doc["doctor"])
for key in ("schema", "build", "config", "cache", "funnel", "queue"):
    assert key in snap, f"daemon doctor missing {key}"
assert snap["queue"]["completed"] == 1, snap["queue"]
bad = rpc({"verb": "frobnicate"})
assert not bad["ok"] and bad["error"]["code"] == "unknown-verb", bad
sd = rpc({"verb": "shutdown"})
assert sd["ok"], sd
proc.stdin.close()
assert proc.wait(timeout=120) == 0, "daemon must exit 0 after clean shutdown"
print("daemon ok: report byte-identical over the wire, "
      "doctor + queue served, typed errors, clean shutdown")
EOF
# The framed verb: `fetch` waits for the job and answers with one header
# line carrying `bytes`, then exactly that many raw report bytes, which
# must equal the one-shot --json output; an unknown id is a one-line
# `not-found` with no frame, and the stream stays line-synced after it.
python3 - "$daemon_dir" <<'EOF'
import json, os, subprocess, sys

d = sys.argv[1]
proc = subprocess.Popen(
    ["./target/release/nchecker", "serve", "--stdio", "--quiet"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE)

def send(req):
    proc.stdin.write(json.dumps(req).encode() + b"\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())

r = send({"verb": "submit", "path": os.path.join(d, "app.apk")})
assert r["ok"], r
head = send({"verb": "fetch", "id": r["id"]})
assert head["ok"] and head["verb"] == "fetch", head
payload = proc.stdout.read(head["bytes"])
with open(os.path.join(d, "oneshot.json"), "rb") as f:
    oneshot = f.read()
assert len(payload) == head["bytes"], "short fetch frame"
assert payload == oneshot, "fetch frame differs from one-shot --json"
missing = send({"verb": "fetch", "id": 999999})
assert not missing["ok"] and missing["error"]["code"] == "not-found", missing
st = send({"verb": "status"})
assert st["ok"] and st["verb"] == "status", "stream not line-synced after an error"
assert send({"verb": "shutdown"})["ok"]
proc.stdin.close()
assert proc.wait(timeout=120) == 0, "daemon must exit 0 after clean shutdown"
print(f"fetch ok: {head['bytes']}-byte frame byte-identical to one-shot --json, "
      "not-found for an unknown id")
EOF
# A wire line nested far past the JSON parser's depth limit (50,000 `[`
# bytes, well under the 1 MiB line cap) must get a typed `malformed`
# reply, not overflow the daemon's stack; the daemon then shuts down
# cleanly with exit 0.
python3 -c 'print("[" * 50000); print("{\"verb\": \"shutdown\"}")' \
    | ./target/release/nchecker serve --stdio --quiet > "$daemon_dir/deep.out" \
    || { echo "deep-nesting smoke: daemon did not exit 0"; exit 1; }
head -n 1 "$daemon_dir/deep.out" | grep -q '"code":"malformed"' \
    || { echo "deep-nesting smoke: no malformed reply"; cat "$daemon_dir/deep.out"; exit 1; }
echo "deep-nesting smoke ok: malformed reply, daemon exited 0"

echo "==> cache determinism tests"
# Cold/warm differential suite: whole-report hits, prefix replay after
# app updates, disk-tier restarts, no-cache mode, degraded bypass — all
# byte-identical to cold.
cargo test --package nck-svc --test determinism --quiet

echo "==> incremental re-analysis smoke test"
# Small corpus of updated bundles through the analysis service. The
# binary itself exits non-zero if any warm or hot report differs from
# cold; on top of that, require real cache traffic (hits and replay).
incr_out="$(./target/release/incremental_bench --apps 16 --bulk 8 --reps 1 --no-write)"
echo "$incr_out"
echo "$incr_out" | grep -q "byte-identical to cold" \
    || { echo "incremental smoke: missing report-identity line"; exit 1; }
echo "$incr_out" | grep -q "100% whole-report hits" \
    || { echo "incremental smoke: hot pass was not all cache hits"; exit 1; }
echo "$incr_out" | grep -Eq "warm:.* [1-9][0-9]*% classes replayed" \
    || { echo "incremental smoke: warm pass reported no class reuse"; exit 1; }

echo "==> store-scale vetting smoke test"
# A small sharded corpus through the multi-process orchestrator: vet
# output must be byte-identical to the single-process --json run; a
# version-churn rerun over the same cache must emit well-formed report
# deltas; and an explicit GC pass must respect a tight byte budget.
vet_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$targeted_dir" "$tele_dir" "$daemon_dir" "$vet_dir"' EXIT
./target/release/genapp corpus --seed 7 --count 40 --shards 8 "$vet_dir/corpus"
./target/release/nchecker --json --no-cache \
    $(find "$vet_dir/corpus" -name '*.apk' | sort) > "$vet_dir/oneshot.json"
./target/release/nchecker vet --workers 2 --corpus-dir "$vet_dir/corpus" \
    --cache-dir "$vet_dir/cache" --quiet > "$vet_dir/vet.json"
cmp "$vet_dir/oneshot.json" "$vet_dir/vet.json" \
    || { echo "vet smoke: multi-process output differs from one-shot"; exit 1; }
# Default one-shot keeps no memory tier and renders on the pool; it must
# print the --no-cache bytes.
./target/release/nchecker --json --quiet \
    $(find "$vet_dir/corpus" -name '*.apk' | sort) > "$vet_dir/default.json"
cmp "$vet_dir/oneshot.json" "$vet_dir/default.json" \
    || { echo "vet smoke: default one-shot output differs from --no-cache"; exit 1; }
# vet forwards the shared checker and cache flags to its workers, so an
# uncached vet prints the same bytes too.
./target/release/nchecker vet --workers 2 --no-cache --corpus-dir "$vet_dir/corpus" \
    > "$vet_dir/vet-nocache.json"
cmp "$vet_dir/oneshot.json" "$vet_dir/vet-nocache.json" \
    || { echo "vet smoke: --no-cache output differs from one-shot"; exit 1; }
echo "vet smoke ok: 40 apps byte-identical across 2 worker processes, cached and uncached, and default one-shot"
./target/release/genapp corpus --seed 7 --count 40 --shards 8 --version 1 \
    "$vet_dir/corpus"
# Keep the summary on stderr this time: the clean path must spawn the
# worker fleet exactly once (one process per shard, zero respawns).
./target/release/nchecker vet --workers 2 --corpus-dir "$vet_dir/corpus" \
    --cache-dir "$vet_dir/cache" --delta-out "$vet_dir/deltas.jsonl" \
    --summary 2> "$vet_dir/vet-churn.log"
grep -q "0 restart(s), 2 spawned, 0 reused" "$vet_dir/vet-churn.log" \
    || { echo "vet smoke: worker fleet was not spawned exactly once"; \
         cat "$vet_dir/vet-churn.log"; exit 1; }
echo "vet fleet ok: 2 workers spawned once, 0 respawns on the clean path"
# Disk hits stamp LRU recency on the entry files themselves: the cache
# directory holds no per-entry sidecar files.
atime_files="$(find "$vet_dir/cache" -name '*.atime')"
[ -z "$atime_files" ] \
    || { echo "vet smoke: cache dir holds .atime sidecars:"; echo "$atime_files"; exit 1; }
python3 - "$vet_dir/deltas.jsonl" <<'EOF'
import json, sys

deltas = [json.loads(line) for line in open(sys.argv[1])]
assert deltas, "version churn produced no deltas"
for d in deltas:
    assert d["t"] == "delta", d
    for key in ("key", "prev_fp", "new_fp", "added", "fixed", "unchanged"):
        assert key in d, f"delta missing {key}: {d}"
    assert len(d["prev_fp"]) == 16 and len(d["new_fp"]) == 16, d
    assert isinstance(d["added"], list) and isinstance(d["fixed"], list), d
changed = sum(1 for d in deltas if d["added"] or d["fixed"])
print(f"delta smoke ok: {len(deltas)} deltas, {changed} with defect churn")
EOF
./target/release/nchecker cache-gc --cache-dir "$vet_dir/cache" --cache-budget 64K \
    | grep -q "evicted" || { echo "cache-gc smoke: no stats line"; exit 1; }
./target/release/store_scale_bench --smoke --apps 1000 --waves 2

echo "CI green."
