//! Store-scale streaming benchmark: a 100k-app corpus through the
//! analysis service, one wave at a time, without ever materializing
//! the corpus.
//!
//! Wave 0 analyzes version 0 of every app cold. Each later wave churns
//! a seeded fraction of the corpus to its next version and resubmits
//! *everything*: unchanged apps must come back as whole-report hits
//! (memory or disk tier), churned apps re-analyze and emit a
//! [`DeltaReport`] against the cached base. The bench reports sustained
//! analysis throughput, the per-wave hit curve, the **warm speedup**
//! (mean warm-wave rate over the cold rate — the number that proves a
//! cache hit is cheaper than a cold analysis), delta counts against
//! the generator's churn ground truth, disk-GC counters, and the
//! process's peak RSS — the number that proves "streaming": it must
//! stay bounded while corpus size grows without bound.
//!
//! Warm-wave outputs are also spot-checked for byte identity: a sample
//! of every warm wave's reports is re-rendered and compared against a
//! cache-disabled reference analysis of the same bytes, so the fast
//! path can never drift from the cold path's output surface.
//!
//! Results merge into `BENCH_pipeline.json` under `"store_scale"`.
//!
//! Usage: `store_scale_bench [--apps N] [--waves W] [--churn-pct P]
//! [--batch B] [--cache-budget BYTES] [--rss-budget-mb MB] [--smoke]
//! [--no-write] [--write-to FILE]`
//!
//! `--smoke` shrinks the run (2 000 apps, 2 waves) and skips the merge.
//!
//! [`DeltaReport`]: nck_svc::DeltaReport

use nck_appgen::CorpusStream;
use nck_obs::Obs;
use nck_svc::{render_json, AnalysisService, ServiceOptions};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Instant;

/// SplitMix64: the churn coin for (wave, app) — independent of the
/// stream's own generator so churn never correlates with app shape.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn churns(seed: u64, wave: usize, i: usize, pct: f64) -> bool {
    let h = mix(seed ^ (wave as u64).wrapping_mul(0x5eed_cafe), i as u64);
    (h >> 11) as f64 / (1u64 << 53) as f64 * 100.0 < pct
}

/// Peak resident set (VmHWM) in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let apps: usize = arg_after(&args, "--apps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 2_000 } else { 100_000 });
    let waves: usize = arg_after(&args, "--waves")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 2 } else { 3 })
        .max(1);
    let churn_pct: f64 = arg_after(&args, "--churn-pct")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    let batch: usize = arg_after(&args, "--batch")
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
        .max(1);
    let cache_budget: u64 = arg_after(&args, "--cache-budget")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2 << 30);
    let rss_budget_mb: f64 = arg_after(&args, "--rss-budget-mb")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096.0);
    let write = !smoke && !args.iter().any(|a| a == "--no-write");
    let path = arg_after(&args, "--write-to").unwrap_or_else(|| "BENCH_pipeline.json".to_owned());

    let seed = nck_bench::SEED;
    let stream = CorpusStream::new(seed, apps);
    let cache_dir: PathBuf =
        std::env::temp_dir().join(format!("nck-store-scale-{}-{apps}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let svc = AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(cache_dir.clone()),
            cache_budget: Some(cache_budget),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    // Cache-disabled reference for the byte-identity spot checks: the
    // slowest, plainest path the warm output must match exactly.
    let reference = AnalysisService::new(
        ServiceOptions {
            mem_budget: Some(0),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    // ~32 spot checks per warm wave, spread across the corpus.
    let sample_stride = (apps / 32).max(1);
    let mut identity_checks = 0usize;

    println!(
        "=== store-scale streaming (seed {seed}, {apps} apps, {waves} wave(s), \
         {churn_pct}% churn, batch {batch}) ==="
    );

    // Version of app i after the churn coin has been tossed for every
    // wave so far. Cumulative: an app churned in waves 1 and 3 is at
    // version 2. One u32 per app is the only per-corpus state held.
    let mut versions = vec![0u32; apps];
    let mut wave_rates: Vec<f64> = Vec::new();
    let mut wave_hits: Vec<f64> = Vec::new();
    let mut total_deltas = 0usize;
    let mut total_churned = 0usize;
    let mut analysis_secs = 0.0f64;

    for wave in 0..=waves {
        if wave > 0 {
            for (i, v) in versions.iter_mut().enumerate() {
                if churns(seed, wave, i, churn_pct) {
                    *v += 1;
                    total_churned += 1;
                }
            }
        }
        let mut hits = 0usize;
        let mut misses = 0usize;
        let mut deltas = 0usize;
        let mut wave_secs = 0.0f64;
        let mut i = 0usize;
        while i < apps {
            let n = batch.min(apps - i);
            // Generate outside the timer: the bench measures analysis
            // throughput, and a store feeds from disk, not a generator.
            let items: Vec<(String, Vec<u8>)> = (i..i + n)
                .map(|j| {
                    let spec = stream.version_at(j, versions[j]);
                    (spec.package.clone(), nck_appgen::generate(&spec).to_bytes())
                })
                .collect();
            let t = Instant::now();
            let outcomes = svc.analyze_batch(&items);
            wave_secs += t.elapsed().as_secs_f64();
            let stats = AnalysisService::batch_stats(&outcomes);
            hits += stats.hits;
            misses += stats.misses;
            deltas += outcomes.iter().filter(|o| o.delta.is_some()).count();
            for o in &outcomes {
                o.report.as_ref().expect("store corpus apps analyze");
            }
            // Byte-identity spot checks, outside the timer: warm-wave
            // reports (hits, replays, promoted entries, cached render
            // cells) must match a cache-disabled cold analysis of the
            // same bytes exactly.
            if wave > 0 {
                for (off, o) in outcomes.iter().enumerate() {
                    if !(i + off).is_multiple_of(sample_stride) {
                        continue;
                    }
                    let (key, bytes) = &items[off];
                    let warm = render_json(o.report.as_ref().expect("sampled app analyzed"));
                    let cold_outcome = reference.analyze_one(key, bytes);
                    let cold =
                        render_json(cold_outcome.report.as_ref().expect("reference analyzes"));
                    if warm != cold {
                        eprintln!("FAILED: wave {wave} app {key}: warm output != cold output");
                        std::process::exit(1);
                    }
                    identity_checks += 1;
                }
            }
            i += n;
        }
        analysis_secs += wave_secs;
        total_deltas += deltas;
        let rate = apps as f64 / wave_secs.max(1e-9);
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        wave_rates.push(rate);
        wave_hits.push(hit_rate);
        println!(
            "wave {wave}: {rate:>8.1} apps/s  hit rate {:>5.1}%  {deltas} delta(s)",
            hit_rate * 100.0
        );
    }

    let store_counters = svc.store().metrics().snapshot();
    let counter = |name: &str| store_counters.counters.get(name).copied().unwrap_or(0);
    let peak = peak_rss_mb();
    let cold_rate = wave_rates[0];
    let warm_rates = &wave_rates[1..];
    let warm_rate = warm_rates.iter().sum::<f64>() / warm_rates.len().max(1) as f64;
    let churn_hit_rate = wave_hits[1..].iter().sum::<f64>() / warm_rates.len().max(1) as f64;
    let overall = (apps * (waves + 1)) as f64 / analysis_secs.max(1e-9);
    let warm_speedup = warm_rate / cold_rate.max(1e-9);

    println!(
        "overall: {overall:.1} apps/s  cold {cold_rate:.1}  warm {warm_rate:.1} \
         ({warm_speedup:.2}x cold)  churn hit rate {:.1}%",
        churn_hit_rate * 100.0
    );
    println!(
        "deltas: {total_deltas} emitted / {total_churned} churned; \
         gc: {} run(s), {} skipped, {} evicted, {} bytes freed; \
         {identity_checks} identity check(s)",
        counter("svc.cache.gc_runs"),
        counter("svc.cache.gc_skipped"),
        counter("svc.cache.gc_evicted"),
        counter("svc.cache.gc_freed_bytes"),
    );
    println!("peak RSS: {peak:.1} MiB (budget {rss_budget_mb:.0} MiB)");

    // Churned apps whose evolution happened to be a no-op produce no
    // delta; anything beyond that gap means a delta was dropped.
    if total_deltas > total_churned {
        eprintln!("FAILED: more deltas than churned apps");
        std::process::exit(1);
    }
    if peak > rss_budget_mb {
        eprintln!("FAILED: peak RSS {peak:.1} MiB over the {rss_budget_mb:.0} MiB budget");
        std::process::exit(1);
    }
    // The tentpole invariant: the steady state must be the fast path.
    // Smoke runs skip the floor (micro-corpora are too noisy) but still
    // ran the identity checks above.
    if !smoke && warm_speedup < 2.0 {
        eprintln!("FAILED: warm speedup {warm_speedup:.2}x under the 2.0x floor");
        std::process::exit(1);
    }

    if write {
        let section = json!({
            "apps": apps,
            "waves": waves,
            "churn_pct": churn_pct,
            "batch": batch,
            "apps_per_sec": overall,
            "cold_apps_per_sec": cold_rate,
            "warm_apps_per_sec": warm_rate,
            "warm_speedup": warm_speedup,
            "wave_hit_rates": wave_hits,
            "churn_hit_rate": churn_hit_rate,
            "deltas": total_deltas,
            "churned": total_churned,
            "identity_checks": identity_checks,
            "peak_rss_mb": peak,
            "gc": {
                "runs": counter("svc.cache.gc_runs"),
                "skipped": counter("svc.cache.gc_skipped"),
                "evicted": counter("svc.cache.gc_evicted"),
                "freed_bytes": counter("svc.cache.gc_freed_bytes"),
            },
        });
        let mut doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| serde_json::from_str(&t).ok())
            .unwrap_or_else(|| json!({ "schema": 1, "seed": seed }));
        if let Value::Object(map) = &mut doc {
            map.insert("store_scale".to_owned(), section);
        }
        let out = serde_json::to_string_pretty(&doc).expect("pipeline doc serializes");
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("merged \"store_scale\" into {path}");
    } else if smoke {
        println!("smoke: measured only; run bench_gate for the regression verdict");
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
}
