//! Input generation: one seeded `CorpusStream` tree shared by every
//! workload, the version overlays its churn needs, and a manifest with
//! each bundle's ground truth.
//!
//! The tree is a stratified draw from the stream. The store mix is
//! heavy-tailed (ballast classes follow a clamped Pareto law), so the
//! first `N` apps of two seeds differ in total work by far more than
//! run-to-run timing noise. Each tree therefore holds exactly the
//! mix's expected composition: `N` evenly spaced quantiles of the
//! ballast law, half of each network-free. Which stream apps fill each
//! stratum is the seed's choice; an app keeps its stream identity
//! (package, versions), and its position in the tree is its rank by
//! stream index.
//!
//! Layout under `--out`:
//!
//! - `tree/shard-XX/appNNNNNN.apk`: version 0 of every app (`cold`, the
//!   daemon's first wave);
//! - `revet/shard-XX/appNNNNNN.apk`: a second copy of version 0, which
//!   the `revet` workload primes from and then overwrites with its churn;
//! - `over/vV/appNNNNNN.apk`: version `V >= 1` of each churned app;
//! - `manifest.json`: bundles keyed `"<index>:<version>"` with file,
//!   package and the expected defect kinds, plus the churn plans.

use crate::Args;
use nck_appgen::stream::sharded_path;
use nck_appgen::{CorpusStream, StreamOptions};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Shard directories of the generated trees.
const SHARDS: usize = 8;

/// SplitMix64 step: the benchmark's own seeded choices (which apps
/// churn) must not depend on the generator's internals.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` distinct indices below `n`, drawn by a partial Fisher-Yates
/// shuffle seeded with `seed`, returned sorted.
pub fn choose(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut state = seed;
    let count = count.min(n);
    for i in 0..count {
        let j = i + (splitmix(&mut state) % (n - i) as u64) as usize;
        pool.swap(i, j);
    }
    let mut picked = pool[..count].to_vec();
    picked.sort_unstable();
    picked
}

/// The ballast-class count at quantile `u` of the stream's law (the
/// inverse CDF `CorpusStream` samples with).
fn bulk_quantile(u: f64, options: &StreamOptions) -> usize {
    let (min, max) = (options.min_bulk.max(1), options.max_bulk.max(1));
    ((min as f64 / (1.0 - u).sqrt()) as usize).clamp(min, max)
}

/// Apps wanted per `(network-free, bulk)` stratum in a tree of `n`.
fn strata(n: usize, options: &StreamOptions) -> BTreeMap<(bool, usize), usize> {
    let mut quota = BTreeMap::new();
    for k in 0..n {
        let bulk = bulk_quantile((k as f64 + 0.5) / n as f64, options);
        *quota.entry((k % 2 == 0, bulk)).or_insert(0) += 1;
    }
    quota
}

/// Stream indices of a stratified `n`-app tree, ascending.
pub fn stratified(
    stream: &CorpusStream,
    n: usize,
    options: &StreamOptions,
) -> Result<Vec<usize>, String> {
    let mut quota = strata(n, options);
    let mut left = n;
    let mut picked = Vec::with_capacity(n);
    for i in 0..stream.len() {
        if left == 0 {
            break;
        }
        let spec = stream.spec_at(i);
        if let Some(q) = quota.get_mut(&(spec.requests.is_empty(), spec.bulk)) {
            if *q > 0 {
                *q -= 1;
                left -= 1;
                picked.push(i);
            }
        }
    }
    if left > 0 {
        return Err(format!(
            "{left} stratum slot(s) unfilled after {} stream apps",
            stream.len()
        ));
    }
    Ok(picked)
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn expected_kinds(spec: &nck_appgen::AppSpec) -> Vec<&'static str> {
    let mut kinds: Vec<&'static str> = spec
        .expected_tool_report()
        .into_iter()
        .map(nchecker::kind_id)
        .collect();
    kinds.sort_unstable();
    kinds
}

pub fn main(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("seed")?;
    let apps: usize = args.num("apps")?;
    let churn: usize = args.num("churn")?;
    let waves: usize = args.num("waves")?;
    let out = Path::new(args.str("out")?);
    let options = StreamOptions::default();
    let stream = CorpusStream::with_options(seed, apps.saturating_mul(400), options);
    let index = stratified(&stream, apps, &options)?;

    let mut bundles: BTreeMap<String, Value> = BTreeMap::new();
    let mut record = |j: usize, v: u32, file: String, spec: &nck_appgen::AppSpec| {
        bundles.insert(
            format!("{j}:{v}"),
            json!({"file": file, "stream_index": index[j], "package": spec.package, "expect": expected_kinds(spec)}),
        );
    };
    for (j, &i) in index.iter().enumerate() {
        let spec = stream.spec_at(i);
        let bytes = nck_appgen::generate(&spec).to_bytes();
        let tree = sharded_path(&out.join("tree"), SHARDS, j);
        write(&tree, &bytes)?;
        write(&sharded_path(&out.join("revet"), SHARDS, j), &bytes)?;
        let file = tree
            .strip_prefix(out)
            .expect("tree paths live under --out")
            .to_string_lossy()
            .into_owned();
        record(j, 0, file, &spec);
    }

    // Churn plans: `revet` bumps a seeded set to version 1 once; the
    // daemon bumps a freshly seeded set by one version every wave.
    let revet_churn = choose(seed ^ 0x7e7e_7000, apps, churn);
    let mut versions = vec![0u32; apps];
    let mut needed: BTreeSet<(usize, u32)> = revet_churn.iter().map(|&i| (i, 1)).collect();
    let mut daemon_churn = Vec::with_capacity(waves);
    for k in 1..=waves {
        let set = choose(seed ^ 0xdae0_0000 ^ k as u64, apps, churn);
        for &i in &set {
            versions[i] += 1;
            needed.insert((i, versions[i]));
        }
        daemon_churn.push(set);
    }
    for &(j, v) in &needed {
        let spec = stream.version_at(index[j], v);
        let rel = format!("over/v{v}/app{j:06}.apk");
        write(&out.join(&rel), &nck_appgen::generate(&spec).to_bytes())?;
        record(j, v, rel, &spec);
    }

    let manifest = json!({
        "seed": seed as i64,
        "apps": apps,
        "shards": SHARDS,
        "churn": churn,
        "bundles": Value::Object(std::mem::take(&mut bundles)),
        "revet_churn": revet_churn,
        "daemon_churn": daemon_churn,
    });
    let text = serde_json::to_string(&manifest).expect("manifest serializes");
    write(&out.join("manifest.json"), text.as_bytes())?;
    Ok(
        serde_json::to_string(&json!({"bundles": apps + needed.len()}))
            .expect("summary serializes"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_trees_share_one_composition() {
        let options = StreamOptions::default();
        let profile = |seed| {
            let stream = CorpusStream::with_options(seed, 200 * 400, options);
            let picked = stratified(&stream, 200, &options).expect("strata fill");
            assert!(picked.windows(2).all(|w| w[0] < w[1]));
            let mut mix: Vec<(bool, usize)> = picked
                .iter()
                .map(|&i| {
                    let s = stream.spec_at(i);
                    (s.requests.is_empty(), s.bulk)
                })
                .collect();
            mix.sort_unstable();
            (picked, mix)
        };
        let (a, mix_a) = profile(1);
        let (b, mix_b) = profile(2);
        assert_ne!(a, b, "the seed picks the apps");
        assert_eq!(mix_a, mix_b, "the composition is fixed");
        assert_eq!(mix_a.iter().filter(|(clean, _)| *clean).count(), 100);
    }

    #[test]
    fn choose_is_seeded_distinct_and_sorted() {
        let a = choose(7, 1500, 45);
        assert_eq!(a.len(), 45);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a, choose(7, 1500, 45));
        assert_ne!(a, choose(8, 1500, 45));
        assert_eq!(choose(1, 3, 10), vec![0, 1, 2]);
    }
}
