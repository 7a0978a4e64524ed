//! Cold/warm differential tests: the incremental path must be
//! *invisible* in the output. Whatever the cache did — whole-report
//! reuse, class-prefix replay after an app update, disk-tier restore —
//! the rendered report must be byte-identical to a cold analysis of the
//! same bytes.

use nchecker::app_report_to_json;
use nchecker::AppReport;
use nck_appgen::spec::{AppSpec, ConnCheck, Notification, Origin, RequestSpec, RespCheck};
use nck_appgen::{evolve, generate_with_bulk, profile};
use nck_netlibs::api::HttpMethod;
use nck_netlibs::library::{Library, ALL_LIBRARIES};
use nck_obs::Obs;
use nck_svc::{AnalysisService, ServiceOptions};
use proptest::prelude::*;

/// The byte-identity comparison surface: the same JSON rendering the
/// CLI emits under `--json` (observability disabled, so no volatile
/// timing fields).
fn render(r: &AppReport) -> String {
    serde_json::to_string(&app_report_to_json(r)).expect("report renders")
}

fn service() -> AnalysisService {
    AnalysisService::new(ServiceOptions::default(), Obs::disabled())
}

fn suite(n: usize, bulk: usize, seed: u64) -> (Vec<AppSpec>, Vec<(String, Vec<u8>)>) {
    let specs: Vec<AppSpec> = profile::corpus(seed).into_iter().take(n).collect();
    let items = specs
        .iter()
        .map(|s| (s.package.clone(), generate_with_bulk(s, bulk).to_bytes()))
        .collect();
    (specs, items)
}

#[test]
fn identical_bundles_hit_whole_report_and_match_cold() {
    let (_, items) = suite(16, 2, 2016);
    let svc = service();
    let cold = svc.analyze_batch(&items);
    let warm = svc.analyze_batch(&items);
    for ((c, w), (key, _)) in cold.iter().zip(&warm).zip(&items) {
        let c = c.report.as_ref().expect("cold analyzes");
        let w = w.report.as_ref().expect("warm analyzes");
        assert_eq!(render(c), render(w), "{key}: warm must equal cold");
    }
    let stats = AnalysisService::batch_stats(&warm);
    assert_eq!(stats.hits, 16, "every re-analysis is a whole-report hit");
    assert_eq!(stats.misses, 0);
}

#[test]
fn updated_bundles_replay_prefixes_and_match_cold() {
    let (specs, v1) = suite(16, 8, 2016);
    let v2: Vec<(String, Vec<u8>)> = specs
        .iter()
        .map(|s| {
            let e = evolve(s, 0.10, 7);
            (s.package.clone(), generate_with_bulk(&e.spec, 8).to_bytes())
        })
        .collect();

    // Warm: analyze v1 to populate the cache, then the updates.
    let warm_svc = service();
    let _ = warm_svc.analyze_batch(&v1);
    let warm = warm_svc.analyze_batch(&v2);
    // Cold: a fresh service sees v2 first.
    let cold = service().analyze_batch(&v2);

    let mut reused = 0usize;
    for ((w, c), (key, _)) in warm.iter().zip(&cold).zip(&v2) {
        let wr = w.report.as_ref().expect("warm analyzes");
        let cr = c.report.as_ref().expect("cold analyzes");
        assert_eq!(render(cr), render(wr), "{key}: update must match cold");
        assert!(
            !w.reuse.whole_report,
            "{key}: an updated bundle cannot be a whole-report hit"
        );
        reused += w.reuse.classes_reused;
    }
    // The ballast prefix (8 classes per app) is unchanged by an update,
    // so substantial class-level reuse must show up.
    assert!(
        reused >= 8 * specs.len(),
        "expected at least the ballast prefix reused, got {reused}"
    );
}

#[test]
fn disk_tier_serves_identical_bundles_across_restarts() {
    let dir = std::env::temp_dir().join(format!("nck-svc-disk-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, items) = suite(4, 1, 99);
    let opts = || ServiceOptions {
        cache_dir: Some(dir.clone()),
        ..ServiceOptions::default()
    };

    let first = AnalysisService::new(opts(), Obs::disabled());
    let cold = first.analyze_batch(&items);
    drop(first);

    // A fresh service (fresh memory tier) must restore from disk.
    let second = AnalysisService::new(opts(), Obs::disabled());
    let warm = second.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&warm);
    assert_eq!(stats.hits, 4, "all served from the disk tier");
    for ((c, w), (key, _)) in cold.iter().zip(&warm).zip(&items) {
        assert_eq!(
            render(c.report.as_ref().unwrap()),
            render(w.report.as_ref().unwrap()),
            "{key}: disk restore must be faithful"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_mode_stores_nothing_and_matches_cached_output() {
    let (_, items) = suite(4, 1, 7);
    let plain = AnalysisService::new(
        ServiceOptions {
            mem_budget: Some(0),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    let cached = service();
    let a = plain.analyze_batch(&items);
    let b = cached.analyze_batch(&items);
    for ((x, y), (key, _)) in a.iter().zip(&b).zip(&items) {
        assert_eq!(
            render(x.report.as_ref().unwrap()),
            render(y.report.as_ref().unwrap()),
            "{key}: cache must not change output"
        );
    }
    assert!(plain.store().is_empty(), "no-cache mode must not store");
    assert_eq!(cached.store().len(), 4);
}

/// The cache ladder in every service shape — memory tier, memory plus
/// disk, disk only, no tier — over a cold batch, an identical
/// resubmission and a churned one: every report renders the cold bytes,
/// a hit carries the same reuse stats whichever tier served it, and
/// only a memory tier replays class prefixes.
#[test]
fn every_service_shape_serves_the_cold_bytes() {
    let (specs, v1) = suite(8, 4, 2016);
    let v2: Vec<(String, Vec<u8>)> = specs
        .iter()
        .map(|s| {
            let e = evolve(s, 0.10, 7);
            (s.package.clone(), generate_with_bulk(&e.spec, 4).to_bytes())
        })
        .collect();
    let renders = |outcomes: &[nck_svc::AppOutcome]| -> Vec<String> {
        outcomes
            .iter()
            .map(|o| render(o.report.as_ref().expect("app analyzes")))
            .collect()
    };
    let tierless = || {
        AnalysisService::new(
            ServiceOptions {
                mem_budget: Some(0),
                ..ServiceOptions::default()
            },
            Obs::disabled(),
        )
    };
    let cold_v1 = renders(&tierless().analyze_batch(&v1));
    let cold_v2 = renders(&tierless().analyze_batch(&v2));

    let dir = std::env::temp_dir().join(format!("nck-svc-ladder-{}", std::process::id()));
    let mut hit_reuse = Vec::new();
    for (shape, mem_budget, disk) in [
        ("memory", None, false),
        ("memory+disk", None, true),
        ("disk", Some(0), true),
        ("none", Some(0), false),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        let svc = AnalysisService::new(
            ServiceOptions {
                mem_budget,
                cache_dir: disk.then(|| dir.clone()),
                ..ServiceOptions::default()
            },
            Obs::disabled(),
        );
        let cached = mem_budget.is_none() || disk;
        let cold = svc.analyze_batch(&v1);
        let same = svc.analyze_batch(&v1);
        let churned = svc.analyze_batch(&v2);
        assert_eq!(renders(&cold), cold_v1, "{shape}: cold");
        assert_eq!(renders(&same), cold_v1, "{shape}: identical resubmission");
        assert_eq!(renders(&churned), cold_v2, "{shape}: churned resubmission");

        let n = v1.len();
        assert_eq!(AnalysisService::batch_stats(&cold).misses, n, "{shape}");
        let hits = AnalysisService::batch_stats(&same).hits;
        assert_eq!(hits, if cached { n } else { 0 }, "{shape}: hits");
        assert_eq!(AnalysisService::batch_stats(&churned).misses, n, "{shape}");
        if cached {
            hit_reuse.extend(same.iter().map(|o| (shape, o.reuse)));
        }
        for o in &churned {
            assert_eq!(o.delta.is_some(), cached, "{shape}: a known key diffs");
        }
        let replayed = churned
            .iter()
            .map(|o| o.reuse.classes_reused)
            .sum::<usize>();
        if mem_budget.is_none() {
            assert!(replayed > 0, "{shape}: a memory tier replays prefixes");
        } else {
            assert_eq!(replayed, 0, "{shape}: no memory tier, no replay");
        }
    }
    let (_, first) = hit_reuse[0];
    assert!(first.whole_report);
    for (shape, reuse) in &hit_reuse {
        assert_eq!(*reuse, first, "{shape}: one hit shape for every tier");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Worker-count independence: the batch pool, the one place analysis
/// threads start, must be invisible in the output. Four runs at
/// different `--jobs` settings (fresh service each time, cache off, so
/// nothing is reused between runs) must render byte-identical reports
/// for every app.
#[test]
fn reports_are_byte_identical_across_jobs() {
    let (_, items) = suite(16, 2, 2016);
    let run = |jobs: usize| -> Vec<String> {
        let svc = AnalysisService::new(
            ServiceOptions {
                jobs: Some(jobs),
                mem_budget: Some(0),
                ..ServiceOptions::default()
            },
            Obs::disabled(),
        );
        svc.analyze_batch(&items)
            .iter()
            .map(|o| render(o.report.as_ref().expect("app analyzes")))
            .collect()
    };
    let baseline = run(1);
    for jobs in [2usize, 4, 8] {
        let got = run(jobs);
        for ((b, g), (key, _)) in baseline.iter().zip(&got).zip(&items) {
            assert_eq!(b, g, "{key}: --jobs {jobs} diverged from --jobs 1");
        }
    }
}

/// Degraded apps (any skipped method) must analyze deterministically
/// but never populate the cache: a skipped method is unknown behaviour,
/// not replayable truth.
#[test]
fn degraded_apps_bypass_the_cache_write_path() {
    let spec = AppSpec::new(
        "com.svc.broken",
        vec![RequestSpec::new(
            Library::BasicHttpClient,
            Origin::UserClick,
        )],
    );
    let mut apk = nck_appgen::generate(&spec);
    // Graft a method whose body touches a register outside its frame:
    // method-scoped verify damage, so analysis degrades instead of
    // failing.
    let adx = &mut apk.adx;
    let class_ty = adx.classes[0].ty;
    let void = adx.pools.type_("V");
    let proto = adx.pools.proto(void, vec![]);
    let name = adx.pools.string("broken");
    let method = adx.pools.method(class_ty, proto, name);
    adx.classes[0].methods.push(nck_dex::MethodDef {
        method,
        flags: nck_dex::AccessFlags::PUBLIC,
        code: Some(nck_dex::CodeItem {
            registers: 1,
            ins: 0,
            insns: vec![
                nck_dex::Insn::Move {
                    dst: nck_dex::Reg(9),
                    src: nck_dex::Reg(0),
                },
                nck_dex::Insn::Return { src: None },
            ],
            tries: vec![],
        }),
    });
    let bytes = apk.to_bytes();

    let svc = service();
    let first = svc.analyze_one("com.svc.broken", &bytes);
    let r1 = first.report.as_ref().expect("degrades, not fails");
    assert!(r1.degraded());
    assert!(first.reuse.degraded);
    assert!(svc.store().is_empty(), "degraded app must not be cached");

    let second = svc.analyze_one("com.svc.broken", &bytes);
    let r2 = second.report.as_ref().expect("degrades, not fails");
    assert!(!second.reuse.whole_report, "nothing cached to hit");
    assert_eq!(render(r1), render(r2), "degraded analysis is deterministic");
    assert!(svc.store().is_empty());
}

/// Analysis-mode isolation: a report computed in full mode must never be
/// served to a targeted-mode run (or vice versa), on either cache tier.
/// The two modes are report-equivalent by construction, but a cache that
/// conflated them would silently paper over any divergence — so the
/// config fingerprint must keep their entries apart.
#[test]
fn targeted_and_full_mode_never_share_cache_entries() {
    use nchecker::CheckerConfig;
    let dir = std::env::temp_dir().join(format!("nck-svc-mode-isolation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, items) = suite(4, 1, 41);
    let opts = |targeted: bool| ServiceOptions {
        config: CheckerConfig {
            targeted,
            ..CheckerConfig::default()
        },
        cache_dir: Some(dir.clone()),
        ..ServiceOptions::default()
    };

    // Full mode populates both tiers.
    let full = AnalysisService::new(opts(false), Obs::disabled());
    let cold_full = full.analyze_batch(&items);
    drop(full);

    // A targeted service over the same disk tier must miss everything:
    // the full-mode entries carry a different config fingerprint.
    let targeted = AnalysisService::new(opts(true), Obs::disabled());
    let cold_targeted = targeted.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&cold_targeted);
    assert_eq!(stats.hits, 0, "full-mode cache must not serve targeted");
    assert_eq!(stats.misses, 4);
    // Targeted misses run the plain pipeline even with a memory tier:
    // their entries hold the report, no replay seeds.
    for (key, _) in &items {
        let entry = targeted
            .store()
            .lookup(key, &Obs::disabled())
            .expect("targeted miss recorded in memory");
        assert!(entry.class_fps.is_empty(), "{key}: no class fingerprints");
        assert!(entry.analyses.is_empty(), "{key}: no method analyses");
    }
    drop(targeted);

    // Targeted entries were written under their own key: a fresh
    // targeted service hits, and a fresh full service still misses.
    let targeted2 = AnalysisService::new(opts(true), Obs::disabled());
    let warm_targeted = targeted2.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&warm_targeted);
    assert_eq!(stats.hits, 4, "targeted entries serve targeted runs");
    let full2 = AnalysisService::new(opts(false), Obs::disabled());
    let warm_full = full2.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&warm_full);
    assert_eq!(stats.hits, 4, "full entries survive alongside targeted");

    // And the whole point of the equivalence: all four runs rendered the
    // same report for every app.
    for (((f, t), w), (key, _)) in cold_full
        .iter()
        .zip(&cold_targeted)
        .zip(&warm_targeted)
        .zip(&items)
    {
        let f = render(f.report.as_ref().unwrap());
        assert_eq!(f, render(t.report.as_ref().unwrap()), "{key}: modes agree");
        assert_eq!(f, render(w.report.as_ref().unwrap()), "{key}: warm agrees");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn arb_library() -> impl Strategy<Value = Library> {
    (0usize..ALL_LIBRARIES.len()).prop_map(|i| ALL_LIBRARIES[i])
}

fn arb_origin() -> impl Strategy<Value = Origin> {
    prop_oneof![
        Just(Origin::UserClick),
        Just(Origin::ActivityLifecycle),
        Just(Origin::Service),
    ]
}

fn arb_conn() -> impl Strategy<Value = ConnCheck> {
    prop_oneof![
        Just(ConnCheck::Missing),
        Just(ConnCheck::Guarding),
        Just(ConnCheck::UnusedResult),
        Just(ConnCheck::InterComponent),
        Just(ConnCheck::GuardingViaHelper),
    ]
}

fn arb_notification() -> impl Strategy<Value = Notification> {
    prop_oneof![
        Just(Notification::Missing),
        Just(Notification::Alert),
        Just(Notification::InterComponent),
    ]
}

prop_compose! {
    fn arb_request()(
        library in arb_library(),
        origin in arb_origin(),
        post in any::<bool>(),
        conn_check in arb_conn(),
        set_timeout in any::<bool>(),
        set_retries in prop_oneof![Just(None), Just(Some(0u32)), Just(Some(2u32))],
        notification in arb_notification(),
        check_error_types in any::<bool>(),
        resp in 0u8..3,
    ) -> RequestSpec {
        let mut r = RequestSpec::new(library, origin);
        r.http_method = if post { HttpMethod::Post } else { HttpMethod::Get };
        r.conn_check = conn_check;
        r.set_timeout = set_timeout;
        r.set_retries = set_retries;
        r.notification = notification;
        r.check_error_types = check_error_types;
        if library.has_response_check_api() {
            r.response = match resp {
                0 => RespCheck::NotUsed,
                1 => RespCheck::Checked,
                _ => RespCheck::Unchecked,
            };
        }
        // Volley couples timeout and retry in one policy object.
        if library == Library::Volley {
            r.set_timeout = r.set_retries.is_some();
        }
        r
    }
}

prop_compose! {
    fn arb_spec()(
        requests in prop::collection::vec(arb_request(), 1..3),
        tag in 0u32..1_000_000,
    ) -> AppSpec {
        AppSpec::new(&format!("com.prop.app{tag}"), requests)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary specs and arbitrary updates: analyzing v1 then v2
    /// through one cached service yields byte-identical v2 output to a
    /// fresh cold service.
    #[test]
    fn warm_reanalysis_of_an_update_matches_cold(
        spec in arb_spec(),
        bulk in 0usize..4,
        evolve_seed in any::<u64>(),
    ) {
        let v1 = generate_with_bulk(&spec, bulk).to_bytes();
        let e = evolve(&spec, 0.34, evolve_seed);
        let v2 = generate_with_bulk(&e.spec, bulk).to_bytes();

        let warm_svc = service();
        let _ = warm_svc.analyze_one(&spec.package, &v1);
        let warm = warm_svc.analyze_one(&spec.package, &v2);
        let cold = service().analyze_one(&spec.package, &v2);

        prop_assert_eq!(
            render(cold.report.as_ref().expect("cold analyzes")),
            render(warm.report.as_ref().expect("warm analyzes"))
        );
    }
}
