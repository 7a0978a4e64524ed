//! Content-addressed analysis cache entries.
//!
//! One [`AppCacheEntry`] holds everything a later analysis of an
//! *updated version of the same app* can soundly reuse, keyed by
//! content: the bundle fingerprint for whole-report reuse, per-class
//! fingerprints for prefix replay of verify/lift/per-method dataflow,
//! and per-method call-resolution fingerprints plus the round-0 summary
//! snapshot for seeded interprocedural computation. Entries are only
//! ever written for *clean* (non-degraded) analyses: a degraded run has
//! skipped methods whose behaviour is unknown, which is no foundation to
//! replay anything on.
//!
//! The entry also carries the analysis-configuration fingerprint
//! ([`config_fingerprint`]): toggling any checker or bumping
//! [`ANALYSIS_VERSION`] changes the key, so stale semantics can never be
//! replayed into a differently-configured run.

use crate::checker::{AppReport, CheckerConfig};
use crate::context::MethodAnalysis;
use nck_dataflow::interproc::SummarySeed;
use nck_dex::fingerprint::Fnv;
use nck_ir::body::MethodId;
use nck_ir::lift::LiftSeed;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Version of the analysis semantics. Bump whenever a checker, the
/// lifter, the summary engine, or the report format changes meaning, so
/// persisted cache tiers from older builds miss instead of replaying
/// stale results. A change to how a report is *printed* under `--json`
/// bumps [`crate::json::RENDER_VERSION`] instead: disk entries store
/// that text and are checked against it.
pub const ANALYSIS_VERSION: u32 = 1;

/// Fingerprint of the analysis configuration: every [`CheckerConfig`]
/// toggle plus [`ANALYSIS_VERSION`]. Two runs may share cached results
/// only when these match.
pub fn config_fingerprint(config: &CheckerConfig) -> u64 {
    let mut h = Fnv::new();
    h.u32(ANALYSIS_VERSION);
    for (name, on) in [
        ("connectivity", config.connectivity),
        ("timeout", config.timeout),
        ("retry", config.retry),
        ("retry_params", config.retry_params),
        ("notification", config.notification),
        ("response", config.response),
        ("custom_retry", config.custom_retry),
        ("icc", config.icc),
        ("strict_connectivity", config.strict_connectivity),
        ("interproc", config.interproc),
        ("targeted", config.targeted),
    ] {
        h.str(name).u32(u32::from(on));
    }
    match config.strict_caller_depth {
        Some(d) => h.str("strict_caller_depth").u64(d as u64),
        None => h.str("strict_caller_depth_none"),
    };
    h.finish()
}

/// Everything one clean analysis run leaves behind for the next version
/// of the same app.
///
/// Only the seeded pipeline fills the replay fields. Every other entry —
/// a plain-pipeline miss (targeted mode, or no memory tier) or a disk
/// hit promoted into memory — is *report-only*: the fingerprints and the
/// report (whole-report reuse). The `Default` impl exists for exactly
/// that shape.
#[derive(Debug, Clone, Default)]
pub struct AppCacheEntry {
    /// FNV-1a of the raw bundle bytes: an exact match (plus config
    /// match) short-circuits to the cached report.
    pub bundle_fp: u64,
    /// The configuration fingerprint this entry was computed under.
    pub config_fp: u64,
    /// Canonical per-class content fingerprints
    /// ([`nck_dex::class_fingerprints`]), in file order.
    pub class_fps: Vec<u64>,
    /// Lift replay data for the class prefix.
    pub lift_seed: LiftSeed,
    /// Per-method call-resolution fingerprints
    /// ([`crate::context::callee_fingerprints`]).
    pub callee_fps: Vec<u64>,
    /// Per-method dataflow artifacts, shared by `Arc` so reuse is a
    /// pointer copy. Memory-tier only: these are derived wholly from the
    /// replayed bodies and are cheap to recompute relative to their
    /// serialized size.
    pub analyses: BTreeMap<MethodId, Arc<MethodAnalysis>>,
    /// Round-0 interprocedural summary snapshot.
    pub summary_seed: SummarySeed,
    /// The finished (unsealed: no trace/metrics) report.
    pub report: AppReport,
}

impl AppCacheEntry {
    /// Approximate resident size of this entry, in bytes.
    ///
    /// Structural accounting, not deep measurement: each retained
    /// artifact class is charged a calibrated per-item cost (a
    /// `MethodAnalysis` holds a CFG plus per-statement dataflow facts; a
    /// lift-seed class holds replayable bodies; a report defect carries
    /// strings and a provenance chain). The absolute numbers are rough
    /// by design — what matters for a byte-budgeted LRU is that an app
    /// with 50× the methods is charged ~50× the bytes, so one batch of
    /// huge apps cannot hide behind an entry-count cap.
    pub fn approx_bytes(&self) -> usize {
        const ENTRY_OVERHEAD: usize = 512;
        const PER_CLASS: usize = 384; // lift-seed share: replayable class body
        const PER_METHOD_ANALYSIS: usize = 4096; // CFG + per-stmt dataflow facts
        const PER_CALLEE_FP: usize = 16;
        const PER_DEFECT: usize = 768; // message, fix, call stack, provenance
        const PER_SKIP: usize = 256;
        ENTRY_OVERHEAD
            + self.class_fps.len() * PER_CLASS
            + self.callee_fps.len() * PER_CALLEE_FP
            + self.analyses.len() * PER_METHOD_ANALYSIS
            + self.report.defects.len() * PER_DEFECT
            + self.report.skipped_methods.len() * PER_SKIP
    }
}

/// What the cache ladder did for one app, for hit-rate reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// The whole cached report was returned (identical bundle + config).
    pub whole_report: bool,
    /// Classes in the analyzed bundle (seeded pipeline only).
    pub classes_total: usize,
    /// Leading classes replayed from the cache (verify + lift skipped).
    pub classes_reused: usize,
    /// The analysis degraded, so nothing was reused or written back.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_fingerprint_is_sensitive_to_every_toggle() {
        let base = CheckerConfig::default();
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&base), "deterministic");

        let mut variants: Vec<CheckerConfig> = Vec::new();
        macro_rules! flip {
            ($($field:ident),*) => {
                $( {
                    let mut c = base;
                    c.$field = !c.$field;
                    variants.push(c);
                } )*
            };
        }
        flip!(
            connectivity,
            timeout,
            retry,
            retry_params,
            notification,
            response,
            custom_retry,
            icc,
            strict_connectivity,
            interproc,
            targeted
        );
        let mut c = base;
        c.strict_caller_depth = Some(3);
        variants.push(c);

        let mut fps: Vec<u64> = variants.iter().map(config_fingerprint).collect();
        fps.push(fp);
        let distinct: std::collections::BTreeSet<u64> = fps.iter().copied().collect();
        assert_eq!(distinct.len(), fps.len(), "every toggle moves the key");
    }

    #[test]
    fn approx_bytes_scales_with_retained_artifacts() {
        let empty = AppCacheEntry::default();
        assert!(empty.approx_bytes() > 0, "overhead is always charged");
        let big = AppCacheEntry {
            class_fps: vec![0; 100],
            callee_fps: vec![0; 50],
            ..AppCacheEntry::default()
        };
        assert!(big.approx_bytes() > empty.approx_bytes());
        let bigger = AppCacheEntry {
            class_fps: vec![0; 10_000],
            ..AppCacheEntry::default()
        };
        assert!(
            bigger.approx_bytes() > 50 * empty.approx_bytes(),
            "size scales with artifact counts, not entry count"
        );
    }
}
