//! `nck-svc`: the sharded batch-analysis service.
//!
//! NChecker's corpus experiments re-analyze thousands of app bundles,
//! and real deployments re-analyze *updated versions* of the same apps.
//! This crate packages the batch machinery those workloads share:
//!
//! - [`pool`] — the fault-tolerant worker pool, the one place analysis
//!   threads start (panics are contained per job; one adversarial
//!   bundle cannot take a run down),
//! - [`store`] — a sharded, content-addressed analysis cache with an
//!   in-memory tier (full replay seeds) and an optional on-disk tier
//!   (durable whole-report entries in the [`wire`] format),
//! - [`service`] — the [`service::AnalysisService`] façade gluing pool,
//!   store, and checker together behind a keyed batch API,
//! - [`daemon`] + [`protocol`] — the long-running `nchecker serve`
//!   front end: a bounded admission queue over the service, spoken to
//!   in line-delimited JSON over a Unix socket or stdio,
//! - [`watch`] — polling directory watcher feeding the daemon changed
//!   bundles (the `--watch` mode),
//! - [`orchestrator`] — the store-scale tier: partitions a corpus by
//!   content hash across worker *processes* (each an `nchecker serve
//!   --stdio` child spoken to over the wire protocol), with the shared
//!   disk cache as the coordination-free result tier,
//! - [`delta`] — defect deltas between versions of the same app
//!   (added / fixed / unchanged), computed on resubmission under a
//!   known key.
//!
//! The incremental contract, end to end: analyzing version *N+1* of a
//! bundle whose key was analyzed before replays every leading class
//! whose content fingerprint is unchanged (verification skipped, lift
//! replayed, per-method dataflow shared by `Arc`, interprocedural
//! summaries seeded and recomputed only for the transitive dirty set),
//! then re-runs the checkers in full — producing a report byte-identical
//! to a cold analysis of the same bytes.

pub mod daemon;
pub mod delta;
pub mod doctor;
pub mod orchestrator;
pub mod pool;
pub mod protocol;
pub mod service;
pub mod store;
pub mod watch;
pub mod wire;

pub use daemon::{Daemon, DaemonOptions};
pub use delta::{defect_id, diff_reports, DeltaReport};
pub use doctor::DoctorReport;
pub use orchestrator::{vet, OrchestratorOptions, ShardReport, VetOutcome, WorkerFleet};
pub use pool::{default_workers, run_pool};
pub use protocol::{ErrorCode, Request, MAX_REQUEST_LINE};
pub use service::{AnalysisService, AppOutcome, BatchCacheStats, ServiceOptions};
pub use store::{AnalysisStore, DiskStats, GcStats, RenderCell};
pub use watch::Watcher;
