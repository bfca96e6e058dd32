//! Discrete-event cluster simulator.
//!
//! The paper runs §8.3 on a physical 64-GPU testbed and everything larger
//! in a simulator validated against it (3.16% throughput error, §8.3).
//! This crate is that simulator: it owns time, the cluster books, job
//! lifecycles (queue → profile/explore → run → restart → finish), and
//! metric collection, and drives any [`arena_sched::Policy`]:
//!
//! * **Events**: job arrivals from a trace, job completions, node
//!   failures and repairs, and periodic scheduling rounds (5 minutes,
//!   §7).
//! * **Plan acquisition**: when the policy places a job the simulator
//!   prices the placement through the
//!   [`PlanService`](arena_sched::PlanService) — full adaptive
//!   exploration for baselines, Cell estimation + pruned tuning for
//!   Arena — and delays the job's progress by the restart overhead plus
//!   that acquisition wall-clock.
//! * **Metrics**: JCT / queueing statistics, a normalised
//!   cluster-throughput timeline, restart counts, deadline satisfaction
//!   and the policy's own decision latency (Fig. 21a).
//!
//! [`Engine`] is the one event loop; [`Sim`] drives it over a whole
//! trace (batch) or a [`arena_trace::TraceSource`] (streaming), and the
//! `arena-server` daemon drives it one command at a time.

pub mod driver;
pub mod engine;
mod heap;
pub mod metrics;
pub mod shard;
mod store;

pub use arena_obs::{
    Decision, DecisionKind, JobAccount, JobEventKind, JobState, MetricsRegistry, Obs, StopCause,
    Timeline, TraceReport, UtilSample,
};
pub use driver::Sim;
pub use engine::{
    Engine, EngineState, InputError, JobPhase, JobStatus, PoolSnapshot, SimConfig, SimResult,
};
pub use metrics::{
    record_fingerprint, DecisionStats, FaultLog, FoldedRecords, JobRecord, Metrics, StreamSummary,
};
pub use shard::ShardPlan;
