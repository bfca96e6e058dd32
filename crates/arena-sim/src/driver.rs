//! [`Sim`]: the one batch and streaming driver over [`Engine`].
//!
//! A batch run loads a whole trace up front, closes the input and drains
//! the engine. A streaming run pulls arrivals one at a time from an
//! [`arena_trace::TraceSource`], injecting each through the burst-window
//! seam ([`Engine::advance_before`]) so the pending queue holds at most
//! one undelivered job, and runs the engine in record-fold mode
//! ([`Engine::enable_record_fold`]): a terminal job folds into a
//! constant-memory aggregate and its job-table slot is reclaimed, so
//! resident memory follows the *live* job count, not the trace length.
//! Both go through the engine's own input checks ([`Engine::submit`],
//! [`Engine::inject_fault`]), the same ones the daemon applies.
//!
//! **Equivalence.** The streaming interleaving is exactly the one the
//! burst-window lemma licenses (see [`crate::engine`]), and folding only
//! ever touches jobs every engine path already treats as inert — so a
//! streaming run schedules byte-identically to a batch run of the same
//! trace. [`StreamSummary::fingerprint`] is an order-free hash over
//! per-job records, comparable against [`crate::record_fingerprint`] of
//! the batch run's records; `tests/streaming_identity.rs` pins the
//! identity across policies, shard counts and fault schedules.

use std::io;

use arena_cluster::Cluster;
use arena_obs::Obs;
use arena_sched::{PlanService, Policy};
use arena_trace::{FaultEvent, JobSpec, TraceSource};

use crate::engine::{Engine, InputError, SimConfig, SimResult};
use crate::metrics::StreamSummary;
use crate::shard::ShardPlan;

/// Runs a policy over a workload on a cluster.
///
/// Optional parts default to no faults, a disabled [`Obs`] and one
/// executor shard with sequential workers. The shard plan is an
/// execution knob only: output is byte-identical at any shard count.
///
/// # Examples
///
/// ```
/// use arena_cluster::presets;
/// use arena_perf::CostParams;
/// use arena_sched::{FcfsPolicy, PlanService};
/// use arena_sim::{Sim, SimConfig};
/// use arena_trace::{generate, TraceConfig, TraceKind};
///
/// let cluster = presets::physical_testbed();
/// let service = PlanService::new(&cluster, CostParams::default(), 1);
/// let trace = TraceConfig::new(TraceKind::PaiLow, 1800.0, 64, vec![48.0, 24.0]);
/// let jobs = generate(&trace);
/// let cfg = SimConfig::new(24.0 * 3600.0);
/// let result = Sim::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg)
///     .run(&jobs)
///     .expect("generated traces are valid");
/// assert_eq!(
///     result.metrics.finished + result.metrics.dropped + result.metrics.unfinished,
///     jobs.len()
/// );
/// ```
pub struct Sim<'a> {
    cluster: &'a Cluster,
    policy: &'a mut dyn Policy,
    service: &'a PlanService,
    cfg: &'a SimConfig,
    faults: &'a [FaultEvent],
    obs: Obs,
    plan: Option<&'a ShardPlan>,
}

impl<'a> Sim<'a> {
    /// A fault-free, untraced, single-shard run.
    #[must_use]
    pub fn new(
        cluster: &'a Cluster,
        policy: &'a mut dyn Policy,
        service: &'a PlanService,
        cfg: &'a SimConfig,
    ) -> Self {
        Sim {
            cluster,
            policy,
            service,
            cfg,
            faults: &[],
            obs: Obs::disabled(),
            plan: None,
        }
    }

    /// Injects a node-failure schedule, sorted by time (see
    /// [`arena_trace::generate_faults`]).
    ///
    /// A `Failure` marks the node failed, evicts every job whose
    /// allocation touches it, rolls each victim back to its last
    /// checkpoint (`checkpoint_interval_s`), requeues it and notifies the
    /// policy; a `Repair` restores the node's capacity. An empty schedule
    /// is exactly a fault-free run.
    #[must_use]
    pub fn faults(mut self, faults: &'a [FaultEvent]) -> Self {
        self.faults = faults;
        self
    }

    /// Records decision provenance, spans, counters and gauges into
    /// `obs`; a batch run returns the report in [`SimResult::trace`].
    /// Engine-side provenance — node-failure evictions, capacity races,
    /// infeasible placements — is recorded as
    /// [`arena_obs::DecisionKind::Requeue`] decisions.
    #[must_use]
    pub fn obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Partitions the cluster into executor shards and runs per-shard
    /// work on the plan's worker pool.
    #[must_use]
    pub fn plan(mut self, plan: &'a ShardPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    fn engine(self) -> Engine<'a> {
        let single;
        let plan = match self.plan {
            Some(plan) => plan,
            None => {
                single = ShardPlan::per_pool(self.cluster).with_shards(1);
                &single
            }
        };
        Engine::new(
            self.cluster,
            self.policy,
            self.service,
            self.cfg,
            &self.obs,
            plan,
        )
    }

    /// Runs a whole trace, sorted by submission time, to completion or
    /// the horizon.
    ///
    /// # Errors
    ///
    /// Returns the first job or fault the engine refuses (see
    /// [`Engine::submit`] and [`Engine::inject_fault`]): unsorted or
    /// non-finite times, negative submission times, unknown pools or
    /// nodes, duplicate job ids.
    pub fn run(self, jobs: &[JobSpec]) -> Result<SimResult, InputError> {
        let faults = self.faults;
        let mut engine = self.engine();
        for job in jobs {
            engine.submit(job.clone())?;
        }
        for fault in faults {
            engine.inject_fault(fault.clone())?;
        }
        engine.close_input();
        engine.run_to_end();
        Ok(engine.finish())
    }

    /// Streams a trace through the engine in bounded memory: arrivals
    /// merge with the fault schedule in time order, the engine advancing
    /// up to (but never past) each injection point; once the source runs
    /// dry the remaining faults load up front and the run drains exactly
    /// as a batch run's does. The fault schedule stays a slice: its
    /// length follows cluster size × horizon, not trace length.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the source. An input the engine
    /// refuses (see [`Sim::run`]) is an [`io::ErrorKind::InvalidData`]
    /// error wrapping the [`InputError`].
    pub fn stream(self, source: &mut dyn TraceSource) -> io::Result<StreamSummary> {
        let invalid = |e: InputError| io::Error::new(io::ErrorKind::InvalidData, e);
        let faults = self.faults;
        let mut engine = self.engine();
        engine.enable_record_fold();
        let mut fault_idx = 0;
        while let Some(spec) = source.next_job()? {
            // Faults strictly earlier than this arrival inject first,
            // each through its own burst-window seam; a fault tied with
            // the arrival can wait (both land in their pending queue
            // before the burst that consumes them fires).
            while let Some(fault) = faults.get(fault_idx).filter(|f| f.time_s < spec.submit_s) {
                fault_idx += 1;
                engine.advance_before(fault.time_s);
                engine.inject_fault(fault.clone()).map_err(invalid)?;
            }
            engine.advance_before(spec.submit_s);
            engine.submit(spec).map_err(invalid)?;
        }
        // Source exhausted: the input closes *before* the drain, as in
        // a batch run, so a drained run stops even with later faults
        // still pending.
        for fault in &faults[fault_idx..] {
            engine.inject_fault(fault.clone()).map_err(invalid)?;
        }
        engine.close_input();
        engine.run_to_end();
        Ok(engine.finish_stream())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_fingerprint;
    use arena_cluster::presets;
    use arena_model::zoo::{ModelConfig, ModelFamily};
    use arena_obs::{JobEventKind, StopCause};
    use arena_perf::CostParams;
    use arena_sched::{ArenaPolicy, FcfsPolicy, GavelPolicy};
    use arena_trace::{FaultKind, VecSource};

    fn tiny_trace() -> Vec<JobSpec> {
        let mk = |id: u64, submit: f64, size: f64, gpus: usize, iters: u64| JobSpec {
            id,
            name: format!("j{id}"),
            submit_s: submit,
            model: ModelConfig::new(ModelFamily::Bert, size, 256),
            iterations: iters,
            requested_gpus: gpus,
            requested_pool: 0,
            deadline_s: None,
        };
        vec![
            mk(0, 0.0, 0.76, 4, 300),
            mk(1, 100.0, 1.3, 8, 200),
            mk(2, 200.0, 0.76, 2, 400),
            mk(3, 2000.0, 1.3, 4, 200),
        ]
    }

    /// Fails `nodes` nodes of pool 0 at `fail_t`, repairs them at
    /// `repair_t`.
    fn pool0_outage(fail_t: f64, repair_t: f64, nodes: usize) -> Vec<FaultEvent> {
        let event = |time_s, node, kind| FaultEvent {
            time_s,
            pool: 0,
            node,
            kind,
        };
        let mut evs: Vec<FaultEvent> = (0..nodes)
            .map(|n| event(fail_t, n, FaultKind::Failure))
            .collect();
        evs.extend((0..nodes).map(|n| event(repair_t, n, FaultKind::Repair)));
        evs
    }

    /// Runs `tiny_trace` on the testbed under `cfg` and `faults`.
    fn run_with(
        policy: &mut dyn Policy,
        cfg: &SimConfig,
        faults: &[FaultEvent],
        obs: &Obs,
    ) -> SimResult {
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 11);
        Sim::new(&cluster, policy, &service, cfg)
            .faults(faults)
            .obs(obs)
            .run(&tiny_trace())
            .expect("valid trace")
    }

    fn run(policy: &mut dyn Policy) -> SimResult {
        let cfg = SimConfig::new(48.0 * 3600.0);
        run_with(policy, &cfg, &[], &Obs::disabled())
    }

    #[test]
    fn fcfs_finishes_everything() {
        let r = run(&mut FcfsPolicy::new());
        assert_eq!(r.metrics.finished, 4, "records: {:#?}", r.records);
        assert_eq!(r.metrics.dropped, 0);
        assert_eq!(r.metrics.unfinished, 0);
        for rec in &r.records {
            let jct = rec.jct_s().unwrap();
            assert!(jct > 0.0);
            let q = rec.queue_s().unwrap();
            assert!(q >= 0.0 && q <= jct);
        }
    }

    #[test]
    fn arena_finishes_everything_and_beats_or_matches_fcfs_jct() {
        let fcfs = run(&mut FcfsPolicy::new());
        let arena = run(&mut ArenaPolicy::new());
        assert_eq!(arena.metrics.finished, 4);
        // On this under-loaded toy trace both finish everything; Arena
        // must not be wildly worse despite its profiling delays.
        assert!(
            arena.metrics.avg_jct_s < 2.5 * fcfs.metrics.avg_jct_s,
            "arena {} vs fcfs {}",
            arena.metrics.avg_jct_s,
            fcfs.metrics.avg_jct_s
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run(&mut GavelPolicy::new());
        let b = run(&mut GavelPolicy::new());
        assert_eq!(a.metrics.avg_jct_s, b.metrics.avg_jct_s);
        assert_eq!(a.metrics.finished, b.metrics.finished);
        assert_eq!(a.timeline.len(), b.timeline.len());
    }

    #[test]
    fn timeline_is_sampled_and_bounded() {
        let r = run(&mut FcfsPolicy::new());
        assert!(!r.timeline.is_empty());
        for &(time, v) in &r.timeline {
            assert!(time >= 0.0);
            // Normalised throughput of 4 jobs can never exceed ~4 plus
            // noise slack.
            assert!((0.0..=5.0).contains(&v), "throughput {v} at {time}");
        }
    }

    #[test]
    fn horizon_cuts_off_unfinished_jobs() {
        let cfg = SimConfig::new(2500.0);
        let r = run_with(&mut FcfsPolicy::new(), &cfg, &[], &Obs::disabled());
        assert!(r.metrics.finished < 4);
        assert_eq!(
            r.metrics.finished + r.metrics.unfinished + r.metrics.dropped,
            4
        );
    }

    #[test]
    fn slower_checkpoints_stretch_jcts() {
        let go = |bw: f64| {
            let mut cfg = SimConfig::new(48.0 * 3600.0);
            cfg.checkpoint_bw_bps = bw;
            run_with(&mut FcfsPolicy::new(), &cfg, &[], &Obs::disabled())
        };
        let fast = go(20.0e9);
        let slow = go(0.1e9);
        assert!(
            slow.metrics.avg_jct_s > fast.metrics.avg_jct_s,
            "slow {} <= fast {}",
            slow.metrics.avg_jct_s,
            fast.metrics.avg_jct_s
        );
    }

    #[test]
    fn empty_fault_schedule_matches_fault_free_run() {
        let a = run(&mut FcfsPolicy::new());
        let cfg = SimConfig::new(48.0 * 3600.0);
        let b = run_with(&mut FcfsPolicy::new(), &cfg, &[], &Obs::disabled());
        assert_eq!(a.metrics.avg_jct_s, b.metrics.avg_jct_s);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(b.metrics.failure_evictions, 0);
        assert_eq!(b.metrics.work_lost_frac, 0.0);
        assert_eq!(b.metrics.mean_recovery_s, 0.0);
        assert!(b.metrics.goodput_sps > 0.0);
    }

    #[test]
    fn node_failures_evict_roll_back_and_recover() {
        let mut cfg = SimConfig::new(48.0 * 3600.0);
        // No checkpoints: a crash loses everything since the run began.
        cfg.checkpoint_interval_s = f64::INFINITY;
        let faults = pool0_outage(1000.0, 5000.0, 16);
        let r = run_with(&mut FcfsPolicy::new(), &cfg, &faults, &Obs::disabled());
        assert!(
            r.metrics.failure_evictions > 0,
            "outage hit nobody: {:#?}",
            r.records
        );
        assert!(r.metrics.work_lost_frac > 0.0);
        assert!(r.metrics.mean_recovery_s > 0.0);
        assert_eq!(r.metrics.finished, 4, "records: {:#?}", r.records);
        // Goodput excludes the re-done work, so it sits strictly below
        // the zero-fault run's.
        let baseline = run(&mut FcfsPolicy::new());
        assert!(r.metrics.goodput_sps > 0.0);
        assert!(r.metrics.avg_jct_s > baseline.metrics.avg_jct_s);
    }

    #[test]
    fn shorter_checkpoint_interval_loses_less_work() {
        let faults = pool0_outage(1000.0, 5000.0, 16);
        let go = |interval: f64| {
            let mut cfg = SimConfig::new(48.0 * 3600.0);
            cfg.checkpoint_interval_s = interval;
            run_with(&mut FcfsPolicy::new(), &cfg, &faults, &Obs::disabled())
        };
        let short = go(300.0);
        let never = go(f64::INFINITY);
        assert!(never.metrics.work_lost_frac > 0.0);
        assert!(
            short.metrics.work_lost_frac < never.metrics.work_lost_frac,
            "short {} vs never {}",
            short.metrics.work_lost_frac,
            never.metrics.work_lost_frac
        );
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let faults = arena_trace::generate_faults(
            &arena_trace::FaultConfig::with_mtbf(20_000.0),
            &[16, 16],
            48.0 * 3600.0,
        );
        assert!(!faults.is_empty());
        let cfg = SimConfig::new(48.0 * 3600.0);
        let go = || run_with(&mut GavelPolicy::new(), &cfg, &faults, &Obs::disabled());
        let a = go();
        let b = go();
        assert_eq!(a.metrics.avg_jct_s, b.metrics.avg_jct_s);
        assert_eq!(a.metrics.failure_evictions, b.metrics.failure_evictions);
        assert_eq!(a.metrics.goodput_sps, b.metrics.goodput_sps);
        assert_eq!(a.timeline, b.timeline);
        let ra: Vec<u32> = a.records.iter().map(|r| r.restarts).collect();
        let rb: Vec<u32> = b.records.iter().map(|r| r.restarts).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn traced_run_produces_a_valid_timeline_with_matching_gpu_seconds() {
        let cfg = SimConfig::new(48.0 * 3600.0);
        let r = run_with(&mut FcfsPolicy::new(), &cfg, &[], &Obs::enabled());
        let tl = &r.trace.timeline;
        assert!(!tl.is_empty(), "traced run recorded no timeline");
        tl.validate().expect("timeline passes the state machine");
        assert_eq!(tl.nodes.len(), 32, "testbed has 2 pools x 16 nodes");
        let accounts = tl.accounts();
        for rec in &r.records {
            let acc = &accounts[&rec.id];
            assert_eq!(acc.productive_gpu_s, rec.productive_gpu_s, "job {}", rec.id);
            assert_eq!(acc.allocated_gpu_s, rec.allocated_gpu_s, "job {}", rec.id);
            assert_eq!(acc.run_s, rec.run_s, "job {}", rec.id);
            assert!(rec.allocated_gpu_s >= rec.productive_gpu_s);
        }
        assert!(r.metrics.productive_gpu_s > 0.0);
        assert!(r.metrics.cluster_util_frac > 0.0);
        assert!(r.metrics.cluster_util_frac <= 1.0);
        let util = tl.utilization();
        assert!(!util.is_empty());
        assert!(util.iter().all(|s| s.busy_gpus <= s.total_gpus));
    }

    #[test]
    fn faulted_timeline_records_node_failure_stops() {
        let mut cfg = SimConfig::new(48.0 * 3600.0);
        cfg.checkpoint_interval_s = f64::INFINITY;
        let faults = pool0_outage(1000.0, 5000.0, 16);
        let r = run_with(&mut FcfsPolicy::new(), &cfg, &faults, &Obs::enabled());
        let tl = &r.trace.timeline;
        tl.validate().unwrap();
        let stops: Vec<f64> = tl
            .events
            .iter()
            .filter_map(|e| match e.kind {
                JobEventKind::Stop {
                    cause: StopCause::NodeFailure,
                    lost_iters,
                } => Some(lost_iters),
                _ => None,
            })
            .collect();
        assert_eq!(stops.len(), r.metrics.failure_evictions);
        assert!(
            stops.iter().any(|&l| l > 0.0),
            "no rollback recorded: {stops:?}"
        );
        let accounts = tl.accounts();
        for rec in &r.records {
            assert_eq!(
                accounts[&rec.id].productive_gpu_s, rec.productive_gpu_s,
                "job {}",
                rec.id
            );
        }
    }

    /// Batch and streaming runs of `jobs` + `faults` under FCFS.
    fn both(
        jobs: &[JobSpec],
        faults: &[FaultEvent],
    ) -> (Result<SimResult, InputError>, io::Result<StreamSummary>) {
        let cluster = presets::physical_testbed();
        let cfg = SimConfig::new(1000.0);
        let service = PlanService::new(&cluster, CostParams::default(), 11);
        let batch = Sim::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg)
            .faults(faults)
            .run(jobs);
        let stream = Sim::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg)
            .faults(faults)
            .stream(&mut VecSource::new(jobs.to_vec()));
        (batch, stream)
    }

    /// The [`InputError`] inside a refused stream.
    fn input_error(r: io::Result<StreamSummary>) -> InputError {
        let err = r.expect_err("stream accepted an invalid input");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.get_ref()
            .and_then(|e| e.downcast_ref::<InputError>())
            .expect("wraps an InputError")
            .clone()
    }

    #[test]
    fn unsorted_fault_schedule_is_an_error() {
        let mut faults = pool0_outage(1000.0, 5000.0, 2);
        faults.reverse();
        let (batch, stream) = both(&tiny_trace(), &faults);
        let want = InputError::UnsortedFault {
            last_s: 5000.0,
            got_s: 1000.0,
        };
        assert_eq!(batch.err(), Some(want.clone()));
        assert_eq!(input_error(stream), want);
    }

    #[test]
    fn unsorted_trace_is_an_error() {
        let mut jobs = tiny_trace();
        jobs.swap(0, 3);
        let (batch, stream) = both(&jobs, &[]);
        let want = InputError::UnsortedSubmission {
            last_s: 2000.0,
            got_s: 100.0,
        };
        assert_eq!(batch.err(), Some(want.clone()));
        assert_eq!(input_error(stream), want);
    }

    #[test]
    fn unknown_pools_and_nodes_are_errors() {
        let mut jobs = tiny_trace();
        jobs[2].requested_pool = 99;
        let (batch, stream) = both(&jobs, &[]);
        assert_eq!(batch.err(), Some(InputError::NoSuchPool(99)));
        assert_eq!(input_error(stream), InputError::NoSuchPool(99));

        let mut faults = pool0_outage(1000.0, 5000.0, 1);
        faults[1].node = 16;
        let (batch, stream) = both(&tiny_trace(), &faults);
        let want = InputError::NoSuchNode { pool: 0, node: 16 };
        assert_eq!(batch.err(), Some(want.clone()));
        assert_eq!(input_error(stream), want);
    }

    #[test]
    fn streaming_matches_the_batch_driver() {
        let cluster = presets::physical_testbed();
        let mut jobs = tiny_trace();
        jobs[1].requested_pool = 1;
        jobs[3].requested_pool = 1;
        let faults = pool0_outage(400.0, 4000.0, 1);
        let cfg = SimConfig::new(48.0 * 3600.0);
        let plan = ShardPlan::per_pool(&cluster);
        let batch = {
            let service = PlanService::new(&cluster, CostParams::default(), 11);
            Sim::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg)
                .faults(&faults)
                .plan(&plan)
                .run(&jobs)
                .unwrap()
        };
        let stream = {
            let service = PlanService::new(&cluster, CostParams::default(), 11);
            Sim::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg)
                .faults(&faults)
                .plan(&plan)
                .stream(&mut VecSource::new(jobs.clone()))
                .unwrap()
        };
        assert_eq!(stream.fingerprint, record_fingerprint(&batch.records));
        assert_eq!(stream.timeline, batch.timeline);
        assert_eq!(stream.raw_timeline, batch.raw_timeline);
        assert_eq!(stream.jobs.jobs as usize, batch.records.len());
        assert_eq!(stream.jobs.finished, batch.metrics.finished as u64);
        assert_eq!(stream.jobs.dropped, batch.metrics.dropped as u64);
        // Float sums fold in termination order, not record order, so
        // they agree only up to rounding; counts and hashes are exact.
        let jct_err = (stream.jobs.avg_jct_s() - batch.metrics.avg_jct_s).abs();
        assert!(jct_err < 1e-6, "avg JCT drifted by {jct_err}");
        assert_eq!(stream.failure_evictions, batch.metrics.failure_evictions);
        assert_eq!(stream.goodput_sps, batch.metrics.goodput_sps);
        assert!(stream.peak_live_jobs >= 1 && stream.peak_live_jobs <= jobs.len());
    }

    #[test]
    fn fingerprint_detects_a_changed_outcome() {
        let cluster = presets::physical_testbed();
        let go = |horizon: f64| {
            let service = PlanService::new(&cluster, CostParams::default(), 11);
            Sim::new(
                &cluster,
                &mut FcfsPolicy::new(),
                &service,
                &SimConfig::new(horizon),
            )
            .stream(&mut VecSource::new(tiny_trace()))
            .unwrap()
        };
        let full = go(48.0 * 3600.0);
        // A horizon cutting the last job short yields different records.
        let cut = go(3000.0);
        assert_ne!(full.fingerprint, cut.fingerprint);
    }
}
