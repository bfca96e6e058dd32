//! The four workloads. Each [`Workload::rep`] call sets up fresh inputs
//! from the seeds, times the set-up, then drives one full run through
//! the program's public surfaces and times that:
//!
//! * `arena_philly`, `engine_faulted` and `stream_fleet` drive the
//!   incremental [`Engine`] directly. Each arrival is admitted the way
//!   the daemon admits a `submit` command (`advance_before` its time,
//!   then `submit`); faults queue without advancing, as the daemon's
//!   `fault` command does; the input then closes and the run drains
//!   `step` by `step`.
//! * `daemon_session` starts an `arena-server` daemon and sends it one
//!   JSONL session through [`arena_server::ServerHandle::handle_line`].
//!
//! In traced reps the policy and the trace source are wrapped
//! ([`crate::layers`]) and every call the benchmark makes is a span.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use arena_cluster::{presets, Cluster};
use arena_estimator::CacheStatsSnapshot;
use arena_model::zoo::{ModelConfig, ModelFamily};
use arena_obs::Obs;
use arena_perf::CostParams;
use arena_runtime::WorkerPool;
use arena_sched::{ArenaPolicy, FcfsPolicy, PlanService, Policy};
use arena_server::protocol::{fault_line, submit_line};
use arena_server::{Server, ServerConfig};
use arena_sim::{record_fingerprint, Engine, ShardPlan, SimConfig, SimResult, StreamSummary};
use arena_trace::{
    generate, generate_faults, FaultConfig, FaultEvent, GenSource, JobSpec, TakeSource,
    TraceConfig, TraceKind, TraceSource, VecSource,
};
use serde::Value;

use crate::hostspeed::{self, HostSpeed};
use crate::layers::{TimedPolicy, TimedSource};
use crate::spans::{self, timed};
use crate::stats::{bucket_percentile, percentile};

/// Every workload this program runs, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "arena_philly",
    "engine_faulted",
    "daemon_session",
    "stream_fleet",
];

/// Seeds and scale of a workload instance.
///
/// Every input the simulation sees is fixed by a recorded seed: the job
/// trace, the node-failure schedule and the plan service's seed. Inputs
/// drawn from other seeds move the simulated outcome and the run time
/// by far more than any usable regression bound (the heavy Philly
/// week's mean JCT spans 8.7-13.2 h over five trace seeds; fault and
/// service seeds move it 6-15%), and fixed inputs make the simulated
/// metrics exact, so they can carry tight bounds. The run seed varies
/// what the outcome does not depend on: which reads `daemon_session`
/// issues. `--trace-seed` and `--fault-seed` replace the recorded
/// seeds, to check a claim on inputs not used while making it.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The run seed (`--seed`).
    pub seed: u64,
    /// Replaces the workload's recorded trace seed (`--trace-seed`).
    pub trace_seed: Option<u64>,
    /// Replaces the workload's recorded fault seed (`--fault-seed`).
    pub fault_seed: Option<u64>,
    /// Smoke-test sizes instead of the benchmark sizes.
    pub tiny: bool,
}

impl Config {
    fn trace(&self, recorded: u64) -> u64 {
        self.trace_seed.unwrap_or(recorded)
    }

    fn faults(&self, recorded: u64) -> u64 {
        self.fault_seed.unwrap_or(recorded)
    }
}

/// Simulated-time outcome of a run: identical on every rep of a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Mean job completion time over finished jobs, simulated hours.
    pub avg_jct_h: f64,
    /// Productive GPU-seconds over capacity GPU-seconds.
    pub cluster_util: f64,
    /// Share of processed samples not lost to failure rollbacks.
    pub goodput_frac: f64,
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind it.
    pub detail: String,
}

/// Everything one rep measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Whether the rep ran with spans.
    pub traced: bool,
    /// Set-up wall time, seconds.
    pub setup_s: f64,
    /// Timed-region wall time, seconds, less the host-speed samples.
    pub measured_s: f64,
    /// Host speed sampled during the timed region.
    pub host: Option<HostSpeed>,
    /// Jobs admitted.
    pub jobs: u64,
    /// Operations issued to the program (submits, faults, reads, drain).
    pub commands: u64,
    /// Operations that failed (`Err`, `ok:false`, undrained drain).
    pub failed: u64,
    /// Per-job admission latencies at the reference host's speed,
    /// seconds.
    pub submit_lat_s: Vec<f64>,
    /// Simulated outcome.
    pub quality: Option<Quality>,
    /// Order-free fingerprint of every job record.
    pub fingerprint: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Per-layer values (traced reps only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Recorded spans (traced reps only).
    pub spans: Vec<spans::Span>,
}

impl Rep {
    /// How many times slower than the reference host the timed region
    /// ran (see [`crate::hostspeed`]).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.host.map_or(f64::NAN, |h| h.slowdown())
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }
}

/// A workload: fixed inputs from seeds, run once per rep.
pub trait Workload {
    /// The seeds in use, for the report.
    fn seeds(&self) -> String;

    /// Whether the process should pin itself, and so every thread it
    /// starts, to one CPU.
    fn pins_to_one_cpu(&self) -> bool {
        false
    }

    /// Sets up and runs one rep.
    fn rep(&mut self, traced: bool) -> Rep;

    /// Checks made once per process after the reps (outside the
    /// measured time).
    fn final_checks(&mut self, _reps: &[Rep]) -> Vec<Check> {
        Vec::new()
    }
}

/// Builds the named workload, or `None` for an unknown name.
#[must_use]
pub fn build(name: &str, cfg: Config) -> Option<Box<dyn Workload>> {
    Some(match name {
        "arena_philly" => Box::new(ArenaPhilly(cfg)),
        "engine_faulted" => Box::new(EngineFaulted(cfg)),
        "daemon_session" => Box::new(DaemonSession {
            cfg,
            reference: None,
        }),
        "stream_fleet" => Box::new(StreamFleet(cfg)),
        _ => return None,
    })
}

fn pool_mems(cluster: &Cluster) -> Vec<f64> {
    cluster
        .pool_stats()
        .iter()
        .map(|p| p.spec.gpu.mem_gib)
        .collect()
}

fn pool_nodes(cluster: &Cluster) -> Vec<usize> {
    cluster.pool_ids().map(|p| cluster.num_nodes(p)).collect()
}

/// A plan service with both cache layers pinned to `budget` bytes in
/// total (half each, as the program's own environment knob splits
/// it), or unbounded.
fn plan_service(cluster: &Cluster, seed: u64, budget: Option<usize>) -> PlanService {
    let s = PlanService::new(cluster, CostParams::default(), seed);
    s.set_mem_budget(budget.map(|b| b / 2));
    s.estimator().set_mem_budget(budget.map(|b| b / 2));
    s
}

fn one_worker_plan(cluster: &Cluster, shards: usize) -> ShardPlan {
    ShardPlan::per_pool(cluster)
        .with_shards(shards)
        .with_workers(WorkerPool::new(1))
}

/// The policy a rep hands the engine: bare, or wrapped for tracing.
enum Pol<P> {
    Bare(P),
    Timed(TimedPolicy<P>),
}

impl<P: Policy> Pol<P> {
    fn new(p: P, traced: bool) -> Self {
        if traced {
            Pol::Timed(TimedPolicy(p))
        } else {
            Pol::Bare(p)
        }
    }

    fn as_dyn(&mut self) -> &mut dyn Policy {
        match self {
            Pol::Bare(p) => p,
            Pol::Timed(t) => t,
        }
    }

    fn inner(&self) -> &P {
        match self {
            Pol::Bare(p) => p,
            Pol::Timed(t) => &t.0,
        }
    }
}

/// The trace source a rep pulls from: bare, or wrapped for tracing.
fn pull_source<S: TraceSource + 'static>(source: S, traced: bool) -> Box<dyn TraceSource> {
    if traced {
        Box::new(TimedSource(source))
    } else {
        Box::new(source)
    }
}

/// Counters the engine driver keeps.
#[derive(Default)]
struct Driven {
    submits: u64,
    faults: u64,
    /// Jobs the engine accepted.
    accepted: u64,
    failed: u64,
    submit_lat_s: Vec<f64>,
}

/// Feeds `source` and `faults` through `engine` in time order, then
/// drains the run.
fn drive(engine: &mut Engine<'_>, source: &mut dyn TraceSource, faults: &[FaultEvent]) -> Driven {
    let mut d = Driven::default();
    let mut fi = 0;
    let inject = |engine: &mut Engine<'_>, f: &FaultEvent, d: &mut Driven| {
        d.faults += 1;
        if timed("sim.fault", || engine.inject_fault(f.clone())).is_err() {
            d.failed += 1;
        }
    };
    while let Some(spec) = source.next_job().expect("generated sources cannot fail") {
        while faults.get(fi).is_some_and(|f| f.time_s < spec.submit_s) {
            inject(engine, &faults[fi], &mut d);
            fi += 1;
        }
        let t0 = Instant::now();
        let at = spec.submit_s;
        timed("sim.advance", || engine.advance_before(at));
        let res = timed("sim.submit", || engine.submit(spec));
        d.submit_lat_s
            .push(t0.elapsed().as_secs_f64() / hostspeed::current_slowdown());
        hostspeed::tick();
        d.submits += 1;
        match res {
            Ok(()) => d.accepted += 1,
            Err(_) => d.failed += 1,
        }
    }
    for f in &faults[fi..] {
        inject(engine, f, &mut d);
    }
    engine.close_input();
    while timed("sim.step", || engine.step()) {
        hostspeed::tick();
    }
    d
}

/// Fills the rep from a drained batch run.
fn batch_outcome(rep: &mut Rep, d: &Driven, result: &SimResult) {
    let m = &result.metrics;
    let accepted = d.accepted;
    rep.check(
        "conservation",
        m.finished + m.dropped + m.unfinished == accepted as usize
            && result.records.len() == accepted as usize,
        format!(
            "finished {} + dropped {} + unfinished {} = submitted {accepted}",
            m.finished, m.dropped, m.unfinished
        ),
    );
    rep.fingerprint = record_fingerprint(&result.records);
    rep.quality = Some(Quality {
        avg_jct_h: m.avg_jct_s / 3600.0,
        cluster_util: m.cluster_util_frac,
        goodput_frac: 1.0 - m.work_lost_frac,
    });
}

/// Fills the rep's shared engine-driver fields.
fn driven_outcome(rep: &mut Rep, d: Driven) {
    rep.jobs = d.submits;
    // Inputs and the closing drain.
    rep.commands = d.submits + d.faults + 1;
    rep.failed = d.failed;
    rep.submit_lat_s = d.submit_lat_s;
}

/// Layer values every engine-driven traced rep reports, from its spans
/// and the program's own counters.
fn engine_layers(rep: &mut Rep, est: EstimatorDelta, service: &PlanService) {
    let named = spans::by_name(&rep.spans);
    let get = |n: &str| named.get(n).cloned().unwrap_or_default();
    let s = 1e-9;
    let (adv, step, sub, fault, fin) = (
        get("sim.advance"),
        get("sim.step"),
        get("sim.submit"),
        get("sim.fault"),
        get("sim.finish"),
    );
    let (sched, prep) = (get("sched.schedule"), get("sched.prepare"));
    let l = &mut rep.layers;
    let mut loop_durs: Vec<f64> = adv.durs_ns.iter().chain(&step.durs_ns).copied().collect();
    loop_durs.sort_by(f64::total_cmp);
    let sim_self = [&adv, &step, &sub, &fault, &fin]
        .iter()
        .map(|n| n.self_ns)
        .sum::<u64>();
    l.insert("sim.steps", (adv.count + step.count) as f64);
    l.insert("sim.events", sched.count as f64);
    l.insert("sim.step_busy_s", (adv.busy_ns + step.busy_ns) as f64 * s);
    l.insert("sim.self_s", sim_self as f64 * s);
    if sched.count > 0 {
        l.insert(
            "sim.self_ns_per_event",
            sim_self as f64 / sched.count as f64,
        );
    }
    l.insert(
        "sim.step_p99_us",
        percentile(&loop_durs, 99.0).unwrap_or(0.0) / 1e3,
    );
    l.insert(
        "sim.submit_busy_s",
        (sub.busy_ns + fault.busy_ns) as f64 * s,
    );
    l.insert("sim.finish_s", fin.busy_ns as f64 * s);
    let mut pass = sched.durs_ns.clone();
    pass.sort_by(f64::total_cmp);
    let sched_busy = (sched.busy_ns + prep.busy_ns) as f64 * s;
    l.insert("sched.passes", sched.count as f64);
    l.insert("sched.busy_s", sched_busy);
    l.insert("sched.self_s", sched_busy - est.busy_s);
    l.insert(
        "sched.pass_p50_us",
        percentile(&pass, 50.0).unwrap_or(0.0) / 1e3,
    );
    l.insert(
        "sched.pass_p99_us",
        percentile(&pass, 99.0).unwrap_or(0.0) / 1e3,
    );
    l.insert("sched.share", sched_busy / rep.measured_s);
    let pulls = get("trace.next_job");
    l.insert("trace.jobs", pulls.count as f64);
    l.insert("trace.next_busy_s", pulls.busy_ns as f64 * s);
    est.insert(l);
    mem_layers(l, service);
}

fn mem_layers(l: &mut BTreeMap<&'static str, f64>, service: &PlanService) {
    let plans = service.mem_report();
    let est = service.estimator().mem_report();
    l.insert(
        "mem.plan_bytes",
        plans.iter().map(|m| m.bytes).sum::<usize>() as f64,
    );
    l.insert(
        "mem.plan_entries",
        plans.iter().map(|m| m.entries).sum::<usize>() as f64,
    );
    l.insert(
        "mem.estimator_bytes",
        est.iter().map(|m| m.bytes).sum::<usize>() as f64,
    );
    l.insert(
        "mem.evictions",
        plans.iter().chain(&est).map(|m| m.evictions).sum::<u64>() as f64,
    );
}

/// Estimator work done between two counter snapshots.
#[derive(Debug, Clone, Copy)]
struct EstimatorDelta {
    hits: u64,
    misses: u64,
    profile_misses: u64,
    table_misses: u64,
    busy_s: f64,
}

impl EstimatorDelta {
    fn between(a: &CacheStatsSnapshot, b: &CacheStatsSnapshot) -> Self {
        EstimatorDelta {
            hits: b.estimate_hits - a.estimate_hits,
            misses: b.estimate_misses - a.estimate_misses,
            profile_misses: b.profile_misses - a.profile_misses,
            table_misses: b.table_misses - a.table_misses,
            busy_s: (b.estimate_ns - a.estimate_ns) as f64 * 1e-9,
        }
    }

    fn insert(self, l: &mut BTreeMap<&'static str, f64>) {
        let lookups = self.hits + self.misses;
        l.insert("estimator.misses", self.misses as f64);
        if lookups > 0 {
            l.insert("estimator.hit_ratio", self.hits as f64 / lookups as f64);
        }
        l.insert("estimator.busy_s", self.busy_s);
        if self.misses > 0 {
            l.insert(
                "estimator.ns_per_miss",
                self.busy_s * 1e9 / self.misses as f64,
            );
        }
        l.insert("estimator.profile_misses", self.profile_misses as f64);
        l.insert("estimator.table_misses", self.table_misses as f64);
    }
}

fn memo_layers(l: &mut BTreeMap<&'static str, f64>, p: &ArenaPolicy) {
    let m = p.candidate_memo_stats();
    let lookups = m.hits + m.misses;
    if lookups > 0 {
        l.insert("sched.memo_hit_ratio", m.hits as f64 / lookups as f64);
    }
    l.insert("sched.memo_invalidations", m.invalidations as f64);
}

/// Set-ups each rep makes. A set-up takes milliseconds, and the host's
/// jitter alone moves a single one by up to 2x, so a rep reports the
/// fastest of several.
const SETUPS_PER_REP: usize = 3;

/// Runs `setup` [`SETUPS_PER_REP`] times and returns the last product
/// with the fastest set-up time; every earlier product goes to
/// `discard`, outside the timed region.
fn set_up<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut fastest = f64::INFINITY;
    let mut last = None;
    for _ in 0..SETUPS_PER_REP {
        if let Some(earlier) = last.take() {
            discard(earlier);
        }
        let t = Instant::now();
        let product = setup();
        fastest = fastest.min(t.elapsed().as_secs_f64());
        last = Some(product);
    }
    (last.expect("SETUPS_PER_REP is positive"), fastest)
}

/// Starts the rep's span recorder when traced, and host-speed
/// sampling; call right before the timed region starts.
fn start_recording(traced: bool) {
    if traced {
        spans::install();
    }
    hostspeed::start();
}

/// Ends the timed region that started at `t1`: the rep's measured time
/// leaves out the time host-speed samples took.
fn stop_recording(rep: &mut Rep, t1: Instant) {
    let wall_s = t1.elapsed().as_secs_f64();
    let host = hostspeed::stop().expect("start_recording started sampling");
    rep.measured_s = wall_s - host.paused_s;
    rep.host = Some(host);
    rep.spans = spans::take();
}

// --- arena_philly ----------------------------------------------------

/// Trace and plan-service seed of the Fig. 16/17 comparison.
const PHILLY_SEED: u64 = 16;

/// Cold-start Arena (Algorithm 1) over the heavy Philly week on the
/// 1,280-GPU Table-1 cluster; the plan service is built inside the
/// timed region, as a newly started scheduler pays for it.
struct ArenaPhilly(Config);

impl Workload for ArenaPhilly {
    fn seeds(&self) -> String {
        format!("trace {}, service {PHILLY_SEED}", self.0.trace(PHILLY_SEED))
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep {
            traced,
            ..Rep::default()
        };
        let cfg = self.0;
        let ((cluster, sim, plan, mut source, mut policy), setup_s) = set_up(
            || {
                let cluster = presets::table1_simulated();
                let days = if cfg.tiny { 0.1 } else { 7.0 };
                let mut tc = TraceConfig::new(
                    TraceKind::PhillyHeavy,
                    days * 86_400.0,
                    cluster.total_gpus(),
                    pool_mems(&cluster),
                );
                tc.duration_scale = 50.0;
                tc.seed = cfg.trace(PHILLY_SEED);
                let jobs = generate(&tc);
                let sim = SimConfig::new((days + 3.0) * 86_400.0);
                let plan = one_worker_plan(&cluster, 1);
                let source = pull_source(VecSource::new(jobs), traced);
                let policy = Pol::new(ArenaPolicy::new().with_worker_threads(1), traced);
                (cluster, sim, plan, source, policy)
            },
            drop,
        );
        rep.setup_s = setup_s;

        start_recording(traced);
        let t1 = Instant::now();
        let service = timed("sched.service_new", || {
            plan_service(&cluster, PHILLY_SEED, None)
        });
        let est0 = service.estimator_stats();
        let mut engine = Engine::new(
            &cluster,
            policy.as_dyn(),
            &service,
            &sim,
            &Obs::disabled(),
            &plan,
        );
        let d = drive(&mut engine, source.as_mut(), &[]);
        let result = timed("sim.finish", || engine.finish());
        stop_recording(&mut rep, t1);

        batch_outcome(&mut rep, &d, &result);
        driven_outcome(&mut rep, d);
        if traced {
            let est = EstimatorDelta::between(&est0, &service.estimator_stats());
            engine_layers(&mut rep, est, &service);
            memo_layers(&mut rep.layers, policy.inner());
        }
        rep
    }
}

// --- engine_faulted --------------------------------------------------

/// Plan-service seed of the loaded synthetic fixture.
const FIXTURE_SERVICE_SEED: u64 = 51;

/// Recorded seed of the fixture's node-failure schedule.
const FIXTURE_FAULT_SEED: u64 = 1;

/// The loaded synthetic fixture: one 4-GPU job every 30 s, pools
/// alternating, three model families in rotation.
fn fixture_jobs(n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let (family, size) = [
                (ModelFamily::Bert, 1.3),
                (ModelFamily::Moe, 1.3),
                (ModelFamily::WideResNet, 1.0),
            ][(i % 3) as usize];
            JobSpec {
                id: i,
                name: format!("j{i}"),
                submit_s: 30.0 * i as f64,
                model: ModelConfig::new(family, size, 256),
                iterations: 400 + 100 * (i % 4),
                requested_gpus: 4,
                requested_pool: i as usize % 2,
                deadline_s: None,
            }
        })
        .collect()
}

/// FCFS over the deep-queue fixture on the 64-GPU testbed under a
/// node-failure schedule, with the plan caches warmed in set-up: the
/// engine does nearly all the work.
struct EngineFaulted(Config);

impl Workload for EngineFaulted {
    fn seeds(&self) -> String {
        format!(
            "faults {} (fixed job fixture, service {FIXTURE_SERVICE_SEED})",
            self.0.faults(FIXTURE_FAULT_SEED)
        )
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep {
            traced,
            ..Rep::default()
        };
        let cfg = self.0;
        let ((cluster, faults, sim, plan, service, warm_entries, mut source, mut policy), setup_s) =
            set_up(
                || {
                    let cluster = presets::physical_testbed();
                    let (n, warm_n) = if cfg.tiny { (200, 30) } else { (10_000, 300) };
                    let jobs = fixture_jobs(n);
                    let faults = generate_faults(
                        &FaultConfig {
                            seed: cfg.faults(FIXTURE_FAULT_SEED),
                            ..FaultConfig::with_mtbf(60_000.0)
                        },
                        &pool_nodes(&cluster),
                        n as f64 * 30.0 * 1.4,
                    );
                    let sim = SimConfig::new(30.0 * 86_400.0);
                    let plan = one_worker_plan(&cluster, 1);
                    let service = plan_service(&cluster, FIXTURE_SERVICE_SEED, None);
                    // Warm the plan caches on a prefix: the fixture has
                    // one plan per (family, pool), all met in its first
                    // jobs.
                    {
                        let warm_jobs = jobs[..warm_n].to_vec();
                        let horizon = warm_jobs.last().map_or(0.0, |j| j.submit_s);
                        let warm_faults: Vec<FaultEvent> = faults
                            .iter()
                            .filter(|f| f.time_s < horizon)
                            .cloned()
                            .collect();
                        let mut fcfs = FcfsPolicy::new();
                        let mut engine = Engine::new(
                            &cluster,
                            &mut fcfs,
                            &service,
                            &sim,
                            &Obs::disabled(),
                            &plan,
                        );
                        drive(&mut engine, &mut VecSource::new(warm_jobs), &warm_faults);
                        black_box(engine.finish());
                    }
                    let warm_entries = plan_entries(&service);
                    let source = pull_source(VecSource::new(jobs), traced);
                    let policy = Pol::new(FcfsPolicy::new(), traced);
                    (
                        cluster,
                        faults,
                        sim,
                        plan,
                        service,
                        warm_entries,
                        source,
                        policy,
                    )
                },
                drop,
            );
        rep.setup_s = setup_s;

        start_recording(traced);
        let est0 = service.estimator_stats();
        let t1 = Instant::now();
        let mut engine = Engine::new(
            &cluster,
            policy.as_dyn(),
            &service,
            &sim,
            &Obs::disabled(),
            &plan,
        );
        let d = drive(&mut engine, source.as_mut(), &faults);
        let result = timed("sim.finish", || engine.finish());
        stop_recording(&mut rep, t1);

        let entries = plan_entries(&service);
        rep.check(
            "plan_cache_warm",
            entries == warm_entries,
            format!("{entries} plan entries after the run, {warm_entries} after warm-up"),
        );
        batch_outcome(&mut rep, &d, &result);
        driven_outcome(&mut rep, d);
        if traced {
            let est = EstimatorDelta::between(&est0, &service.estimator_stats());
            engine_layers(&mut rep, est, &service);
        }
        rep
    }
}

fn plan_entries(service: &PlanService) -> usize {
    service.mem_report().iter().map(|m| m.entries).sum()
}

// --- stream_fleet ----------------------------------------------------

/// Byte budget over the plan and estimator caches (half each). The
/// plan half, split evenly over the plan database's six maps, is below
/// what its largest maps hold unbudgeted (97 KB over 548 entries in
/// all), so entries are evicted and recomputed throughout the run.
const STREAM_BUDGET_BYTES: usize = 400_000;

/// The generator's default seed, as the fleet-scale bench uses it.
const STREAM_TRACE_SEED: u64 = 0xA0EA;

/// Recorded plan-service seed (performance-model noise) of the stream.
const STREAM_SERVICE_SEED: u64 = 1;

/// FCFS in record-fold mode over a generated PAI-low stream on a
/// 2,048-GPU homogeneous cluster, caches under [`STREAM_BUDGET_BYTES`].
struct StreamFleet(Config);

impl Workload for StreamFleet {
    fn seeds(&self) -> String {
        format!(
            "trace {}, service {STREAM_SERVICE_SEED}",
            self.0.trace(STREAM_TRACE_SEED)
        )
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep {
            traced,
            ..Rep::default()
        };
        let (n, warm_n) = if self.0.tiny {
            (500, 50)
        } else {
            (30_000, 500)
        };
        let cfg = self.0;
        let ((cluster, sim, plan, service, mut source, mut policy), setup_s) = set_up(
            || {
                let cluster = presets::tiny_a100(256, 8);
                // Open-ended trace: the job cap, not the duration, ends it.
                let mut tc =
                    TraceConfig::new(TraceKind::PaiLow, 4.0e9, cluster.total_gpus(), vec![40.0]);
                tc.seed = cfg.trace(STREAM_TRACE_SEED);
                let sim = SimConfig::new(4.1e9);
                let plan = one_worker_plan(&cluster, 1);
                let service =
                    plan_service(&cluster, STREAM_SERVICE_SEED, Some(STREAM_BUDGET_BYTES));
                // Warm up on the stream's first jobs: lazy tables and the
                // unbudgeted graph cache fill here, not in the timed run.
                {
                    let mut fcfs = FcfsPolicy::new();
                    let mut engine =
                        Engine::new(&cluster, &mut fcfs, &service, &sim, &Obs::disabled(), &plan);
                    engine.enable_record_fold();
                    let mut warm = TakeSource::new(GenSource::new(&tc), warm_n);
                    drive(&mut engine, &mut warm, &[]);
                    black_box(engine.finish_stream());
                }
                let source = pull_source(TakeSource::new(GenSource::new(&tc), n), traced);
                let policy = Pol::new(FcfsPolicy::new(), traced);
                (cluster, sim, plan, service, source, policy)
            },
            drop,
        );
        rep.setup_s = setup_s;

        start_recording(traced);
        let est0 = service.estimator_stats();
        let t1 = Instant::now();
        let mut engine = Engine::new(
            &cluster,
            policy.as_dyn(),
            &service,
            &sim,
            &Obs::disabled(),
            &plan,
        );
        engine.enable_record_fold();
        let d = drive(&mut engine, source.as_mut(), &[]);
        let summary: StreamSummary = timed("sim.finish", || engine.finish_stream());
        stop_recording(&mut rep, t1);

        let f = &summary.jobs;
        rep.check(
            "conservation",
            f.finished + f.dropped + f.unfinished == f.jobs && f.jobs == d.accepted,
            format!(
                "finished {} + dropped {} + unfinished {} = submitted {}",
                f.finished, f.dropped, f.unfinished, f.jobs
            ),
        );
        rep.check(
            "stream_length",
            d.submits == n,
            format!("{} of {n} jobs pulled", d.submits),
        );
        rep.fingerprint = summary.fingerprint;
        rep.quality = Some(Quality {
            avg_jct_h: f.avg_jct_s() / 3600.0,
            cluster_util: summary.cluster_util_frac,
            goodput_frac: 1.0 - summary.work_lost_frac,
        });
        driven_outcome(&mut rep, d);
        if traced {
            let est = EstimatorDelta::between(&est0, &service.estimator_stats());
            engine_layers(&mut rep, est, &service);
        }
        rep
    }
}

// --- daemon_session --------------------------------------------------

/// Plan-service seed the daemon is configured with.
const DAEMON_SERVICE_SEED: u64 = 17;

/// Trace seed of the Fig. 18 Helios day.
const HELIOS_SEED: u64 = 18;

/// Recorded seed of the session's node-failure schedule.
const SESSION_FAULT_SEED: u64 = 2;

/// The daemon's inputs: Helios-moderate submissions on the 64-GPU
/// testbed and a node-failure schedule, each in time order.
fn session_inputs(cfg: &Config) -> (Cluster, SimConfig, Vec<JobSpec>, Vec<FaultEvent>) {
    let cluster = presets::physical_testbed();
    let hours = if cfg.tiny { 6.0 } else { 96.0 };
    let mut tc = TraceConfig::new(
        TraceKind::HeliosModerate,
        hours * 3600.0,
        cluster.total_gpus(),
        pool_mems(&cluster),
    );
    tc.seed = cfg.trace(HELIOS_SEED);
    let faults = generate_faults(
        &FaultConfig {
            seed: cfg.faults(SESSION_FAULT_SEED),
            ..FaultConfig::with_mtbf(9_000.0)
        },
        &pool_nodes(&cluster),
        hours * 3600.0,
    );
    let sim = SimConfig::new(hours * 3600.0 + 2.0 * 86_400.0);
    (cluster, sim, generate(&tc), faults)
}

/// The session's command lines: `(is_submit, job id, line)`, jobs and
/// faults merged in time order as [`drive`] merges them (a fault tied
/// with an arrival goes after it).
fn session_lines(jobs: &[JobSpec], faults: &[FaultEvent]) -> Vec<(bool, u64, String)> {
    let mut lines = Vec::with_capacity(jobs.len() + faults.len());
    let mut faults = faults.iter().peekable();
    for job in jobs {
        while let Some(f) = faults.next_if(|f| f.time_s < job.submit_s) {
            lines.push((false, 0, fault_line(f)));
        }
        lines.push((true, job.id, submit_line(job)));
    }
    lines.extend(faults.map(|f| (false, 0, fault_line(f))));
    lines
}

/// Reads rotated after every command.
const QUERIES: [&str; 4] = ["status", "queue", "job", "cluster"];

/// SplitMix64: a well-mixed 64-bit value from `x`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The read sent after each of `lines`: the rotation starts at an
/// offset drawn from `seed`, and a `job` read names a job drawn from
/// `seed` among those submitted so far (`status` before the first).
fn session_reads(lines: &[(bool, u64, String)], seed: u64) -> Vec<String> {
    let offset = mix(seed) as usize;
    let mut submitted = Vec::new();
    lines
        .iter()
        .enumerate()
        .map(|(i, (is_submit, id, _))| {
            if *is_submit {
                submitted.push(*id);
            }
            match QUERIES[i.wrapping_add(offset) % QUERIES.len()] {
                "job" if !submitted.is_empty() => {
                    let pick = mix(seed ^ mix(i as u64)) as usize % submitted.len();
                    format!(
                        "{{\"cmd\":\"query\",\"what\":\"job\",\"id\":{}}}",
                        submitted[pick]
                    )
                }
                "job" => "{\"cmd\":\"query\",\"what\":\"status\"}".to_string(),
                what => format!("{{\"cmd\":\"query\",\"what\":\"{what}\"}}"),
            }
        })
        .collect()
}

/// A fresh `arena-server` daemon (Arena policy, virtual clock, one
/// decision shard per pool, one worker thread) fed one timestamped
/// session by a single closed-loop client through `handle_line`, with
/// a read after every command, then `drain`.
struct DaemonSession {
    cfg: Config,
    /// Fingerprint of the same inputs driven through the engine, and
    /// how many of them the engine refused.
    reference: Option<(u64, u64)>,
}

fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

impl Workload for DaemonSession {
    /// Client and daemon thread share one CPU. The daemon applies a
    /// command, publishes its snapshot and only then replies, and the
    /// client waits for each reply, so the two never have work at the
    /// same time: a command hands over by a context switch instead of
    /// waking an idle vCPU, which a loaded virtual-machine host
    /// stretches several times over.
    fn pins_to_one_cpu(&self) -> bool {
        true
    }

    fn seeds(&self) -> String {
        format!(
            "trace {}, faults {} (service {DAEMON_SERVICE_SEED}), reads {}",
            self.cfg.trace(HELIOS_SEED),
            self.cfg.faults(SESSION_FAULT_SEED),
            self.cfg.seed
        )
    }

    #[allow(clippy::too_many_lines)]
    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep {
            traced,
            ..Rep::default()
        };
        let cfg = self.cfg;
        let ((lines, reads, server), setup_s) = set_up(
            || {
                let (cluster, sim, jobs, faults) = session_inputs(&cfg);
                let lines = session_lines(&jobs, &faults);
                let reads = session_reads(&lines, cfg.seed);
                let mut server_cfg = ServerConfig::new("arena", cluster.clone(), sim)
                    .with_shards(cluster.num_pools());
                server_cfg.worker_threads = 1;
                server_cfg.seed = DAEMON_SERVICE_SEED;
                let server = Server::start(server_cfg).expect("daemon starts");
                (lines, reads, server)
            },
            |(_, _, server)| drop(server.join()),
        );
        rep.setup_s = setup_s;
        let handle = server.handle();

        start_recording(traced);
        let (mut submits, mut accepted, mut faults, mut queries) = (0u64, 0usize, 0u64, 0u64);
        let mut rcu_ns = Vec::new();
        let t1 = Instant::now();
        for ((is_submit, _, line), read) in lines.iter().zip(&reads) {
            let t = Instant::now();
            let resp = timed(
                if *is_submit {
                    "server.submit"
                } else {
                    "server.fault"
                },
                || handle.handle_line(line),
            );
            let ok = is_ok(&resp);
            if *is_submit {
                rep.submit_lat_s
                    .push(t.elapsed().as_secs_f64() / hostspeed::current_slowdown());
                submits += 1;
                accepted += usize::from(ok);
            } else {
                faults += 1;
            }
            rep.failed += u64::from(!ok);
            let resp = timed("server.query", || handle.handle_line(read));
            queries += 1;
            rep.failed += u64::from(!is_ok(&resp));
            if traced {
                let t = Instant::now();
                timed("server.rcu_load", || black_box(handle.hub().load()));
                rcu_ns.push(t.elapsed().as_nanos() as f64);
            }
            hostspeed::tick();
        }
        let before_drain = handle.metrics().histograms_snapshot();
        let resp = timed("server.drain", || handle.handle_line("{\"cmd\":\"drain\"}"));
        stop_recording(&mut rep, t1);

        let drained = serde_json::from_str::<Value>(&resp)
            .ok()
            .and_then(|v| v.get("drained").cloned())
            == Some(Value::Bool(true));
        rep.failed += u64::from(!drained);
        rep.jobs = submits;
        rep.commands = submits + faults + queries + 1;
        let registry = std::sync::Arc::clone(handle.metrics());
        let outcome = server.join();
        match &outcome.result {
            Some(result) => {
                let m = &result.metrics;
                rep.check(
                    "conservation",
                    m.finished + m.dropped + m.unfinished == accepted
                        && outcome.state.submitted == accepted,
                    format!(
                        "finished {} + dropped {} + unfinished {} = submitted {}",
                        m.finished, m.dropped, m.unfinished, outcome.state.submitted
                    ),
                );
                rep.fingerprint = record_fingerprint(&result.records);
                rep.quality = Some(Quality {
                    avg_jct_h: m.avg_jct_s / 3600.0,
                    cluster_util: m.cluster_util_frac,
                    goodput_frac: 1.0 - m.work_lost_frac,
                });
            }
            None => rep.check("drained", false, "daemon did not drain".to_string()),
        }
        if traced {
            daemon_layers(&mut rep, &registry, &before_drain, &rcu_ns);
        }
        rep
    }

    fn final_checks(&mut self, reps: &[Rep]) -> Vec<Check> {
        let (reference, failed) = *self
            .reference
            .get_or_insert_with(|| engine_replay(&self.cfg));
        let got = reps.first().map_or(0, |r| r.fingerprint);
        vec![Check {
            name: "daemon_matches_engine",
            ok: got == reference && failed == 0,
            detail: format!(
                "daemon {got:016x}, engine {reference:016x} ({failed} failed engine inputs)"
            ),
        }]
    }
}

/// The daemon's inputs driven straight through an [`Engine`] set up
/// as the daemon sets up its own; returns the record fingerprint and
/// the count of inputs the engine refused.
fn engine_replay(cfg: &Config) -> (u64, u64) {
    let (cluster, sim, jobs, faults) = session_inputs(cfg);
    let service = plan_service(&cluster, DAEMON_SERVICE_SEED, None);
    let mut policy = ArenaPolicy::new().with_worker_threads(1);
    let plan = one_worker_plan(&cluster, cluster.num_pools());
    let mut engine = Engine::new(
        &cluster,
        &mut policy,
        &service,
        &sim,
        &Obs::disabled(),
        &plan,
    );
    let d = drive(&mut engine, &mut VecSource::new(jobs), &faults);
    (record_fingerprint(&engine.finish().records), d.failed)
}

/// Daemon-side layer values, read from the daemon's own registry.
fn daemon_layers(
    rep: &mut Rep,
    registry: &arena_obs::MetricsRegistry,
    before_drain: &BTreeMap<String, arena_obs::HistStats>,
    rcu_ns: &[f64],
) {
    let hists = registry.histograms_snapshot();
    let hist =
        |m: &BTreeMap<String, arena_obs::HistStats>, n: &str| m.get(n).copied().unwrap_or_default();
    // Percentiles interpolated inside the registry's log2 buckets.
    let hist_us = |n: &str, p: f64| {
        let h = registry.histogram(n).snapshot();
        bucket_percentile(&h.buckets, h.min_ticks, h.max_ticks, p).map_or(0.0, |ns| ns / 1e3)
    };
    let burst = hist(&hists, "sim.stage.burst_seconds");
    let sched = hist(&hists, "sim.schedule");
    let prepare = hist(&hists, "sim.shard.prepare");
    let publish = hist(&hists, "server.publish_seconds");
    let events: u64 = registry
        .counters_snapshot()
        .iter()
        .filter(|(k, _)| k.starts_with("sim.event."))
        .map(|(_, v)| v)
        .sum();
    let est_busy = registry.gauge("sim.estimator.estimate_seconds").get();
    let named = spans::by_name(&rep.spans);
    let busy = |n: &str| named.get(n).map_or(0.0, |s| s.busy_ns as f64 * 1e-9);
    let writes = busy("server.submit") + busy("server.fault");
    let pre_drain = hist(before_drain, "sim.stage.burst_seconds").sum
        + hist(before_drain, "server.publish_seconds").sum;
    let mut rcu = rcu_ns.to_vec();
    rcu.sort_by(f64::total_cmp);
    let sched_busy = sched.sum + prepare.sum;
    let l = &mut rep.layers;
    l.insert("sim.steps", burst.count as f64);
    l.insert("sim.events", events as f64);
    l.insert("sim.step_busy_s", burst.sum);
    l.insert("sim.self_s", burst.sum - sched_busy);
    if events > 0 {
        l.insert(
            "sim.self_ns_per_event",
            (burst.sum - sched_busy) * 1e9 / events as f64,
        );
    }
    l.insert("sim.step_p99_us", hist_us("sim.stage.burst_seconds", 99.0));
    l.insert("sched.passes", sched.count as f64);
    l.insert("sched.busy_s", sched_busy);
    l.insert("sched.self_s", sched_busy - est_busy);
    l.insert("sched.pass_p50_us", hist_us("sim.schedule", 50.0));
    l.insert("sched.pass_p99_us", hist_us("sim.schedule", 99.0));
    l.insert("sched.share", sched_busy / rep.measured_s);
    l.insert(
        "estimator.hit_ratio",
        registry.gauge("sim.estimator.estimate_hit_ratio").get(),
    );
    l.insert("estimator.busy_s", est_busy);
    l.insert("server.submit_busy_s", busy("server.submit"));
    l.insert("server.burst_busy_s", burst.sum);
    l.insert("server.publish_busy_s", publish.sum);
    l.insert("server.codec_other_s", writes - pre_drain);
    let mut reads = named
        .get("server.query")
        .map_or_else(Vec::new, |q| q.durs_ns.clone());
    reads.sort_by(f64::total_cmp);
    for (name, p) in [("server.query_p50_us", 50.0), ("server.query_p99_us", 99.0)] {
        l.insert(name, percentile(&reads, p).unwrap_or(0.0) / 1e3);
    }
    l.insert("server.rcu_load_ns", percentile(&rcu, 50.0).unwrap_or(0.0));
}
