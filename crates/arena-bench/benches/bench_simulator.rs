//! Criterion: end-to-end simulator throughput — one full testbed trace
//! replay per iteration, per policy (the engine behind Figs. 14–21).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use arena::prelude::*;

fn bench_replay(c: &mut Criterion) {
    let cluster = arena::cluster::presets::physical_testbed();
    let cfg = TraceConfig::new(TraceKind::PhillyHeavy, 2.0 * 3600.0, 64, vec![48.0, 24.0]);
    let jobs = generate(&cfg);
    let service = PlanService::new(&cluster, CostParams::default(), 77);
    let sim_cfg = SimConfig::new(24.0 * 3600.0);

    // Warm the plan caches once; the bench then measures the event loop
    // and policy logic, as in a long-running scheduler process.
    let _ = Sim::new(&cluster, &mut ArenaPolicy::new(), &service, &sim_cfg)
        .run(&jobs)
        .expect("generated traces are valid");

    let mut group = c.benchmark_group("simulator/replay_2h_trace");
    group.sample_size(10);
    group.bench_function("fcfs", |b| {
        b.iter(|| {
            let mut p = FcfsPolicy::new();
            black_box(
                Sim::new(&cluster, &mut p, &service, &sim_cfg)
                    .run(black_box(&jobs))
                    .expect("generated traces are valid"),
            )
        })
    });
    group.bench_function("elasticflow_ls", |b| {
        b.iter(|| {
            let mut p = ElasticFlowPolicy::loosened();
            black_box(
                Sim::new(&cluster, &mut p, &service, &sim_cfg)
                    .run(black_box(&jobs))
                    .expect("generated traces are valid"),
            )
        })
    });
    group.bench_function("arena", |b| {
        b.iter(|| {
            let mut p = ArenaPolicy::new();
            black_box(
                Sim::new(&cluster, &mut p, &service, &sim_cfg)
                    .run(black_box(&jobs))
                    .expect("generated traces are valid"),
            )
        })
    });
    group.bench_function("arena_solver", |b| {
        b.iter(|| {
            let mut p = ArenaSolverPolicy::new();
            black_box(
                Sim::new(&cluster, &mut p, &service, &sim_cfg)
                    .run(black_box(&jobs))
                    .expect("generated traces are valid"),
            )
        })
    });
    group.finish();
}

/// The loaded engine round: 5000 jobs arriving every 30 s under a
/// generated node-failure schedule, replayed with FCFS so the event
/// loop — not the policy — dominates the measurement. Mirrors the
/// `sim/simulate_5000_jobs_faulted_fcfs` entry of `bench_sim_baseline`.
fn bench_loaded_faulted(c: &mut Criterion) {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 51);
    let n = 5000_u64;
    let jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            let fam =
                [ModelFamily::Bert, ModelFamily::Moe, ModelFamily::WideResNet][(i % 3) as usize];
            let size = if fam == ModelFamily::WideResNet {
                1.0
            } else {
                1.3
            };
            JobSpec {
                id: i,
                name: format!("j{i}"),
                submit_s: 30.0 * i as f64,
                model: ModelConfig::new(fam, size, 256),
                iterations: 400 + 100 * (i % 4),
                requested_gpus: 4,
                requested_pool: i as usize % 2,
                deadline_s: None,
            }
        })
        .collect();
    let faults = arena::trace::generate_faults(
        &arena::trace::FaultConfig::with_mtbf(60_000.0),
        &[16, 16],
        n as f64 * 30.0 * 1.4,
    );
    let sim_cfg = SimConfig::new(30.0 * 24.0 * 3600.0);
    let _ = Sim::new(&cluster, &mut FcfsPolicy::new(), &service, &sim_cfg)
        .faults(&faults)
        .run(&jobs)
        .expect("generated traces are valid");

    let mut group = c.benchmark_group("simulator/loaded_5k_faulted");
    group.sample_size(10);
    group.bench_function("fcfs", |b| {
        b.iter(|| {
            let mut p = FcfsPolicy::new();
            black_box(
                Sim::new(&cluster, &mut p, &service, &sim_cfg)
                    .faults(&faults)
                    .run(black_box(&jobs))
                    .expect("generated traces are valid"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_replay, bench_loaded_faulted);
criterion_main!(benches);
