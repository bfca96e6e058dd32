//! End-to-end and per-layer benchmark of the Arena scheduler stack.
//!
//! ```text
//! arena-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--trace-seed <n>] [--fault-seed <n>]
//! ```
//!
//! Repeats the workload's rep (set-up, then one timed run) until
//! `--seconds` have passed, checks every output, and reports every
//! timing as the median over reps of the rep's timing at the reference
//! host's speed (see [`hostspeed`]). It prints a human-readable report
//! followed, as the last line, by one JSON object: `{"correct",
//! "attempted", "failed", "metrics"}`. With `--trace 0` the reps are
//! untraced and the metrics are the end-to-end table; with `--trace 1`
//! the reps are traced and the metrics are the per-layer table (see
//! `LAYERS.md`).
//! What `--seed` seeds, and why job traces keep recorded seeds, is on
//! [`workloads::Config`].

mod hostspeed;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use stats::{highest_percentile, median, percentile};
use workloads::{Check, Config, Rep};

const USAGE: &str = "usage: arena-perfbench --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--trace-seed <n>] [--fault-seed <n>]";

/// Reps a run makes at least, however long they take. `peak_rss_mib`
/// is read after this many, so it does not grow with the number of
/// reps a faster host or commit fits in.
const MIN_REPS: usize = 3;

/// Program knobs read from the environment. The benchmark clears them
/// and sets every such setting through the API instead.
const AMBIENT_KNOBS: [&str; 3] = [
    "ARENA_WORKER_THREADS",
    "ARENA_SHARDS",
    "ARENA_MEM_BUDGET_BYTES",
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
const LAYER_METRICS: [(&str, &str); 38] = [
    ("sim.steps", "count"),
    ("sim.events", "count"),
    ("sim.step_busy_s", "s"),
    ("sim.self_s", "s"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.step_p99_us", "us"),
    ("sim.submit_busy_s", "s"),
    ("sim.finish_s", "s"),
    ("sched.passes", "count"),
    ("sched.busy_s", "s"),
    ("sched.self_s", "s"),
    ("sched.pass_p50_us", "us"),
    ("sched.pass_p99_us", "us"),
    ("sched.share", "frac"),
    ("sched.memo_hit_ratio", "frac"),
    ("sched.memo_invalidations", "count"),
    ("estimator.misses", "count"),
    ("estimator.hit_ratio", "frac"),
    ("estimator.busy_s", "s"),
    ("estimator.ns_per_miss", "ns"),
    ("estimator.profile_misses", "count"),
    ("estimator.table_misses", "count"),
    ("mem.plan_bytes", "B"),
    ("mem.plan_entries", "count"),
    ("mem.estimator_bytes", "B"),
    ("mem.evictions", "count"),
    ("trace.jobs", "count"),
    ("trace.next_busy_s", "s"),
    ("server.submit_busy_s", "s"),
    ("server.burst_busy_s", "s"),
    ("server.publish_busy_s", "s"),
    ("server.codec_other_s", "s"),
    ("server.query_p50_us", "us"),
    ("server.query_p99_us", "us"),
    ("server.rcu_load_ns", "ns"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.coverage_frac", "frac"),
    ("bench.host_slowdown", "x"),
];

/// Whether a metric of this unit is a time, which [`per_layer`] scales
/// to the reference host's speed.
fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_seed: Option<u64>,
    fault_seed: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name, value);
    }
    let num = |name: &str| -> Result<Option<u64>, String> {
        flags
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: not a whole number"))
            })
            .transpose()
    };
    let args = Args {
        workload: flags
            .get("workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: num("seed")?.ok_or("--seed is required")?,
        seconds: num("seconds")?.ok_or("--seconds is required")? as f64,
        trace: match flags.get("trace").copied() {
            Some("0") | None => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
        },
        trace_seed: num("trace-seed")?,
        fault_seed: num("fault-seed")?,
    };
    for name in flags.keys() {
        if ![
            "workload",
            "seed",
            "seconds",
            "trace",
            "trace-seed",
            "fault-seed",
        ]
        .contains(name)
        {
            return Err(format!("unknown flag --{name}"));
        }
    }
    Ok(args)
}

/// Pins the calling thread to the CPU it is running on and returns that
/// CPU. Threads it spawns later inherit the mask (see
/// [`workloads::Workload::pins_to_one_cpu`]).
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory
    // of ours.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // 1,024 CPUs, the size of the C library's `cpu_set_t`.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is an initialised buffer of exactly the length
    // passed, which the call only reads; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// The process's peak resident set, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Folds per-rep checks into one check per name, plus the checks that
/// compare reps with each other.
fn run_checks(reps: &[Rep]) -> Vec<Check> {
    let mut by_name: BTreeMap<&'static str, Check> = BTreeMap::new();
    for c in reps.iter().flat_map(|r| &r.checks) {
        let e = by_name.entry(c.name).or_insert_with(|| c.clone());
        if e.ok && !c.ok {
            *e = c.clone();
        }
    }
    let mut out: Vec<Check> = by_name.into_values().collect();
    let first = &reps[0];
    out.push(Check {
        name: "fingerprint_stable",
        ok: reps.iter().all(|r| r.fingerprint == first.fingerprint),
        detail: format!(
            "record fingerprint {:016x} on all {} reps",
            first.fingerprint,
            reps.len()
        ),
    });
    let min_samples = reps
        .iter()
        .map(|r| r.host.map_or(0, |h| h.samples))
        .min()
        .unwrap_or(0);
    out.push(Check {
        name: "host_sampled",
        ok: min_samples > 0 && reps.iter().all(|r| r.slowdown().is_finite()),
        detail: format!("every rep has >= {min_samples} host-speed samples"),
    });
    out.push(Check {
        name: "quality_stable",
        ok: first.quality.is_some() && reps.iter().all(|r| r.quality == first.quality),
        detail: format!("{:?} on all reps", first.quality),
    });
    out
}

/// A metric table under construction.
#[derive(Default)]
struct Metrics {
    rows: Vec<(&'static str, f64, &'static str, String)>,
}

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.rows.push((name, value, unit, note));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit, _)) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value fails the `finite_metrics` check; the
            // line stays valid JSON.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Pushes the median over reps of each rep's submit-latency p50 and
/// p99 (at the reference host's speed), in milliseconds, noting the
/// sample count and the highest percentile the samples support.
fn push_submit_tail(m: &mut Metrics, checks: &mut Vec<Check>, reps: &[&Rep]) {
    let per_rep: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| {
            let mut v: Vec<f64> = r.submit_lat_s.iter().map(|s| s * 1e3).collect();
            v.sort_by(f64::total_cmp);
            v
        })
        .collect();
    let median_of = |p: f64| {
        let per_rep: Option<Vec<f64>> = per_rep.iter().map(|v| percentile(v, p)).collect();
        per_rep.and_then(|v| median(&v))
    };
    let fewest = per_rep.iter().min_by_key(|v| v.len());
    let note = match fewest.and_then(|v| highest_percentile(v)) {
        Some(t) => format!(
            "median of {} reps, >= {} samples each (enough for p{})",
            per_rep.len(),
            t.count,
            t.p
        ),
        None => "no samples".to_string(),
    };
    let p99 = median_of(99.0);
    checks.push(Check {
        name: "submit_p99_ms",
        ok: p99.is_some(),
        detail: format!("every rep has ten samples beyond its p99: {note}"),
    });
    m.push(
        "submit_p50_ms",
        median_of(50.0).unwrap_or(f64::NAN),
        "ms",
        note.clone(),
    );
    m.push("submit_p99_ms", p99.unwrap_or(f64::NAN), "ms", note);
}

fn med(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Jobs per second of the rep at the reference host's speed.
fn jobs_per_s(r: &Rep) -> f64 {
    r.jobs as f64 * r.slowdown() / r.measured_s
}

fn end_to_end(reps: &[Rep], checks: &mut Vec<Check>, rss_mib: f64) -> Metrics {
    let all: Vec<&Rep> = reps.iter().collect();
    let mut m = Metrics::default();
    let n = reps.len();
    let note = format!("median of {n} reps");
    m.push(
        "setup_s",
        med(&all, |r| r.setup_s / r.slowdown()),
        "s",
        note.clone(),
    );
    m.push("jobs_per_s", med(&all, jobs_per_s), "1/s", note.clone());
    m.push(
        "commands_per_s",
        med(&all, |r| r.commands as f64 * r.slowdown() / r.measured_s),
        "1/s",
        note,
    );
    push_submit_tail(&mut m, checks, &all);
    m.push(
        "peak_rss_mib",
        rss_mib,
        "MiB",
        format!("VmHWM after {MIN_REPS} reps"),
    );
    let q = reps[0].quality.unwrap_or(workloads::Quality {
        avg_jct_h: f64::NAN,
        cluster_util: f64::NAN,
        goodput_frac: f64::NAN,
    });
    let sim = "simulated, identical on every rep".to_string();
    m.push("avg_jct_h", q.avg_jct_h, "sim_h", sim.clone());
    m.push("cluster_util", q.cluster_util, "frac", sim.clone());
    m.push("goodput_frac", q.goodput_frac, "frac", sim);
    m
}

/// Nanoseconds one span adds to the thread that records it, measured
/// on a throwaway recorder.
fn span_cost_ns() -> f64 {
    const N: u32 = 200_000;
    spans::install();
    let t = Instant::now();
    for _ in 0..N {
        spans::timed("bench.calibrate", || black_box(()));
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(N);
    drop(spans::take());
    ns
}

/// The per-layer table of traced reps, each value the median over reps
/// and every time at the reference host's speed.
/// `bench.trace_overhead_frac` is the time the spans themselves add to
/// a rep, `span_ns` each, over the rep's timed wall time.
fn per_layer(reps: &[Rep], span_ns: f64) -> Metrics {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let overhead = med(&traced, |r| {
        r.spans.len() as f64 * span_ns * 1e-9 / r.measured_s
    });
    let coverage = med(&traced, |r| {
        spans::top_level_ns(&r.spans) as f64 * 1e-9 / r.measured_s
    });
    let mut m = Metrics::default();
    for (name, unit) in LAYER_METRICS {
        let value = match name {
            "bench.trace_overhead_frac" => overhead,
            "bench.coverage_frac" => coverage,
            "bench.host_slowdown" => med(&traced, Rep::slowdown),
            _ => med(&traced, |r| {
                let v = r.layers.get(name).copied().unwrap_or(0.0);
                if is_time(unit) {
                    v / r.slowdown()
                } else {
                    v
                }
            }),
        };
        m.push(name, value, unit, String::new());
    }
    m
}

/// Writes every traced rep's spans to `.bench_out/` in the working
/// directory; returns the path written.
fn write_spans(args: &Args, reps: &[Rep]) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/{}-seed{}-spans.csv", args.workload, args.seed);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    std::io::Write::write_all(&mut out, b"rep,name,start_ns,end_ns,parent\n")?;
    for (i, r) in reps.iter().enumerate().filter(|(_, r)| r.traced) {
        spans::write_csv(&mut out, i, &r.spans)?;
    }
    std::io::Write::flush(&mut out)?;
    Ok(path)
}

fn main() {
    let started = Instant::now();
    for knob in AMBIENT_KNOBS {
        std::env::remove_var(knob);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let cfg = Config {
        seed: args.seed,
        trace_seed: args.trace_seed,
        fault_seed: args.fault_seed,
        tiny: false,
    };
    let Some(mut workload) = workloads::build(&args.workload, cfg) else {
        eprintln!(
            "unknown workload `{}` (expected one of {:?})",
            args.workload,
            workloads::NAMES
        );
        std::process::exit(2);
    };

    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let pinned = if workload.pins_to_one_cpu() {
        pin_to_current_cpu()
    } else {
        None
    };
    println!(
        "workload {}, seeds: {}, seconds {}, trace {}, \
         available parallelism {parallelism}, pinned to cpu {pinned:?}",
        args.workload,
        workload.seeds(),
        args.seconds,
        u8::from(args.trace),
    );
    let mut reps: Vec<Rep> = Vec::new();
    let mut rss_mib = 0.0;
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let rep = workload.rep(args.trace);
        let ms = |v: &[f64], p: f64| {
            let mut v: Vec<f64> = v.iter().map(|s| s * 1e3).collect();
            v.sort_by(f64::total_cmp);
            percentile(&v, p).unwrap_or(f64::NAN)
        };
        println!(
            "rep {:>2} {:>8}: setup {:.4} s, run {:.4} s, host slowdown {:.3}, {} jobs, \
             {} commands, {} failed, submit p50/p99 {:.4}/{:.4} ms at reference speed",
            reps.len(),
            if rep.traced { "traced" } else { "untraced" },
            rep.setup_s,
            rep.measured_s,
            rep.slowdown(),
            rep.jobs,
            rep.commands,
            rep.failed,
            ms(&rep.submit_lat_s, 50.0),
            ms(&rep.submit_lat_s, 99.0),
        );
        reps.push(rep);
        if reps.len() == MIN_REPS {
            rss_mib = peak_rss_mib().unwrap_or(0.0);
        }
    }

    let mut checks = run_checks(&reps);
    checks.extend(workload.final_checks(&reps));
    let metrics = if args.trace {
        match write_spans(&args, &reps) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => println!("spans not written: {e}"),
        }
        let span_ns = span_cost_ns();
        println!("one span costs {span_ns:.1} ns");
        per_layer(&reps, span_ns)
    } else {
        end_to_end(&reps, &mut checks, rss_mib)
    };
    checks.push(Check {
        name: "finite_metrics",
        ok: metrics.rows.iter().all(|r| r.1.is_finite()),
        detail: format!("{} metrics", metrics.rows.len()),
    });

    for c in &checks {
        println!(
            "check {:<24} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for (name, value, unit, note) in &metrics.rows {
        println!("metric {name:<26} {value:>16.6} {unit:<6} {note}");
    }
    let attempted: u64 = reps.iter().map(|r| r.commands).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let correct = checks.iter().all(|c| c.ok);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload hit --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hit", 7, 10.0, true)
        );
        assert_eq!((a.trace_seed, a.fault_seed), (None, None));
        let a = parse_args(&argv("--workload x --seed 1 --seconds 1 --fault-seed 9")).unwrap();
        assert_eq!((a.trace, a.fault_seed), (false, Some(9)));
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --bogus 1")).is_err());
    }

    /// The workloads and metrics this program reports are the ones
    /// `BENCHMARK.json` declares, in the same order and units.
    #[test]
    fn matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // The package was copied without the repository.
        };
        let doc: serde::Value = serde_json::from_str(&text).unwrap();
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(serde::Value::as_array)
                .unwrap()
                .iter()
                .map(|e| match e.get(field) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    other => panic!("{key}.{field}: {other:?}"),
                })
                .collect()
        };
        assert_eq!(list("workloads", "name"), workloads::NAMES);
        let layer_names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        let layer_units: Vec<&str> = LAYER_METRICS.iter().map(|m| m.1).collect();
        assert_eq!(list("per_layer", "name"), layer_names);
        assert_eq!(list("per_layer", "unit"), layer_units);
        let mut w = workloads::build(
            "engine_faulted",
            Config {
                seed: 1,
                trace_seed: None,
                fault_seed: None,
                tiny: true,
            },
        )
        .unwrap();
        let reps = vec![w.rep(false)];
        let e2e = end_to_end(&reps, &mut Vec::new(), 1.0);
        let names: Vec<&str> = e2e.rows.iter().map(|r| r.0).collect();
        let units: Vec<&str> = e2e.rows.iter().map(|r| r.2).collect();
        assert_eq!(list("end_to_end", "name"), names);
        assert_eq!(list("end_to_end", "unit"), units);
    }

    /// Every workload at a tiny size: an untraced and a traced rep pass
    /// every check with no failed operation and produce the same
    /// records, and the traced rep fills the per-layer table.
    #[test]
    fn smoke_every_workload_at_tiny_size() {
        for name in workloads::NAMES {
            let cfg = Config {
                seed: 3,
                trace_seed: Some(5),
                fault_seed: None,
                tiny: true,
            };
            let mut w = workloads::build(name, cfg).unwrap();
            let reps = vec![w.rep(false), w.rep(true)];
            let mut checks = run_checks(&reps);
            checks.extend(w.final_checks(&reps));
            for c in &checks {
                assert!(c.ok, "{name}: check {} failed: {}", c.name, c.detail);
            }
            for r in &reps {
                assert!(
                    r.jobs > 0 && r.failed == 0,
                    "{name}: {} jobs, {} failed",
                    r.jobs,
                    r.failed
                );
                assert!(!r.submit_lat_s.is_empty(), "{name}");
            }
            assert!(
                reps[0].spans.is_empty() && !reps[1].spans.is_empty(),
                "{name}"
            );
            let layers = per_layer(&reps, 1.0);
            let get = |n: &str| layers.rows.iter().find(|r| r.0 == n).unwrap().1;
            assert!(
                get("sim.steps") > 0.0 && get("sched.passes") > 0.0,
                "{name}"
            );
            assert!(get("bench.coverage_frac") > 0.5, "{name}");
            assert!(get("bench.trace_overhead_frac") > 0.0, "{name}");
            // A tiny rep has too few samples for a p99; all else is set.
            let e2e = end_to_end(&reps[..1], &mut Vec::new(), 1.0);
            assert!(
                e2e.rows
                    .iter()
                    .all(|r| r.1.is_finite() || r.0 == "submit_p99_ms"),
                "{name}"
            );
        }
    }
}
