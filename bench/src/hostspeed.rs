//! Host speed, sampled on the measuring thread during the timed run.
//!
//! The benchmark runs on a few vCPUs of a shared host. How fast a vCPU
//! runs the same code moves by up to 2x over seconds, as other tenants
//! load the physical core under it, and the slowdown is local to that
//! core: a reference loop on the other vCPU, or one timed between reps,
//! follows it only loosely. So the timed loops call [`tick`] between
//! the program's operations, and every [`INTERVAL`] it times fixed
//! reference passes right there, on the same thread and core, with the
//! run's clock stopped. A sample's slowdown is how many times longer
//! than on the reference host the passes took. Each stretch of program
//! time between two samples is divided by the mean of their slowdowns;
//! the sum is the run's time at the reference host's speed, and its
//! ratio to the run's own time is how much slower than the reference
//! host the run went ([`HostSpeed::slowdown`]). The benchmark divides
//! its timings by that ratio, and each single operation's latency by
//! the slowdown at the sample before it ([`current_slowdown`]).
//!
//! The passes touch no code of the program under test. Each is
//! hash-map inserts and lookups, a float sort and small heap
//! allocations, the kind of work the program does; [`SMALL`] keeps its
//! data in the first-level cache and [`LARGE`] spills to the second.
//! Different loads on the host slow them, and the workloads, by
//! different amounts: per rep, the workloads' times moved 0.75-1.5
//! times as much as the small pass's and 0.55-1.25 times as much as the
//! large one's, so a sample takes the geometric mean of the two. Each
//! pass runs twice and only the second, warm, run is timed, so what the
//! program left in the caches does not move the reading.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time between samples. A sample costs ~5 ms, so sampling adds ~5%
/// to the run's wall time, all of it outside the timings.
pub const INTERVAL: Duration = Duration::from_millis(100);

/// xorshift64: a deterministic stream without a dependency.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One reference pass's size, and about its time on the reference host
/// (a 2-vCPU Xeon virtual machine) when quiet. The time only sets the
/// scale of the reported timings; any fixed value would do.
struct PassSize {
    /// Keys inserted into and looked up in the hash map.
    keys: usize,
    /// Floats sorted.
    floats: usize,
    /// Small allocations made and freed.
    allocs: usize,
    /// Seconds on the reference host.
    reference_s: f64,
}

/// A pass whose data stays in the first-level cache.
const SMALL: PassSize = PassSize {
    keys: 1_000,
    floats: 2_000,
    allocs: 1_000,
    reference_s: 100e-6,
};

/// A pass over ~1 MB, which spills to the second-level cache.
const LARGE: PassSize = PassSize {
    keys: 16_000,
    floats: 32_000,
    allocs: 2_000,
    reference_s: 1.6e-3,
};

/// One reference pass's inputs and buffers, built once.
struct Pass {
    keys: Vec<u64>,
    floats: Vec<f64>,
    allocs: usize,
    reference_s: f64,
    map: HashMap<u64, u64>,
    sorted: Vec<f64>,
}

impl Pass {
    fn new(size: &PassSize) -> Self {
        let mut x = 0x5EED_u64;
        let keys = (0..size.keys).map(|_| next(&mut x)).collect();
        let floats = (0..size.floats)
            .map(|_| (next(&mut x) >> 11) as f64 * 1e-6)
            .collect();
        Self {
            keys,
            floats,
            allocs: size.allocs,
            reference_s: size.reference_s,
            map: HashMap::with_capacity(size.keys),
            sorted: Vec::with_capacity(size.floats),
        }
    }

    fn run(&mut self) {
        self.map.clear();
        for (i, &k) in self.keys.iter().enumerate() {
            self.map.insert(k, i as u64);
        }
        let hits: u64 = self.keys.iter().rev().filter_map(|k| self.map.get(k)).sum();
        black_box(hits);
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.floats);
        self.sorted.sort_by(f64::total_cmp);
        black_box(self.sorted[self.sorted.len() / 2]);
        let mut total = 0usize;
        for i in 0..self.allocs {
            let v: Vec<u64> = vec![i as u64; 4 + i % 13];
            total += black_box(v).len();
        }
        black_box(total);
    }

    /// A warm run's time over the reference host's: one untimed run,
    /// then a timed one.
    fn slowdown(&mut self) -> f64 {
        self.run();
        let t = Instant::now();
        self.run();
        t.elapsed().as_secs_f64() / self.reference_s
    }
}

/// The two passes.
struct Reference {
    small: Pass,
    large: Pass,
}

impl Reference {
    fn new() -> Self {
        Self {
            small: Pass::new(&SMALL),
            large: Pass::new(&LARGE),
        }
    }

    /// The host's slowdown now: the geometric mean of the two passes'.
    fn sample(&mut self) -> f64 {
        (self.small.slowdown() * self.large.slowdown()).sqrt()
    }
}

/// How fast the host ran during one timed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    /// Samples taken, including the one at each end.
    pub samples: usize,
    /// Program time between the samples, seconds.
    pub program_s: f64,
    /// The same at the reference host's speed, seconds.
    pub reference_s: f64,
    /// Wall time the samples inside the run took, seconds, which the
    /// run's timing leaves out.
    pub paused_s: f64,
}

impl HostSpeed {
    /// How many times slower than the reference host the run went.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.program_s / self.reference_s
    }
}

/// A thread's sampling state between [`start`] and [`stop`].
struct Sampler {
    reference: Reference,
    /// When the last sample ended.
    last: Instant,
    /// The last sample's slowdown.
    last_slowdown: f64,
    samples: usize,
    program_s: f64,
    reference_s: f64,
    paused: Duration,
}

impl Sampler {
    /// Samples at `now`, which ends a stretch of program time that
    /// started when the last sample ended.
    fn sample(&mut self, now: Instant) {
        let slowdown = self.reference.sample();
        let stretch_s = (now - self.last).as_secs_f64();
        self.program_s += stretch_s;
        self.reference_s += stretch_s / ((self.last_slowdown + slowdown) / 2.0);
        self.samples += 1;
        self.last_slowdown = slowdown;
        self.last = Instant::now();
    }
}

thread_local! {
    static SAMPLER: RefCell<Option<Sampler>> = const { RefCell::new(None) };
    static REFERENCE: RefCell<Option<Reference>> = const { RefCell::new(None) };
}

/// Starts sampling on this thread with one sample, taken now, before
/// the caller starts its clock.
pub fn start() {
    let mut reference = REFERENCE
        .with(|r| r.borrow_mut().take())
        .unwrap_or_else(Reference::new);
    let slowdown = reference.sample();
    SAMPLER.with(|s| {
        *s.borrow_mut() = Some(Sampler {
            reference,
            last: Instant::now(),
            last_slowdown: slowdown,
            samples: 1,
            program_s: 0.0,
            reference_s: 0.0,
            paused: Duration::ZERO,
        });
    });
}

/// Takes a sample if [`INTERVAL`] has passed since the last one. Call
/// it between operations of the program, never inside a timed call.
pub fn tick() {
    SAMPLER.with(|s| {
        if let Some(s) = s.borrow_mut().as_mut() {
            let now = Instant::now();
            if now - s.last >= INTERVAL {
                s.sample(now);
                s.paused += s.last - now;
            }
        }
    });
}

/// How many times slower than the reference host this thread ran at
/// its last sample: the scale for a single operation timed since; NaN
/// when not sampling.
#[must_use]
pub fn current_slowdown() -> f64 {
    SAMPLER.with(|s| s.borrow().as_ref().map_or(f64::NAN, |s| s.last_slowdown))
}

/// Stops sampling on this thread with a last sample, taken after the
/// caller stopped its clock, and returns what it measured; `None` if
/// [`start`] was not called.
pub fn stop() -> Option<HostSpeed> {
    let mut s = SAMPLER.with(|s| s.borrow_mut().take())?;
    s.sample(Instant::now());
    let speed = HostSpeed {
        samples: s.samples,
        program_s: s.program_s,
        reference_s: s.reference_s,
        paused_s: s.paused.as_secs_f64(),
    };
    REFERENCE.with(|r| *r.borrow_mut() = Some(s.reference));
    Some(speed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_only_between_start_and_stop() {
        tick();
        assert_eq!(stop(), None);
        start();
        std::thread::sleep(INTERVAL);
        tick();
        tick();
        let speed = stop().unwrap();
        assert_eq!(speed.samples, 3);
        assert!(speed.program_s >= INTERVAL.as_secs_f64() && speed.paused_s > 0.0);
        assert!(speed.slowdown() > 0.0);
        tick();
        assert_eq!(stop(), None);
    }
}
