//! In-memory span recorder for traced runs.
//!
//! A span is one call into a layer, timed from the benchmark's side of
//! the boundary: its name, start, end and the span open when it began.
//! Spans are kept in memory on the recording thread and written out
//! when the run ends. Untraced runs never install a recorder, so
//! [`span`] is then a thread-local flag check and nothing else.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.schedule`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was installed.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was installed.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier spans.
pub fn install() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Stops recording on this thread and returns every span recorded.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            RECORDER.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
                    rec.open.pop();
                }
            });
        }
    }
}

/// Opens a span named `name` that closes when the guard drops. A no-op
/// without an installed recorder.
#[must_use]
pub fn span(name: &'static str) -> Guard {
    Guard(RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len();
        let now = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: rec.open.last().copied(),
        });
        rec.open.push(idx);
        Some(idx)
    }))
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = span(name);
    f()
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub busy_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
    /// Every duration, nanoseconds, in recording order.
    pub durs_ns: Vec<f64>,
}

/// Groups spans by name.
#[must_use]
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.busy_ns += s.dur_ns();
        e.self_ns += self_ns;
        e.durs_ns.push(s.dur_ns() as f64);
    }
    out
}

/// Summed duration of the spans with no parent.
#[must_use]
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

/// Writes spans as CSV (`rep,name,start_ns,end_ns,parent`), one line
/// per span, under the label `rep`.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_csv(out: &mut impl Write, rep: usize, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(out, "{rep},{},{},{},{parent}", s.name, s.start_ns, s.end_ns)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) holds a [10,40) and b [50,90); b holds c [60,70).
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 50, 90, Some(0)),
            sp("c", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        let named = by_name(&spans);
        assert_eq!(named["root"].self_ns, 30);
        assert_eq!(named["b"].busy_ns, 40);
        assert_eq!(top_level_ns(&spans), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 60, Some(0)),
            sp("b", 40, 80, Some(0)),
            // Clipped to the parent's interval.
            sp("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_guards_and_is_inert_when_not_installed() {
        drop(span("ignored"));
        assert!(take().is_empty());
        install();
        timed("outer", || {
            let _inner = span("inner");
        });
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Recording stopped with `take`.
        drop(span("after"));
        assert!(take().is_empty());
    }
}
