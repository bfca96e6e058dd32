//! Boundary wrappers that time calls into a layer from outside it.
//!
//! Traced runs hand the engine these instead of the bare policy and
//! trace source; each call they forward opens a span (see
//! [`crate::spans`]). Untraced runs use the bare objects.

use arena_sched::{Action, PlanMode, Policy, SchedEvent, SchedView, ShardQueue};
use arena_trace::{JobSpec, TraceSource};

use crate::spans::span;

/// A policy whose `schedule` and `prepare_shards` calls are spans
/// `sched.schedule` and `sched.prepare`.
pub struct TimedPolicy<P>(pub P);

impl<P: Policy> Policy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn plan_mode(&self) -> PlanMode {
        self.0.plan_mode()
    }

    fn schedule(&mut self, event: SchedEvent, view: &SchedView<'_>) -> Vec<Action> {
        let _s = span("sched.schedule");
        self.0.schedule(event, view)
    }

    fn prepare_shards(&mut self, shards: &[ShardQueue<'_>], view: &SchedView<'_>) {
        let _s = span("sched.prepare");
        self.0.prepare_shards(shards, view);
    }
}

/// A trace source whose pulls are spans `trace.next_job`.
pub struct TimedSource<S>(pub S);

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn next_job(&mut self) -> std::io::Result<Option<JobSpec>> {
        let _s = span("trace.next_job");
        self.0.next_job()
    }
}
