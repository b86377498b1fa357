//! [`ProcCtx`]: the per-process capability for applying primitives.

use crate::gate::Gate;
use crate::runtime::Runtime;
use crate::trace::AccessKind;
use std::sync::Arc;

/// The capability a process needs to apply primitives to base objects.
///
/// Every primitive method on [`Register`](crate::Register),
/// [`TasBit`](crate::TasBit), … takes a `&ProcCtx`; the context charges the
/// step to the owning process, records it in the trace when tracing is
/// enabled and, in gated mode, synchronizes with the controller so that
/// exactly one primitive is in flight at a time.
///
/// A `ProcCtx` is `Send` but deliberately not `Clone`/`Sync`: each process
/// of the modelled machine is a single sequential thread of control.
pub struct ProcCtx {
    runtime: Arc<Runtime>,
    pid: usize,
}

impl std::fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcCtx").field("pid", &self.pid).finish()
    }
}

impl ProcCtx {
    pub(crate) fn new(runtime: Arc<Runtime>, pid: usize) -> Self {
        ProcCtx { runtime, pid }
    }

    /// The process id this context acts for.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// The runtime this context belongs to.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Steps this process has performed so far.
    pub fn steps_taken(&self) -> u64 {
        self.runtime.steps_of(self.pid)
    }

    /// Charge one primitive step on base object `obj` to this process and
    /// — in gated mode — block until the controller grants it. The
    /// returned permit must be held for the duration of the primitive;
    /// dropping it signals step completion to the controller.
    ///
    /// In gated mode the step is counted and traced only *after* the
    /// grant, so counters and traces reflect execution order (which the
    /// gate serializes), not the racy order in which workers arrive. On
    /// the thread backend the grant edge is recorded here (the gate *is*
    /// the grant); the coop backend records it controller-side.
    ///
    /// The primitive reports its observed effect through
    /// [`StepPermit::record`]; when no consumer reads steps
    /// ([`StepPermit::traced`] is `false`) the recording — and any state
    /// digesting done to feed it — must be skipped, keeping untraced
    /// runs at native cost.
    #[inline]
    pub(crate) fn step(&self, obj: usize, kind: AccessKind) -> StepPermit<'_> {
        let gate = match &self.runtime.gate {
            None => None,
            Some(gate) => {
                let granted = gate.acquire(self.pid);
                if granted {
                    self.runtime.trace_grant(self.pid);
                }
                granted.then_some(gate)
            }
        };
        self.runtime.count_step(self.pid);
        StepPermit {
            runtime: &self.runtime,
            gate,
            pid: self.pid,
            obj,
            kind,
        }
    }
}

/// Held for the duration of one primitive application.
pub(crate) struct StepPermit<'a> {
    runtime: &'a Runtime,
    gate: Option<&'a Gate>,
    pid: usize,
    obj: usize,
    kind: AccessKind,
}

impl StepPermit<'_> {
    /// `true` if step events are built (the trace log is on, or an
    /// attached pass reads steps) and the primitive should digest its
    /// before/after states for [`record`](StepPermit::record).
    #[inline]
    pub(crate) fn traced(&self) -> bool {
        self.runtime.trace_steps()
    }

    /// Record the primitive's observed effect: the object's state digest
    /// immediately before and after the application. Must be called
    /// while the permit is held (the gate then serializes the trace).
    #[inline]
    pub(crate) fn record(&self, before: u64, after: u64) {
        self.runtime
            .trace_access(self.pid, self.obj, self.kind, before, after);
    }
}

impl Drop for StepPermit<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.gate {
            gate.step_done(self.pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counts_accumulate() {
        let rt = Runtime::free_running(2);
        let ctx = rt.ctx(1);
        {
            let _p = ctx.step(0, AccessKind::Read);
        }
        {
            let _p = ctx.step(0, AccessKind::Write);
        }
        assert_eq!(ctx.steps_taken(), 2);
        assert_eq!(rt.steps_of(0), 0);
    }
}
