//! [`LinearizabilityPass`]: the [`OnlineChecker`] packaged as an
//! [`smr::analysis::AnalysisPass`], so any gated driver run — and every
//! `smr::explore` replay — checks linearizability inline, with
//! findings surfaced (and ddmin-minimized by the explorer) like every
//! other pass finding.
//!
//! # The stream it reads
//!
//! The pass reads operation boundaries only (`Invoke`, `Complete`,
//! `Crash`) and declines the step class, so a run checked by this pass
//! alone builds no `Grant`/`Access` events. The runtime draws each
//! boundary's ticket and emits the event in one critical section, so
//! on every backend the boundaries arrive in ticket order, and the
//! pass applies each one to the checker as it
//! arrives: an announcement at its invocation ticket, a completion at
//! its response ticket, a crash closing the process's open operation
//! on the spot. An event that regresses the checker's watermark, or a
//! completion with no open announcement, means the runtime broke its
//! ordering contract; either is a finding naming the pid and the trace
//! seq, never a silent skip.
//!
//! Free-running runtimes emit no operation boundaries, so a pass
//! attached to one checks nothing. It says so through
//! [`summary`](AnalysisPass::summary) and counts
//! [`LINCHECK_INERT`](obs::names::LINCHECK_INERT) once per attach, so a
//! run summary never mistakes it for a clean verdict.
//!
//! `Custom` operations are outside both checkable vocabularies and
//! are skipped silently; a `Write` in counter mode (or an `Inc` in
//! max-register mode) is a real finding — the run is exercising an
//! object the checker was not configured for.

use crate::online::{CounterSpec, OnlineChecker};
use smr::analysis::{AnalysisPass, RunMeta, Violation};
use smr::{OpKind, OpRecord, TraceEvent};

enum Mode {
    Counter(CounterSpec),
    MaxReg(u64),
}

impl Mode {
    fn build(&self) -> OnlineChecker {
        match *self {
            Mode::Counter(spec) => OnlineChecker::counter_with(spec),
            Mode::MaxReg(k) => OnlineChecker::maxreg(k),
        }
    }
}

/// Streaming linearizability checking as an analysis pass. See the
/// [module docs](self).
pub struct LinearizabilityPass {
    mode: Mode,
    checker: OnlineChecker,
    /// First finding, sticky.
    found: Option<Violation>,
    /// Attached to a free-running runtime: no boundaries will arrive.
    inert: bool,
    /// Counts attaches to free-running runtimes, so a batch of runs
    /// shows how many were never checked.
    inert_transitions: &'static obs::Counter,
}

impl LinearizabilityPass {
    /// Check the run against the `k`-multiplicative counter spec.
    pub fn counter(k: u64) -> Self {
        Self::with_mode(Mode::Counter(CounterSpec::Multiplicative(k)))
    }

    /// Check the run against the `k`-additive counter spec.
    pub fn counter_additive(k: u64) -> Self {
        Self::with_mode(Mode::Counter(CounterSpec::Additive(k)))
    }

    /// Check the run against an arbitrary [`CounterSpec`].
    pub fn counter_with(spec: CounterSpec) -> Self {
        Self::with_mode(Mode::Counter(spec))
    }

    /// Check the run against the `k`-multiplicative max-register spec.
    pub fn maxreg(k: u64) -> Self {
        Self::with_mode(Mode::MaxReg(k))
    }

    fn with_mode(mode: Mode) -> Self {
        let checker = mode.build();
        LinearizabilityPass {
            mode,
            checker,
            found: None,
            inert: false,
            inert_transitions: obs::counter(obs::names::SUB_LINCHECK, obs::names::LINCHECK_INERT),
        }
    }

    fn report(&mut self, pid: usize, seq: u64, message: String) {
        self.found = Some(Violation {
            pass: "linearizability",
            pid: Some(pid),
            seq: Some(seq),
            message,
        });
    }
}

impl AnalysisPass for LinearizabilityPass {
    fn name(&self) -> &'static str {
        "linearizability"
    }

    fn on_attach(&mut self, meta: &RunMeta) {
        self.checker = self.mode.build();
        self.found = None;
        self.inert = !meta.gated;
        if self.inert {
            self.inert_transitions.inc();
        }
    }

    fn on_event(&mut self, ev: &TraceEvent) {
        if self.inert || self.found.is_some() {
            return;
        }
        // A completion's `inv` is unused: the checker takes the
        // invocation from the open announcement it matches.
        let (seq, pid, kind, inv, resp) = match *ev {
            TraceEvent::Invoke {
                seq,
                pid,
                kind,
                inv,
            } => (seq, pid, kind, inv, None),
            TraceEvent::Complete {
                seq,
                pid,
                kind,
                resp,
            } => (seq, pid, kind, 0, Some(resp)),
            TraceEvent::Crash { pid, .. } => return self.checker.crash(pid),
            TraceEvent::Access(_) | TraceEvent::Grant { .. } => return,
        };
        if matches!(kind, OpKind::Custom { .. }) {
            return; // outside both vocabularies: skipped silently
        }
        if let Some(resp) = resp {
            if !self.checker.has_open(pid) {
                return self.report(
                    pid,
                    seq,
                    format!(
                        "completion at timestamp {resp} has no open announcement: \
                         the runtime emitted an unannounced completion"
                    ),
                );
            }
        }
        let rec = OpRecord {
            pid,
            kind,
            inv,
            resp,
            steps: 0,
        };
        if let Err(v) = self.checker.push(&rec) {
            self.report(pid, seq, v.message);
        }
    }

    fn reads_steps(&self) -> bool {
        false
    }

    fn finish(&mut self) -> Vec<Violation> {
        self.found.clone().into_iter().collect()
    }

    fn summary(&self) -> Option<String> {
        self.inert.then(|| {
            "nothing was checked: the runtime is free-running, and \
             free-running runtimes emit no operation boundaries"
                .to_string()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invoke(seq: u64, pid: usize, kind: OpKind, inv: u64) -> TraceEvent {
        TraceEvent::Invoke {
            seq,
            pid,
            kind,
            inv,
        }
    }

    fn complete(seq: u64, pid: usize, kind: OpKind, resp: u64) -> TraceEvent {
        TraceEvent::Complete {
            seq,
            pid,
            kind,
            resp,
        }
    }

    #[test]
    fn clean_counter_stream_has_no_findings() {
        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&invoke(0, 0, OpKind::Inc { amount: 1 }, 0));
        p.on_event(&complete(1, 0, OpKind::Inc { amount: 1 }, 1));
        p.on_event(&invoke(2, 1, OpKind::Read { returned: 0 }, 2));
        p.on_event(&complete(3, 1, OpKind::Read { returned: 1 }, 3));
        assert!(p.finish().is_empty());
    }

    #[test]
    fn stale_read_is_reported() {
        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&invoke(0, 0, OpKind::Inc { amount: 1 }, 0));
        p.on_event(&complete(1, 0, OpKind::Inc { amount: 1 }, 1));
        p.on_event(&invoke(2, 1, OpKind::Read { returned: 0 }, 2));
        p.on_event(&complete(3, 1, OpKind::Read { returned: 0 }, 3));
        let found = p.finish();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].pass, "linearizability");
        assert_eq!(found[0].pid, Some(1));
        assert!(found[0].message.contains("empty window"));
    }

    #[test]
    fn an_out_of_order_event_is_a_finding() {
        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&invoke(0, 0, OpKind::Inc { amount: 1 }, 0));
        p.on_event(&complete(1, 0, OpKind::Inc { amount: 1 }, 2));
        // Ticket 1 arrives after ticket 2: the runtime broke the order
        // it guarantees, and the pass says so instead of reordering.
        p.on_event(&invoke(2, 1, OpKind::Read { returned: 0 }, 1));
        let found = p.finish();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].pid, Some(1));
        assert_eq!(found[0].seq, Some(2));
        assert!(found[0].message.contains("out of order"), "{}", found[0]);
    }

    #[test]
    fn custom_ops_are_skipped_but_writes_are_vocabulary_findings() {
        let mut p = LinearizabilityPass::counter(1);
        let custom = OpKind::Custom {
            label: "cas",
            arg: 0,
            ret: 0,
        };
        p.on_event(&invoke(0, 0, custom, 0));
        p.on_event(&complete(1, 0, custom, 1));
        assert!(p.finish().is_empty());

        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&invoke(0, 0, OpKind::Write { value: 7 }, 0));
        let found = p.finish();
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("vocabulary"));
    }

    #[test]
    fn crash_closes_the_open_operation() {
        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&invoke(0, 0, OpKind::Inc { amount: 1 }, 0));
        p.on_event(&TraceEvent::Crash { seq: 1, pid: 0 });
        // The crashed increment may or may not have taken effect.
        p.on_event(&invoke(2, 1, OpKind::Read { returned: 0 }, 1));
        p.on_event(&complete(3, 1, OpKind::Read { returned: 1 }, 2));
        assert!(p.finish().is_empty());
    }

    #[test]
    fn an_unannounced_completion_is_a_finding() {
        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&complete(0, 3, OpKind::Read { returned: 5 }, 3));
        let found = p.finish();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].pid, Some(3));
        assert_eq!(found[0].seq, Some(0));
        assert!(
            found[0].message.contains("no open announcement"),
            "{}",
            found[0]
        );
        assert!(p.summary().is_none(), "a finding, not a degraded run");
    }

    #[test]
    fn a_free_running_attach_checks_nothing_and_says_so() {
        obs::set_enabled(true);
        let mut p = LinearizabilityPass::counter(1);
        let inert_before = p.inert_transitions.get();
        let free = RunMeta {
            n: 1,
            gated: false,
            coop: true,
        };
        p.on_attach(&free);
        assert_eq!(p.inert_transitions.get(), inert_before + 1);
        let s = p.summary().expect("an inert pass reports a summary");
        assert!(s.contains("nothing was checked"), "got: {s}");
        p.on_event(&complete(0, 0, OpKind::Read { returned: 5 }, 3));
        assert!(p.finish().is_empty(), "inert: no verdict either way");
        // A gated attach checks again.
        p.on_attach(&RunMeta {
            gated: true,
            ..free
        });
        assert!(p.summary().is_none());
        assert_eq!(p.inert_transitions.get(), inert_before + 1);
    }
}
