//! End-to-end streaming linearizability checking: the
//! [`lincheck::LinearizabilityPass`] attached to a live driver run on
//! either backend, and the explorer surfacing (and minimizing) a racy
//! counter that the pass refutes inline — no `history_snapshot()`
//! anywhere.

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::LinearizabilityPass;
use parking_lot::Mutex;
use smr::analysis::Analyzer;
use smr::explore::{explore, ExploreConfig};
use smr::sched::{RoundRobin, SeededRandom};
use smr::{Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime};
use std::sync::Arc;

fn lin_analyzer(k: u64) -> Arc<Analyzer> {
    Analyzer::new(vec![Box::new(LinearizabilityPass::counter(k))])
}

#[test]
fn pass_runs_clean_on_a_correct_coop_counter_workload() {
    let n = 4;
    let rt = Runtime::coop(n);
    rt.attach_analysis(lin_analyzer(1));
    let mut d = Driver::coop(rt.clone());
    let counter = Arc::new(CollectCounter::new(n));
    for pid in 0..n {
        for i in 0..6u64 {
            if i % 3 == 2 {
                d.submit_task(pid, OpSpec::read(), CollectReadTask::new(counter.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(42));
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(
        violations.is_empty(),
        "correct counter flagged: {violations:?}"
    );
}

#[test]
fn pass_runs_clean_under_a_mid_operation_crash() {
    let n = 3;
    let rt = Runtime::coop(n);
    rt.attach_analysis(lin_analyzer(1));
    let mut d = Driver::coop(rt.clone());
    let counter = Arc::new(CollectCounter::new(n));
    for pid in 0..n {
        d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        d.submit_task(pid, OpSpec::read(), CollectReadTask::new(counter.clone()));
    }
    let _ = d.step(1); // pid 1 parks mid-increment…
    d.crash(1); // …and dies: the open window must close without a report
    d.run_schedule(&mut RoundRobin::new());
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(violations.is_empty(), "crash run flagged: {violations:?}");
}

/// A read whose result is pushed far above anything the counter can
/// have reached: `(v + 1) · 1000` against at most 32 increments.
struct TamperedRead(KmultReadTask);

impl OpTask for TamperedRead {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        match self.0.poll(ctx) {
            Poll::Ready(v) => Poll::Ready((v + 1) * 1000),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Algorithm 1 on the gated *thread* backend (one worker per process,
/// boundaries emitted concurrently by the workers), checked inline at
/// `k = n`, so the raw accuracy window holds from the first step. Pid
/// 0's last read is tampered when `tamper` is set.
fn kmult_thread_run(seed: u64, tamper: bool) -> Arc<Analyzer> {
    const N: usize = 8;
    const K: u64 = 8;
    let rt = Runtime::gated(N);
    let analyzer = lin_analyzer(K);
    rt.attach_analysis(analyzer.clone());
    let mut d = Driver::new(rt);
    let counter = KmultCounter::new(N, K);
    for pid in 0..N {
        let h: SharedKmultHandle = Arc::new(Mutex::new(counter.handle(pid)));
        for i in 0..6u64 {
            if i % 3 != 2 {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            } else if tamper && pid == 0 && i == 5 {
                d.submit_task(
                    pid,
                    OpSpec::read(),
                    TamperedRead(KmultReadTask::new(h.clone())),
                );
            } else {
                d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h.clone()));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(seed));
    drop(d);
    analyzer
}

#[test]
fn pass_runs_clean_on_algorithm_1_over_the_thread_backend() {
    for seed in [1, 7, 42, 0xBEEF] {
        let analyzer = kmult_thread_run(seed, false);
        let violations = analyzer.finish();
        assert!(
            violations.is_empty(),
            "seed {seed}: correct counter flagged: {violations:?}"
        );
        assert!(
            analyzer.summaries().is_empty(),
            "seed {seed}: the pass must have checked the run: {:?}",
            analyzer.summaries()
        );
    }
}

#[test]
fn pass_flags_a_tampered_read_over_the_thread_backend() {
    for seed in [1, 42] {
        let violations = kmult_thread_run(seed, true).finish();
        assert_eq!(violations.len(), 1, "seed {seed}: {violations:?}");
        assert_eq!(violations[0].pass, "linearizability");
        assert_eq!(violations[0].pid, Some(0), "seed {seed}: {}", violations[0]);
    }
}

#[test]
fn a_pass_on_a_free_running_runtime_says_it_checked_nothing() {
    let n = 4;
    let rt = Runtime::coop_free(n);
    rt.attach_analysis(lin_analyzer(1));
    let mut d = Driver::coop_free(rt.clone());
    let counter = Arc::new(CollectCounter::new(n));
    for pid in 0..n {
        d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        d.submit_task(pid, OpSpec::read(), CollectReadTask::new(counter.clone()));
    }
    d.wait_all();
    assert_eq!(d.history().len(), 2 * n);
    drop(d);
    let analyzer = rt.analysis().unwrap();
    assert!(analyzer.finish().is_empty(), "no verdict either way");
    let summaries = analyzer.summaries();
    assert_eq!(summaries.len(), 1, "{summaries:?}");
    assert!(
        summaries[0].contains("[linearizability] nothing was checked"),
        "{}",
        summaries[0]
    );
}

/// The racy mutant from `tests/explore.rs`: increments read-modify-write
/// one shared register, so interleaved increments lose updates.
struct SharedCellInc {
    cell: Arc<Register>,
    read: Option<u64>,
    primed: bool,
}

impl OpTask for SharedCellInc {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        match self.read {
            None => {
                self.read = Some(self.cell.read(ctx));
                Poll::Pending
            }
            Some(v) => {
                self.cell.write(ctx, v + 1);
                Poll::Ready(0)
            }
        }
    }
}

struct SharedCellRead {
    cell: Arc<Register>,
    primed: bool,
}

impl OpTask for SharedCellRead {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        Poll::Ready(u128::from(self.cell.read(ctx)))
    }
}

#[test]
fn explorer_catches_the_lost_update_through_the_pass_alone() {
    // Same racy workload the offline explorer test refutes with an
    // end-of-run `check_counter_records` — here the *final check is a
    // no-op* and the streaming pass must catch it by itself, surfaced
    // and ddmin-minimized like any other analysis finding.
    let factory = || {
        let rt = Runtime::coop(3);
        rt.attach_analysis(lin_analyzer(1));
        let mut d = Driver::coop(rt);
        let cell = Arc::new(Register::new(0));
        for pid in 0..2 {
            d.submit_task(
                pid,
                OpSpec::inc(),
                SharedCellInc {
                    cell: cell.clone(),
                    read: None,
                    primed: false,
                },
            );
        }
        for _ in 0..2 {
            d.submit_task(
                2,
                OpSpec::read(),
                SharedCellRead {
                    cell: cell.clone(),
                    primed: false,
                },
            );
        }
        d
    };
    let stats = explore(&ExploreConfig::default(), factory, |_h| Ok(()));
    assert!(
        !stats.violations.is_empty(),
        "the lost update must be caught inline"
    );
    let v = &stats.violations[0];
    assert!(
        v.message.contains("[linearizability]"),
        "the finding carries the pass name: {}",
        v.message
    );
    assert!(v.minimized.len() <= v.original.len());
    assert!(v.minimized.steps() >= 1, "a replayable minimized schedule");
}

#[test]
fn explorer_stays_quiet_on_the_honest_counter_with_the_pass_attached() {
    // Control: exhaustive exploration of the correct collect counter
    // with the streaming pass attached finds nothing anywhere.
    let factory = || {
        let rt = Runtime::coop(2);
        rt.attach_analysis(lin_analyzer(1));
        let mut d = Driver::coop(rt);
        let counter = Arc::new(CollectCounter::new(2));
        d.submit_task(0, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        d.submit_task(1, OpSpec::read(), CollectReadTask::new(counter.clone()));
        d
    };
    let stats = explore(&ExploreConfig::exhaustive(100), factory, |_h| Ok(()));
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
    assert!(stats.interleavings > 1);
}
