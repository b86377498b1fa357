//! `smr::analysis` against the real objects: the standard pass bundle
//! must run clean over representative workloads on both backends (any
//! finding there would be a genuine runtime-contract bug), and each
//! seeded poll-contract mutant must be caught with a precise report.
//! (The access-kind mutants need crate-private access and live in
//! `smr::analysis::mutant_tests`.)

use counter::{CollectCounter, CollectIncTask, CollectReadTask, Counter};
use parking_lot::Mutex;
use smr::analysis::{AnalysisPass, Analyzer, HappensBefore, RunMeta};
use smr::explore::{explore, ExploreConfig};
use smr::sched::{RoundRobin, SeededRandom};
use smr::{AccessKind, Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime, TraceEvent};
use std::collections::HashMap;
use std::sync::Arc;

use approx_objects::{
    KmultBoundedMaxRegister, KmultCounter, KmultIncTask, KmultMaxReadTask, KmultMaxWriteTask,
    KmultReadTask, SharedKmultHandle,
};

#[test]
fn standard_passes_run_clean_on_a_coop_kmult_workload() {
    let n = 6;
    let rt = Runtime::coop(n);
    rt.attach_analysis(Analyzer::standard());
    let mut d = Driver::coop(rt.clone());
    let c = KmultCounter::new(n, 3);
    for pid in 0..n {
        let h: SharedKmultHandle = Arc::new(Mutex::new(c.handle(pid)));
        for i in 0..8u64 {
            if i % 3 == 2 {
                d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(42));
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(
        violations.is_empty(),
        "clean workload flagged: {violations:?}"
    );
}

#[test]
fn standard_passes_run_clean_on_a_thread_gated_collect_workload() {
    let n = 4;
    let rt = Runtime::gated(n);
    rt.attach_analysis(Analyzer::standard());
    let counter = Arc::new(CollectCounter::new(n));
    let mut d = Driver::new(rt.clone());
    for pid in 0..n {
        for i in 0..10u64 {
            let c = Arc::clone(&counter);
            if i % 4 == 3 {
                d.submit(pid, OpSpec::read(), move |ctx| c.read(ctx));
            } else {
                d.submit(pid, OpSpec::inc(), move |ctx| {
                    c.increment(ctx);
                    0
                });
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(7));
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(
        violations.is_empty(),
        "clean workload flagged: {violations:?}"
    );
}

#[test]
fn standard_passes_run_clean_under_crashes() {
    let n = 3;
    let rt = Runtime::coop(n);
    rt.attach_analysis(Analyzer::standard());
    let mut d = Driver::coop(rt.clone());
    let counter = Arc::new(CollectCounter::new(n));
    for pid in 0..n {
        d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        d.submit_task(pid, OpSpec::read(), CollectReadTask::new(counter.clone()));
    }
    let _ = d.step(1); // pid 1 parks mid-operation…
    d.crash(1); // …and dies there; its window must close cleanly
    d.run_schedule(&mut RoundRobin::new());
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(violations.is_empty(), "crash run flagged: {violations:?}");
}

/// Mutant: the granted poll applies *two* primitives.
struct GreedyTask {
    reg: Arc<Register>,
    primed: bool,
}

impl OpTask for GreedyTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        let v = self.reg.read(ctx);
        self.reg.write(ctx, v + 1); // second primitive in one poll
        Poll::Ready(u128::from(v))
    }
}

/// Mutant: the priming poll applies a primitive.
struct EagerTask {
    reg: Arc<Register>,
    primed: bool,
}

impl OpTask for EagerTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            let _ = self.reg.read(ctx); // primitive before any grant
            return Poll::Pending;
        }
        self.reg.write(ctx, 1);
        Poll::Ready(0)
    }
}

#[test]
fn poll_pass_flags_two_primitives_in_one_poll() {
    let rt = Runtime::coop(2);
    rt.attach_analysis(Analyzer::standard());
    // Lenient backend: the contract assert is off, so the mutant runs
    // on and the pass gets to diagnose it instead of a panic.
    let mut d = Driver::coop_lenient(rt.clone());
    d.submit_task(
        1,
        OpSpec::custom("greedy", 0),
        GreedyTask {
            reg: Arc::new(Register::new(0)),
            primed: false,
        },
    );
    d.run_solo(1);
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    let hit = violations
        .iter()
        .find(|v| v.pass == "poll-discipline")
        .unwrap_or_else(|| panic!("poll pass must flag the mutant: {violations:?}"));
    assert_eq!(hit.pid, Some(1), "the report names the process");
    assert!(hit.seq.is_some(), "the report pins the trace position");
    assert!(
        hit.message.contains("greedy") && hit.message.contains("2 primitives"),
        "the report names the machine and the count: {hit}"
    );
}

#[test]
fn poll_pass_flags_a_priming_primitive() {
    let rt = Runtime::coop(1);
    rt.attach_analysis(Analyzer::standard());
    let mut d = Driver::coop_lenient(rt.clone());
    d.submit_task(
        0,
        OpSpec::custom("eager", 0),
        EagerTask {
            reg: Arc::new(Register::new(0)),
            primed: false,
        },
    );
    d.run_solo(0);
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    let hit = violations
        .iter()
        .find(|v| v.pass == "poll-discipline")
        .unwrap_or_else(|| panic!("poll pass must flag the mutant: {violations:?}"));
    assert_eq!(hit.pid, Some(0));
    assert!(
        hit.message.contains("eager") && hit.message.contains("outside a granted poll"),
        "the report names the machine and the phase: {hit}"
    );
}

#[test]
fn explorer_surfaces_analysis_violations_like_checker_rejections() {
    // The explorer consults an attached analyzer after every checked
    // cut: a poll-contract mutant must surface as a FoundViolation with
    // the pass's diagnosis, minimized like any other failing schedule.
    let factory = || {
        let rt = Runtime::coop(2);
        rt.attach_analysis(Analyzer::standard());
        let mut d = Driver::coop_lenient(rt);
        let reg = Arc::new(Register::new(0));
        d.submit_task(
            0,
            OpSpec::custom("greedy", 0),
            GreedyTask {
                reg: reg.clone(),
                primed: false,
            },
        );
        d.submit_task(
            1,
            OpSpec::custom("obs", 0),
            EagerObserver { reg, primed: false },
        );
        d
    };
    let stats = explore(&ExploreConfig::default(), factory, |_h| Ok(()));
    assert!(!stats.violations.is_empty(), "the mutant must be caught");
    let v = &stats.violations[0];
    assert!(
        v.message.contains("[poll-discipline]") && v.message.contains("greedy"),
        "the explorer reports the pass diagnosis: {}",
        v.message
    );
    // Minimal reproduction: granting the greedy op its one poll.
    assert!(v.minimized.len() <= v.original.len());
    assert!(v.minimized.steps() >= 1);
}

/// Honest single-read peer for the explorer test.
struct EagerObserver {
    reg: Arc<Register>,
    primed: bool,
}

impl OpTask for EagerObserver {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        Poll::Ready(u128::from(self.reg.read(ctx)))
    }
}

#[test]
fn explorer_passes_clean_programs_with_an_analyzer_attached() {
    // Control for the mutant test: exhaustive exploration of an honest
    // program with the analyzer attached finds nothing, on every
    // interleaving.
    let factory = || {
        let rt = Runtime::coop(2);
        rt.attach_analysis(Analyzer::standard());
        let mut d = Driver::coop(rt);
        let counter = Arc::new(CollectCounter::new(2));
        for pid in 0..2 {
            d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        }
        d
    };
    let stats = explore(&ExploreConfig::exhaustive(100), factory, |_h| Ok(()));
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
    assert!(stats.interleavings > 1);
}

/// The happens-before pass's output on a dense run, pinned. In a gated
/// Algorithm 2 run every process reads registers every other process
/// writes, so each causal past fills up to all `n` processes — the
/// regime where the pass's vector clocks are dense. The trace is
/// recorded once, then replayed into a standalone pass; object
/// addresses are renamed to first-touch indices so the racy pairs
/// repeat across runs. The expected values were captured from the
/// hash-map clock this pass used before its clocks became adaptive, so
/// any change of clock representation must reproduce them exactly.
#[test]
fn happens_before_output_is_pinned_on_a_dense_kmult_maxreg_run() {
    let n = 64;
    let m = 1u64 << 20;
    let rt = Runtime::coop(n);
    rt.attach_analysis(Analyzer::standard());
    rt.enable_tracing();
    let reg = Arc::new(KmultBoundedMaxRegister::new(n, m, 2));
    let mut d = Driver::coop(rt.clone());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for pid in 0..n {
        for _ in 0..8 {
            // xorshift64: a fixed, dependency-free op mix.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(2) {
                let v = 1 + (x >> 1) % (m - 1);
                d.submit_task(
                    pid,
                    OpSpec::write(v),
                    KmultMaxWriteTask::new(reg.clone(), v),
                );
            } else {
                d.submit_task(pid, OpSpec::read(), KmultMaxReadTask::new(reg.clone()));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(2024));
    let mut trace = rt.take_trace();
    drop(d);
    let inline = rt.analysis().unwrap().finish();
    assert!(inline.is_empty(), "clean workload flagged: {inline:?}");

    let mut ids: HashMap<usize, usize> = HashMap::new();
    for ev in &mut trace {
        if let TraceEvent::Access(a) = ev {
            let next = ids.len();
            a.obj = *ids.entry(a.obj).or_insert(next);
        }
    }
    let mut hb = HappensBefore::new();
    hb.on_attach(&RunMeta {
        n,
        gated: true,
        coop: true,
    });
    for ev in &trace {
        hb.on_event(ev);
    }
    // FNV-1a over the retained pairs, in order.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for p in hb.racy_pairs() {
        for w in [
            p.first_seq,
            p.second_seq,
            p.obj as u64,
            p.kinds.0 as u64,
            p.kinds.1 as u64,
        ] {
            digest = (digest ^ w).wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert_eq!(trace.len(), 5034);
    assert_eq!(hb.racy_total(), 2908);
    assert_eq!(hb.racy_pairs().len(), 64);
    let p = hb.racy_pairs()[0];
    assert_eq!(
        (p.first_seq, p.second_seq, p.obj, p.kinds),
        (69, 79, 1, (AccessKind::Write, AccessKind::Read))
    );
    assert_eq!(digest, 0x208f_68dc_3401_6a66);
    assert!(hb.finish().is_empty());
}
