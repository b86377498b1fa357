//! The failure accounting must be able to fail: a real counter history
//! with one read tampered out of its accuracy window has to show up as
//! exactly one failed operation, through the inline pass and through the
//! offline checker alike.

use crate::workloads::Iteration;
use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask};
use lincheck::{check_counter_records, LinearizabilityPass};
use parking_lot::Mutex;
use smr::analysis::{AnalysisPass, Analyzer, RunMeta};
use smr::sched::SeededRandom;
use smr::{Driver, History, OpKind, OpSpec, Runtime, TraceEvent};
use std::sync::Arc;

/// `n ≤ k + 1`: Algorithm 1's raw k-accuracy then holds from the first
/// step, start-up window included.
const N: usize = 4;
const K: u64 = 4;
const OPS: usize = 32;

/// A small gated counter run with its inline pass, scheduled from `seed`.
fn clean_history(seed: u64) -> Result<History, String> {
    let rt = Runtime::coop(N);
    let counter = KmultCounter::new(N, K);
    let analyzer = Analyzer::new(vec![Box::new(LinearizabilityPass::counter(K))]);
    rt.attach_analysis(analyzer.clone());
    let mut d = Driver::coop(rt);
    for pid in 0..N {
        let h = Arc::new(Mutex::new(counter.handle(pid)));
        for j in 0..OPS {
            if j % 4 == 3 {
                d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(seed));
    let found = analyzer.finish();
    if !found.is_empty() {
        return Err(format!("the untampered run was flagged: {}", found[0]));
    }
    Ok(d.take_history())
}

/// Replay `h` into a fresh pass as the trace stream a run would emit.
fn replay_into_pass(h: &History) -> u64 {
    let mut events: Vec<(u64, TraceEvent)> = Vec::new();
    for r in h.ops() {
        let resp = r.resp.expect("the run completed every operation");
        let (pid, kind) = (r.pid, r.kind);
        events.push((
            r.inv,
            TraceEvent::Invoke {
                seq: 0,
                pid,
                kind,
                inv: r.inv,
            },
        ));
        events.push((
            resp,
            TraceEvent::Complete {
                seq: 0,
                pid,
                kind,
                resp,
            },
        ));
    }
    events.sort_by_key(|&(ts, _)| ts);
    let mut pass = LinearizabilityPass::counter(K);
    pass.on_attach(&RunMeta {
        n: N,
        gated: true,
        coop: true,
    });
    for (seq, (_, mut ev)) in (0u64..).zip(events) {
        match &mut ev {
            TraceEvent::Invoke { seq: s, .. } | TraceEvent::Complete { seq: s, .. } => *s = seq,
            _ => unreachable!("only invocations and completions are replayed"),
        }
        pass.on_event(&ev);
    }
    pass.finish().len() as u64
}

/// Failed operations of `h` under both checkers, as an iteration counts
/// them.
fn failed(h: &History) -> (u64, u64) {
    let base = Iteration {
        submitted: h.len() as u64,
        completed: h.len() as u64,
        ..Iteration::default()
    };
    let inline = Iteration {
        flagged: replay_into_pass(h),
        ..base.clone()
    };
    let offline = Iteration {
        flagged: u64::from(check_counter_records(h, K).is_err()),
        ..base
    };
    (inline.failed(), offline.failed())
}

/// Run the self-check; `Err` names what did not hold.
pub fn tampered_read_is_counted(seed: u64) -> Result<(), String> {
    let clean = clean_history(seed)?;
    if failed(&clean) != (0, 0) {
        return Err(format!(
            "the clean history counted {:?} failed",
            failed(&clean)
        ));
    }
    // A read above k·(every increment) has no admissible exact value.
    let incs: u128 = clean
        .ops()
        .iter()
        .filter_map(|r| match r.kind {
            OpKind::Inc { amount } => Some(u128::from(amount)),
            _ => None,
        })
        .sum();
    let mut tampered = History::new();
    let mut done = false;
    for r in clean.ops() {
        let mut r = r.clone();
        if !done && matches!(r.kind, OpKind::Read { .. }) {
            r.kind = OpKind::Read {
                returned: u128::from(K) * (incs + 1),
            };
            done = true;
        }
        tampered.push(r);
    }
    if !done {
        return Err("the run recorded no read to tamper with".into());
    }
    match failed(&tampered) {
        (1, 1) => Ok(()),
        got => Err(format!(
            "one tampered read counted (inline, offline) = {got:?} failed, not (1, 1)"
        )),
    }
}
