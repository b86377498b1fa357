//! [`ThreadBackend`]: one worker thread per process.
//!
//! This is the original driver machinery, split out behind
//! [`ExecBackend`]. Workers block on a command channel; in gated mode
//! every primitive they apply parks at the gate until the controller
//! grants it ([`Gate::grant`](crate::gate::Gate)), and each operation's
//! invocation is announced before its closure/task runs so crashes and
//! suspensions surface pending records. Closure ops run natively;
//! [`OpTask`](crate::OpTask) ops are adapted by polling to completion on
//! the worker — their primitives park individually exactly like a
//! closure's, so task-form and closure-form operations are
//! indistinguishable through the gate.

use super::{ExecBackend, StepOutcome};
use crate::gate::GrantOutcome;
use crate::history::{OpRecord, OpSpec};
use crate::runtime::{Mode, Runtime};
use crate::task::{Op, Poll};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

enum Cmd {
    Op { spec: OpSpec, op: Op },
    Stop,
}

/// The thread-per-process execution backend. See the [module
/// docs](self).
pub struct ThreadBackend {
    runtime: Arc<Runtime>,
    cmd_tx: Vec<Sender<Cmd>>,
    evt_rx: Receiver<OpRecord>,
    workers: Vec<JoinHandle<()>>,
    /// Controller-side grants — each one is a full cross-thread condvar
    /// handshake with a parked worker, the cost that caps this backend
    /// at ~10³ processes (`exp_scale`); counting them is what makes
    /// that story visible in a snapshot next to coop poll counts.
    gate_waits: &'static obs::Counter,
}

impl ThreadBackend {
    /// Spawn one worker per process of `runtime`.
    ///
    /// # Panics
    /// Panics on a coop runtime — its virtual processes have no gate for
    /// workers to park at; use [`Driver::coop`](crate::Driver::coop).
    pub fn new(runtime: Arc<Runtime>) -> Self {
        assert!(
            !runtime.is_coop(),
            "the thread backend cannot drive a coop runtime; \
             use Driver::coop (or Runtime::gated/free_running)"
        );
        let n = runtime.n();
        let (evt_tx, evt_rx) = unbounded();
        let mut cmd_tx = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for pid in 0..n {
            let (tx, rx) = unbounded::<Cmd>();
            cmd_tx.push(tx);
            let rt = runtime.clone();
            let etx = evt_tx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("smr-worker-{pid}"))
                    .spawn(move || worker_loop(rt, pid, rx, etx))
                    .expect("spawn worker"),
            );
        }
        ThreadBackend {
            runtime,
            cmd_tx,
            evt_rx,
            workers,
            gate_waits: obs::counter(obs::names::SUB_THREAD, obs::names::THREAD_GATE_WAITS),
        }
    }
}

impl ExecBackend for ThreadBackend {
    fn submit(&mut self, pid: usize, spec: OpSpec, op: Op) {
        self.cmd_tx[pid]
            .send(Cmd::Op { spec, op })
            .expect("worker alive");
    }

    fn step(&mut self, pid: usize, expected_ops: u64) -> StepOutcome {
        let gate = self
            .runtime
            .gate
            .as_ref()
            .expect("step() requires a gated runtime");
        self.gate_waits.inc();
        match gate.grant(pid, expected_ops) {
            GrantOutcome::Stepped => StepOutcome::Stepped,
            GrantOutcome::Completed => StepOutcome::Completed,
        }
    }

    fn quiesce(&mut self, pid: usize, expected_ops: u64) {
        let gate = self
            .runtime
            .gate
            .as_ref()
            .expect("quiesce requires a gated runtime");
        gate.quiesce(pid, expected_ops);
    }

    fn drain(&mut self, sink: &mut dyn FnMut(OpRecord)) {
        while let Ok(rec) = self.evt_rx.try_recv() {
            sink(rec);
        }
    }

    fn wait_event(&mut self) -> OpRecord {
        debug_assert_eq!(self.runtime.mode(), Mode::FreeRunning);
        self.evt_rx.recv().expect("workers alive")
    }

    fn shutdown(&mut self) {
        // Whatever still runs after this point is teardown, not the
        // modelled execution: cut the analysis stream first.
        self.runtime.seal_analysis();
        for tx in &self.cmd_tx {
            let _ = tx.send(Cmd::Stop);
        }
        // Unblock any worker parked at the gate mid-operation; it will
        // finish its operation free-running, then see Stop.
        self.runtime.release_gate();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ThreadBackend {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown();
        }
    }
}

fn worker_loop(runtime: Arc<Runtime>, pid: usize, rx: Receiver<Cmd>, tx: Sender<OpRecord>) {
    let ctx = runtime.ctx(pid);
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Stop => break,
            Cmd::Op { spec, op } => {
                if let Some(gate) = &runtime.gate {
                    gate.op_started(pid);
                }
                // Drawing the invocation ticket also emits the `Invoke`
                // trace event (gated mode), in ticket order with every
                // other worker's boundaries.
                let announced = spec.kind(0);
                let inv = runtime.invoke(pid, announced);
                let steps_before = ctx.steps_taken();
                // Gated mode only: announce the invocation before
                // executing, so if this process crashes or is suspended
                // mid-operation the controller still learns the op
                // started (its effects are optional for linearization).
                // The announcement's kind carries the spec's
                // invocation-time payload with a zero result, and its
                // `steps` field the process's cumulative step count at
                // invocation; `Driver::crash`/`history_snapshot` rewrite
                // the latter to the steps the op itself performed before
                // surfacing the record. Free-running runtimes cannot
                // suspend processes, so the announcement would be pure
                // channel overhead there.
                if runtime.gate.is_some() {
                    let _ = tx.send(OpRecord {
                        pid,
                        kind: announced,
                        inv,
                        resp: None,
                        steps: steps_before,
                    });
                }
                let ret = match op {
                    Op::Call(f) => f(&ctx),
                    // Tasks park per-primitive inside `ctx.step` like any
                    // closure; the worker just keeps polling.
                    Op::Task(mut task) => loop {
                        if let Poll::Ready(v) = task.poll(&ctx) {
                            break v;
                        }
                    },
                };
                let steps = ctx.steps_taken() - steps_before;
                let kind = spec.kind(ret);
                let resp = runtime.complete(pid, kind);
                // The event must be in the channel before `op_finished` is
                // signalled, so a controller that observes completion can
                // always drain the corresponding record.
                let _ = tx.send(OpRecord {
                    pid,
                    kind,
                    inv,
                    resp: Some(resp),
                    steps,
                });
                if let Some(gate) = &runtime.gate {
                    gate.op_finished(pid);
                }
            }
        }
    }
}
