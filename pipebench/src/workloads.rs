//! The three workloads: inputs made from the seed, set-up, the checked
//! run, and the verdict of one iteration. See README.md for why each
//! workload exists and which layers it loads.

use crate::trace::{self, Layer, LayerTotals, TimedPass, TimedScheduler, TimedTask};
use approx_objects::{
    KmultBoundedMaxRegister, KmultCounter, KmultIncTask, KmultMaxReadTask, KmultMaxWriteTask,
    KmultReadTask, SharedKmultHandle,
};
use lincheck::sketchlog::TOPK_READ;
use lincheck::{
    check_counter_records, check_maxreg_records, check_topk_records, LinearizabilityPass,
    SketchEnvelope,
};
use parking_lot::Mutex;
use sketch::{specs, SharedTopKHandle, TopKAddTask, TopKConfig, TopKReadTask, TopKSketch};
use smr::analysis::{AnalysisPass, Analyzer, Conformance, HappensBefore, PollDiscipline};
use smr::sched::SeededRandom;
use smr::{CoopBackend, Driver, History, OpKind, OpSpec, OpTask, Runtime};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// `counter_gated`: processes, operations per process, and the share of
/// increments in 1/4ths.
const COUNTER_N: usize = 10_000;
const COUNTER_OPS: usize = 8;
const COUNTER_INC_QUARTERS: u64 = 3;

/// `maxreg_audited`: processes, operations per process, register bound
/// `m` and accuracy `k`.
const MAXREG_N: usize = 250;
const MAXREG_OPS: usize = 32;
const MAXREG_M: u64 = 1 << 40;
const MAXREG_K: u64 = 2;

/// `free_mixed`: processes and the pid layout — top-k writers, then
/// top-k readers, then counter processes, then max-register processes
/// up to `FREE_N` — with operations per process of each kind.
const FREE_N: usize = 40_000;
const SKETCH_WRITERS: usize = 960;
const SKETCH_READERS: usize = 64;
const SKETCH_PROCS: usize = SKETCH_WRITERS + SKETCH_READERS;
const FREE_COUNTER_END: usize = SKETCH_PROCS + 10_000;
const SKETCH_ADDS: usize = 4;
const SKETCH_READS: usize = 2;
const FREE_COUNTER_OPS: usize = 2;
/// Every process's first operation starts during set-up, so only later
/// operations are ordered after others in real time: with one operation
/// each, nothing a read returns could be refuted.
const FREE_MAXREG_OPS: usize = 2;
/// Few writers, many readers: the offline max-register check scans every
/// write invoked before a read's response, so its cost grows with
/// reads × writes.
const FREE_MAXREG_WRITE_ONE_IN: u64 = 32;
const SKETCH_KEYS: usize = 128;
const SKETCH_SHARDS: usize = 16;
const SKETCH_K: u64 = 4;
const SKETCH_FLUSH_EVERY: u64 = 8;
const SKETCH_Q: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CounterGated,
    MaxregAudited,
    FreeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CounterGated,
        Workload::MaxregAudited,
        Workload::FreeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CounterGated => "counter_gated",
            Workload::MaxregAudited => "maxreg_audited",
            Workload::FreeMixed => "free_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// on the seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One planned operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A batch of `amount` unit increments (`inc_by`).
    Inc(u64),
    CounterRead,
    Write(u64),
    MaxRead,
    TopKAdd {
        key: usize,
        amount: u64,
    },
    TopKRead,
}

/// The inputs of one iteration, in submission order.
struct Plan {
    ops: Vec<(usize, Op)>,
    /// Seed of the scheduler (gated) or of the batch order (free).
    sched_seed: u64,
    /// Most distinct writers of any one top-k key.
    sketch_writers: u64,
}

/// A value in `[1, m)`, log-uniform, so writes spread over every
/// magnitude the register distinguishes.
fn log_uniform(rng: &mut Rng, m: u64) -> u64 {
    let bits = 63 - m.leading_zeros() as u64;
    let e = rng.below(bits);
    ((1u64 << e) + rng.below(1u64 << e)).min(m - 1)
}

/// An increment batch of `k + 1` to `2k` units, or a read.
///
/// `LinearizabilityPass::counter(k)` checks the raw `[v/k, v·k]` window.
/// Algorithm 1 meets it from the first step only when `n ≤ k + 1`;
/// otherwise only once some `switch_j`, `j ≥ 1`, is set (the start-up
/// note in `approx_objects::kcounter`). A process announces to
/// `switch_1` or later only after `k` local increments, so unit
/// increments at a few per process would leave every run in the
/// start-up window and fail correct reads. A batch of more than `k`
/// units crosses the threshold within the operation, so no batch
/// completes before the run has left the window.
fn counter_op(rng: &mut Rng, k: u64) -> Op {
    if rng.below(4) < COUNTER_INC_QUARTERS {
        Op::Inc(k + 1 + rng.below(k))
    } else {
        Op::CounterRead
    }
}

/// A write with probability `1 / write_one_in`, else a read.
fn maxreg_op(rng: &mut Rng, write_one_in: u64) -> Op {
    if rng.below(write_one_in) == 0 {
        Op::Write(log_uniform(rng, MAXREG_M))
    } else {
        Op::MaxRead
    }
}

fn plan(w: Workload, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let sched_seed = rng.next();
    let mut ops = Vec::new();
    let mut sketch_writers = 0;
    match w {
        Workload::CounterGated => {
            for pid in 0..COUNTER_N {
                let k = ceil_sqrt(COUNTER_N);
                ops.extend((0..COUNTER_OPS).map(|_| (pid, counter_op(&mut rng, k))));
            }
        }
        Workload::MaxregAudited => {
            for pid in 0..MAXREG_N {
                ops.extend((0..MAXREG_OPS).map(|_| (pid, maxreg_op(&mut rng, 2))));
            }
        }
        Workload::FreeMixed => {
            // Writer i adds mostly to its own key and every fourth time
            // to its neighbour's, so each key has a bounded writer set
            // (the envelope's `w`).
            let mut writers: Vec<(usize, usize)> = Vec::new();
            for pid in 0..SKETCH_WRITERS {
                for j in 0..SKETCH_ADDS {
                    let key = (pid + usize::from(j % 4 == 3)) % SKETCH_KEYS;
                    let amount = 1 + rng.below(3);
                    writers.push((key, pid));
                    ops.push((pid, Op::TopKAdd { key, amount }));
                }
            }
            writers.sort_unstable();
            writers.dedup();
            let mut per_key = vec![0u64; SKETCH_KEYS];
            for &(key, _) in &writers {
                per_key[key] += 1;
            }
            sketch_writers = per_key.into_iter().max().unwrap_or(0);
            for pid in SKETCH_WRITERS..SKETCH_PROCS {
                ops.extend((0..SKETCH_READS).map(|_| (pid, Op::TopKRead)));
            }
            let k = ceil_sqrt(FREE_COUNTER_END);
            for pid in SKETCH_PROCS..FREE_COUNTER_END {
                ops.extend((0..FREE_COUNTER_OPS).map(|_| (pid, counter_op(&mut rng, k))));
            }
            for pid in FREE_COUNTER_END..FREE_N {
                ops.extend(
                    (0..FREE_MAXREG_OPS)
                        .map(|_| (pid, maxreg_op(&mut rng, FREE_MAXREG_WRITE_ONE_IN))),
                );
            }
        }
    }
    Plan {
        ops,
        sched_seed,
        sketch_writers,
    }
}

/// `⌈√n⌉`, the smallest `k` Algorithm 1 is accurate for.
fn ceil_sqrt(n: usize) -> u64 {
    let mut k = (n as f64).sqrt() as u64;
    while k * k < n as u64 {
        k += 1;
    }
    k.max(2)
}

/// Primitive steps per completed operation, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Steps {
    /// Completed operations.
    pub ops: u64,
    pub total: u64,
    pub max: u64,
    /// `(sum, count)` per class.
    pub inc: (u64, u64),
    pub read: (u64, u64),
    pub write: (u64, u64),
    pub sketch_read: (u64, u64),
}

impl Steps {
    fn add(&mut self, h: &History) {
        for r in h.ops().iter().filter(|r| r.resp.is_some()) {
            self.ops += 1;
            self.total += r.steps;
            self.max = self.max.max(r.steps);
            let class = match r.kind {
                OpKind::Inc { .. } => &mut self.inc,
                OpKind::Read { .. } => &mut self.read,
                OpKind::Write { .. } => &mut self.write,
                OpKind::Custom { label, .. } if label == TOPK_READ => &mut self.sketch_read,
                OpKind::Custom { .. } => continue,
            };
            class.0 += r.steps;
            class.1 += 1;
        }
    }
}

/// The mean of a `(sum, count)` class; 0 for an empty one.
pub fn avg((sum, count): (u64, u64)) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// What the traced iteration measured besides the spans.
#[derive(Debug, Clone)]
pub struct TraceFigures {
    pub spans: LayerTotals,
    /// The run phase (`run_schedule` or `wait_all`), s.
    pub run_phase_s: f64,
    /// The `submit_task` loop, s, inclusive of the priming polls and
    /// invocation events it triggers.
    pub submit_s: f64,
    pub offline_s: f64,
    pub offline_records: u64,
    pub obs: obs::MetricsSnapshot,
}

impl TraceFigures {
    pub fn obs(&self, subsystem: &str, field: &str) -> f64 {
        self.obs.get(subsystem, field).unwrap_or(0) as f64
    }
}

/// One iteration's outcome.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    pub submitted: u64,
    pub completed: u64,
    /// Completed operations covered by a clean verdict of a checker.
    pub checked: u64,
    /// Findings of passes and checkers; each names one operation.
    pub flagged: u64,
    /// Operations a pass that went inert left unchecked.
    pub unchecked: u64,
    pub setup_s: f64,
    /// From the first step through the passes' `finish` and any offline
    /// check.
    pub run_s: f64,
    pub digest: u64,
    pub steps: Steps,
    /// Diagnoses of every failure.
    pub problems: Vec<String>,
    pub trace: Option<TraceFigures>,
    /// Host-speed probe time around this iteration, s (see `probe`).
    pub host_s: f64,
}

impl Iteration {
    pub fn failed(&self) -> u64 {
        (self.submitted - self.completed) + self.flagged + self.unchecked
    }

    /// Factor that scales this iteration's times to the nominal host
    /// speed.
    fn host_scale(&self) -> f64 {
        crate::probe::NOMINAL_S / self.host_s
    }

    /// Completed operations per host-scaled second of the run.
    pub fn ops_per_s(&self) -> f64 {
        self.completed as f64 / (self.run_s * self.host_scale())
    }

    /// Set-up time, host-scaled.
    pub fn setup_scaled_s(&self) -> f64 {
        self.setup_s * self.host_scale()
    }
}

/// A digest of every record, in recorded order.
fn digest(h: &History) -> u64 {
    let mut s = DefaultHasher::new();
    for r in h.ops() {
        (r.pid, r.kind, r.inv, r.resp, r.steps).hash(&mut s);
    }
    s.finish()
}

fn submit<T: OpTask + 'static>(
    d: &mut Driver<CoopBackend>,
    traced: bool,
    layer: Layer,
    pid: usize,
    spec: OpSpec,
    t: T,
) {
    if traced {
        d.submit_task(pid, spec, TimedTask::new(t, layer));
    } else {
        d.submit_task(pid, spec, t);
    }
}

fn pass<P: AnalysisPass + 'static>(traced: bool, layer: Layer, p: P) -> Box<dyn AnalysisPass> {
    if traced {
        Box::new(TimedPass::new(p, layer))
    } else {
        Box::new(p)
    }
}

/// Run one iteration of `w` from `seed`; `traced` wraps every layer in
/// its span wrapper and switches `obs` on.
pub fn iterate(w: Workload, seed: u64, traced: bool) -> Iteration {
    let plan = plan(w, seed);
    if traced {
        obs::registry::reset_all();
        obs::set_enabled(true);
        trace::reset();
    }
    let out = match w {
        Workload::CounterGated | Workload::MaxregAudited => gated(w, &plan, traced),
        Workload::FreeMixed => free(&plan, traced),
    };
    if traced {
        obs::set_enabled(false);
    }
    out
}

/// Objects of a gated run: the counter's per-process handles, or the
/// max register.
enum Gated {
    Counter(Vec<SharedKmultHandle>),
    MaxReg(Arc<KmultBoundedMaxRegister>),
}

fn gated(w: Workload, plan: &Plan, traced: bool) -> Iteration {
    let t0 = Instant::now();
    let (n, objects, passes) = match w {
        Workload::CounterGated => {
            let k = ceil_sqrt(COUNTER_N);
            let counter = KmultCounter::new(COUNTER_N, k);
            let handles = (0..COUNTER_N)
                .map(|pid| Arc::new(Mutex::new(counter.handle(pid))))
                .collect();
            let passes = vec![pass(
                traced,
                Layer::LinPass,
                LinearizabilityPass::counter(k),
            )];
            (COUNTER_N, Gated::Counter(handles), passes)
        }
        _ => {
            let reg = Arc::new(KmultBoundedMaxRegister::new(MAXREG_N, MAXREG_M, MAXREG_K));
            // `Analyzer::standard()`'s three passes plus the
            // linearizability pass, in one analyzer.
            let passes = vec![
                pass(traced, Layer::PollDiscipline, PollDiscipline::new()),
                pass(traced, Layer::Conformance, Conformance::new()),
                pass(traced, Layer::HappensBefore, HappensBefore::new()),
                pass(
                    traced,
                    Layer::LinPass,
                    LinearizabilityPass::maxreg(MAXREG_K),
                ),
            ];
            (MAXREG_N, Gated::MaxReg(reg), passes)
        }
    };
    let rt = Runtime::coop(n);
    let analyzer = Analyzer::new(passes);
    rt.attach_analysis(analyzer.clone());
    let mut d = Driver::coop(rt);
    let t_submit = Instant::now();
    for &(pid, op) in &plan.ops {
        match (&objects, op) {
            (Gated::Counter(h), Op::Inc(amount)) => submit(
                &mut d,
                traced,
                Layer::Objects,
                pid,
                OpSpec::inc_by(amount),
                KmultIncTask::batched(h[pid].clone(), amount),
            ),
            (Gated::Counter(h), Op::CounterRead) => submit(
                &mut d,
                traced,
                Layer::Objects,
                pid,
                OpSpec::read(),
                KmultReadTask::new(h[pid].clone()),
            ),
            (Gated::MaxReg(r), Op::Write(v)) => submit(
                &mut d,
                traced,
                Layer::Objects,
                pid,
                OpSpec::write(v),
                KmultMaxWriteTask::new(r.clone(), v),
            ),
            (Gated::MaxReg(r), Op::MaxRead) => submit(
                &mut d,
                traced,
                Layer::Objects,
                pid,
                OpSpec::read(),
                KmultMaxReadTask::new(r.clone()),
            ),
            _ => unreachable!("the plan only holds this object's operations"),
        }
    }
    let submit_s = t_submit.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    if traced {
        trace::begin_run(true);
        d.run_schedule(&mut TimedScheduler::new(SeededRandom::new(plan.sched_seed)));
        trace::end_run();
    } else {
        d.run_schedule(&mut SeededRandom::new(plan.sched_seed));
    }
    let run_phase_s = t1.elapsed().as_secs_f64();
    let violations = analyzer.finish();
    let run_s = t1.elapsed().as_secs_f64();

    let trace = traced.then(|| TraceFigures {
        spans: trace::take(),
        run_phase_s,
        submit_s,
        offline_s: 0.0,
        offline_records: 0,
        obs: obs::snapshot(),
    });
    let history = d.take_history();
    let mut it = Iteration {
        submitted: plan.ops.len() as u64,
        setup_s,
        run_s,
        digest: digest(&history),
        trace,
        ..Iteration::default()
    };
    it.steps.add(&history);
    it.completed = it.steps.ops;
    it.flagged = violations.len() as u64;
    it.problems.extend(violations.iter().map(|v| v.to_string()));
    let summaries = analyzer.summaries();
    if !summaries.is_empty() {
        // An inert pass stopped checking part-way: no verdict covers
        // the run, so every operation counts as unchecked.
        it.unchecked = it.completed;
        it.problems.extend(summaries);
    } else if violations.is_empty() {
        it.checked = it.completed;
    }
    it
}

fn free(plan: &Plan, traced: bool) -> Iteration {
    let t0 = Instant::now();
    let k = ceil_sqrt(FREE_COUNTER_END);
    let counter = KmultCounter::new(FREE_COUNTER_END, k);
    let reg = Arc::new(KmultBoundedMaxRegister::new(FREE_N, MAXREG_M, MAXREG_K));
    let sketch = TopKSketch::new(TopKConfig {
        n: SKETCH_PROCS,
        keys: SKETCH_KEYS,
        shards: SKETCH_SHARDS,
        k: SKETCH_K,
        max_accuracy: 2,
        max_bound: 1 << 48,
    });
    let mut d = Driver::coop_free_seeded(Runtime::coop_free(FREE_N), plan.sched_seed);
    let t_submit = Instant::now();
    // A pid's operations are contiguous in the plan: one handle each.
    let mut current = usize::MAX;
    let mut counter_h: Option<SharedKmultHandle> = None;
    let mut sketch_h: Option<SharedTopKHandle> = None;
    for &(pid, op) in &plan.ops {
        if pid != current {
            current = pid;
            counter_h = None;
            sketch_h = None;
        }
        let mut counter_handle = || {
            counter_h
                .get_or_insert_with(|| Arc::new(Mutex::new(counter.handle(pid))))
                .clone()
        };
        let mut sketch_handle = || {
            sketch_h
                .get_or_insert_with(|| Arc::new(Mutex::new(sketch.handle(pid, SKETCH_FLUSH_EVERY))))
                .clone()
        };
        match op {
            Op::Inc(amount) => submit(
                &mut d,
                traced,
                Layer::Objects,
                pid,
                OpSpec::inc_by(amount),
                KmultIncTask::batched(counter_handle(), amount),
            ),
            Op::CounterRead => submit(
                &mut d,
                traced,
                Layer::Objects,
                pid,
                OpSpec::read(),
                KmultReadTask::new(counter_handle()),
            ),
            Op::Write(v) => submit(
                &mut d,
                traced,
                Layer::Objects,
                pid,
                OpSpec::write(v),
                KmultMaxWriteTask::new(reg.clone(), v),
            ),
            Op::MaxRead => submit(
                &mut d,
                traced,
                Layer::Objects,
                pid,
                OpSpec::read(),
                KmultMaxReadTask::new(reg.clone()),
            ),
            Op::TopKAdd { key, amount } => submit(
                &mut d,
                traced,
                Layer::Sketch,
                pid,
                specs::topk_add(key, amount),
                TopKAddTask::new(sketch_handle(), key, amount),
            ),
            Op::TopKRead => submit(
                &mut d,
                traced,
                Layer::Sketch,
                pid,
                specs::topk_read(SKETCH_Q),
                TopKReadTask::new(sketch_handle(), SKETCH_Q),
            ),
        }
    }
    let submit_s = t_submit.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    if traced {
        trace::begin_run(false);
    }
    d.wait_all();
    if traced {
        trace::end_run();
    }
    let run_phase_s = t1.elapsed().as_secs_f64();
    let history = d.take_history();
    // Each object's history is the records of its own pids.
    let t_check = Instant::now();
    let mut parts = [History::new(), History::new(), History::new()];
    for r in history.ops() {
        let part = if r.pid < SKETCH_PROCS {
            0
        } else if r.pid < FREE_COUNTER_END {
            1
        } else {
            2
        };
        parts[part].push(r.clone());
    }
    let env = SketchEnvelope::new(SKETCH_K, plan.sketch_writers)
        .with_buffer_slack(SKETCH_FLUSH_EVERY - 1);
    let verdicts = [
        check_topk_records(&parts[0], &env),
        check_counter_records(&parts[1], k),
        check_maxreg_records(&parts[2], MAXREG_K),
    ];
    let offline_s = t_check.elapsed().as_secs_f64();
    let run_s = t1.elapsed().as_secs_f64();

    let trace = traced.then(|| TraceFigures {
        spans: trace::take(),
        run_phase_s,
        submit_s,
        offline_s,
        offline_records: history.len() as u64,
        obs: obs::snapshot(),
    });
    let mut it = Iteration {
        submitted: plan.ops.len() as u64,
        setup_s,
        run_s,
        digest: digest(&history),
        trace,
        ..Iteration::default()
    };
    it.steps.add(&history);
    it.completed = it.steps.ops;
    for (part, verdict) in parts.iter().zip(verdicts) {
        match verdict {
            Ok(()) => it.checked += part.len() as u64,
            Err(e) => {
                it.flagged += 1;
                it.problems.push(e);
            }
        }
    }
    it
}
