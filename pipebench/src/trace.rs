//! Spans for the traced run, recorded from outside the program.
//!
//! Each layer is timed by a wrapper around the public trait it is
//! called through — [`TimedTask`] around an [`OpTask`], [`TimedPass`]
//! around an [`AnalysisPass`], [`TimedScheduler`] around a
//! [`Scheduler`] — plus phase spans the workloads open themselves
//! (submit loop, offline check). Spans stay in a thread-local record
//! (the coop backend runs every poll, pass and pick on the controller
//! thread) and are read out once the iteration ends.
//!
//! Poll-rate spans are timed for one *unit* in [`SAMPLE_EVERY`], chosen
//! by a deterministic counter: a unit is a scheduler pick on the gated
//! workloads (every poll and pass event of that step is then timed) and
//! a task poll on the free-running one. Each layer's sampled self time
//! is scaled by `units / sampled units`. Counts (`picks`, `events`)
//! are exact. Self time is a span's duration minus the spans nested in
//! it: a pass event raised by a primitive inside a task poll is charged
//! to the pass, not to the object. Many spans last tens of ns, as long
//! as reading the clock, so the cost of an empty span, measured once
//! per process by [`calibrate`], is taken off every span and off its
//! parent.

use smr::analysis::{AnalysisPass, RunMeta, Violation};
use smr::sched::Scheduler;
use smr::{ActiveSet, OpTask, Poll, ProcCtx, TraceEvent};
use std::cell::RefCell;
use std::time::Instant;

/// One unit in this many is timed.
const SAMPLE_EVERY: u64 = 16;

/// The layers whose poll-rate calls are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Sched,
    Objects,
    Sketch,
    PollDiscipline,
    Conformance,
    HappensBefore,
    LinPass,
}

const LAYERS: usize = 7;

/// Per-layer totals of one traced iteration.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Sampled self time, ns.
    self_ns: [u64; LAYERS],
    /// Sampled spans.
    spans: [u64; LAYERS],
    /// Calls, sampled or not (pass events, scheduler picks, polls).
    calls: [u64; LAYERS],
    /// `on_attach` time per layer, ns (untimed layers stay 0).
    attach_ns: [u64; LAYERS],
    /// `finish` time per layer, ns.
    finish_ns: [u64; LAYERS],
    /// Units seen while the run phase was open.
    units: u64,
    /// Units that were timed.
    sampled_units: u64,
}

impl LayerTotals {
    /// Estimated self time of `layer` over the whole run phase, s.
    pub fn self_s(&self, layer: Layer) -> f64 {
        if self.sampled_units == 0 {
            return 0.0;
        }
        let scale = self.units as f64 / self.sampled_units as f64;
        self.self_ns[layer as usize] as f64 * scale / 1e9
    }

    /// Mean sampled self time per span of `layer`, ns.
    pub fn ns_per_span(&self, layer: Layer) -> f64 {
        let spans = self.spans[layer as usize];
        if spans == 0 {
            return 0.0;
        }
        self.self_ns[layer as usize] as f64 / spans as f64
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    pub fn attach_s(&self, layer: Layer) -> f64 {
        self.attach_ns[layer as usize] as f64 / 1e9
    }

    pub fn finish_s(&self, layer: Layer) -> f64 {
        self.finish_ns[layer as usize] as f64 / 1e9
    }
}

#[derive(Default)]
struct Recorder {
    /// Cost of an empty span inside its own clock readings, and outside
    /// them, ns (see [`calibrate`]).
    own_ns: u64,
    outside_ns: u64,
    /// The run phase is open: units are counted and sampled.
    running: bool,
    /// Units are scheduler picks (gated) rather than task polls (free).
    picks_are_units: bool,
    /// The current unit is timed.
    sampling: bool,
    /// Open spans: layer, start, time covered by finished children.
    stack: Vec<(Layer, Instant, u64)>,
    totals: LayerTotals,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    REC.with(|r| f(&mut r.borrow_mut()))
}

/// Clear the record before a traced iteration.
pub fn reset() {
    with(|r| {
        *r = Recorder {
            own_ns: r.own_ns,
            outside_ns: r.outside_ns,
            ..Recorder::default()
        }
    });
}

/// Measure the cost of an empty span, as medians over batches of
/// back-to-back empty spans so that one preempted batch does not count:
/// the part inside its own clock readings, and the rest, which only its
/// parent sees.
pub fn calibrate() {
    const BATCH: u64 = 4096;
    let (mut inside, mut total): (Vec<u64>, Vec<u64>) = (0..64)
        .map(|_| {
            reset();
            begin_run(true);
            let start = Instant::now();
            for _ in 0..BATCH {
                with(|r| r.sampling = true);
                if enter(Layer::Sched, Starts::Nothing) {
                    exit();
                }
            }
            let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let inside = with(|r| r.totals.self_ns[Layer::Sched as usize]);
            (inside / BATCH, total / BATCH)
        })
        .unzip();
    end_run();
    inside.sort_unstable();
    total.sort_unstable();
    let inside = inside[inside.len() / 2];
    let total = total[total.len() / 2];
    reset();
    with(|r| {
        r.own_ns = inside;
        r.outside_ns = total.saturating_sub(inside);
    });
}

/// Open the run phase. `picks_are_units`: the gated workloads sample by
/// scheduler step, the free-running one by task poll.
pub fn begin_run(picks_are_units: bool) {
    with(|r| {
        r.running = true;
        r.picks_are_units = picks_are_units;
        r.sampling = false;
    });
}

/// Close the run phase.
pub fn end_run() {
    with(|r| {
        r.running = false;
        r.sampling = false;
    });
}

/// Take the totals recorded since [`reset`].
pub fn take() -> LayerTotals {
    with(|r| std::mem::take(&mut r.totals))
}

/// What kind of unit a call starts, if units are of that kind.
#[derive(PartialEq, Eq)]
enum Starts {
    Nothing,
    Pick,
    Poll,
}

/// Count a call to `layer` and, if it is to be timed, open its span.
fn enter(layer: Layer, starts: Starts) -> bool {
    with(|r| {
        r.totals.calls[layer as usize] += 1;
        if !r.running {
            return false;
        }
        if starts != Starts::Nothing && (starts == Starts::Pick) == r.picks_are_units {
            r.totals.units += 1;
            r.sampling = r.totals.units.is_multiple_of(SAMPLE_EVERY);
            if r.sampling {
                r.totals.sampled_units += 1;
            }
        }
        if r.sampling {
            r.stack.push((layer, Instant::now(), 0));
        }
        r.sampling
    })
}

fn exit() {
    let end = Instant::now();
    with(|r| {
        let (layer, start, children) = r.stack.pop().expect("exit matches an enter");
        let dur = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        let i = layer as usize;
        r.totals.self_ns[i] += dur.saturating_sub(children + r.own_ns);
        r.totals.spans[i] += 1;
        let outside = r.outside_ns;
        if let Some(parent) = r.stack.last_mut() {
            parent.2 += dur + outside;
        }
    });
}

/// Time `f` in full and add it to `slot` (attach and finish calls).
fn timed<R>(f: impl FnOnce() -> R, slot: impl FnOnce(&mut LayerTotals) -> &mut u64) -> R {
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    with(|r| *slot(&mut r.totals) += ns);
    out
}

/// An [`OpTask`] whose polls are charged to `layer`.
pub struct TimedTask<T> {
    inner: T,
    layer: Layer,
}

impl<T: OpTask> TimedTask<T> {
    pub fn new(inner: T, layer: Layer) -> Self {
        TimedTask { inner, layer }
    }
}

impl<T: OpTask> OpTask for TimedTask<T> {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !enter(self.layer, Starts::Poll) {
            return self.inner.poll(ctx);
        }
        let out = self.inner.poll(ctx);
        exit();
        out
    }
}

/// An [`AnalysisPass`] whose calls are charged to `layer`.
pub struct TimedPass<P> {
    inner: P,
    layer: Layer,
}

impl<P: AnalysisPass> TimedPass<P> {
    pub fn new(inner: P, layer: Layer) -> Self {
        TimedPass { inner, layer }
    }
}

impl<P: AnalysisPass> AnalysisPass for TimedPass<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_attach(&mut self, meta: &RunMeta) {
        let i = self.layer as usize;
        timed(|| self.inner.on_attach(meta), |t| &mut t.attach_ns[i]);
    }

    fn on_event(&mut self, ev: &TraceEvent) {
        if !enter(self.layer, Starts::Nothing) {
            return self.inner.on_event(ev);
        }
        self.inner.on_event(ev);
        exit();
    }

    fn finish(&mut self) -> Vec<Violation> {
        let i = self.layer as usize;
        timed(|| self.inner.finish(), |t| &mut t.finish_ns[i])
    }

    fn summary(&self) -> Option<String> {
        self.inner.summary()
    }
}

/// A [`Scheduler`] whose picks start the gated workloads' units.
pub struct TimedScheduler<S> {
    inner: S,
}

impl<S: Scheduler> TimedScheduler<S> {
    pub fn new(inner: S) -> Self {
        TimedScheduler { inner }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn next(&mut self, active: &ActiveSet) -> usize {
        if !enter(Layer::Sched, Starts::Pick) {
            return self.inner.next(active);
        }
        let pid = self.inner.next(active);
        exit();
        pid
    }
}
