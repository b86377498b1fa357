//! Linearizability checking for the counter and max-register
//! specifications — the crate's decision procedure, run as a
//! push-driven state machine that consumes [`OpRecord`]s one at a time
//! and keeps retained state proportional to the number of
//! *concurrently open* operations, not to the length of the history.
//! Inline checks ([`crate::LinearizabilityPass`]) push a live run's
//! events; post-hoc checks ([`crate::check_counter`] and friends) feed
//! a whole history through [`OnlineChecker::feed_counter_history`] /
//! [`OnlineChecker::feed_maxreg_history`]. The quadratic
//! [`naive`](crate::naive) transcriptions and the exhaustive
//! [`wg`](crate::wg) search are the independent oracles it is
//! cross-validated against (see this crate's `tests/`).
//!
//! # Counter
//!
//! A history of (weighted) increments and reads returning `x_r` is
//! linearizable w.r.t. the k-multiplicative counter spec iff each read
//! `r` can be assigned an exact count `v_r` such that
//!
//! 1. `⌈x_r/k⌉ ≤ v_r ≤ x_r·k` (spec admissibility);
//! 2. `A_r ≤ v_r ≤ B_r`, where `A_r` sums increments *completed
//!    strictly before* `r` was invoked (they are forced before `r`) and
//!    `B_r` sums increments invoked at or before `r`'s response (only
//!    these can precede `r` — `i` may precede `r` iff `r` does not
//!    strictly precede `i`, i.e. `i.inv ≤ r.resp`);
//! 3. for every pair of reads with `r.resp < s.inv`:
//!    `v_s ≥ v_r + D(r, s)`, where `D(r, s)` sums increments whose whole
//!    window lies between `r`'s response and `s`'s invocation — everything
//!    `r` counted precedes `s` too, and the `D` increments are forced in
//!    between.
//!
//! An increment record of multiplicity `m` counts as `m` everywhere — it
//! is exactly `m` unit increments sharing one window (a pending batch
//! may have landed any prefix of them). Other read specifications
//! ([`CounterSpec`]) only change the window of constraint 1.
//!
//! Necessity of 1–3 is immediate; sufficiency is the standard
//! interval-order construction (place reads in `v_r`-order refined by
//! real time, then slot increments). The greedy longest-path assignment
//! `v_r = max(lo_r, max_{r'≺r}(v_{r'} + D(r', r)))` is minimal, so it
//! succeeds iff some assignment does.
//!
//! ## The sweep
//!
//! Constraint 3 is the hot loop. Evaluating it pairwise is `O(R²)`
//! ([`naive`](crate::naive) keeps that transcription as the oracle);
//! this engine instead walks all events in timestamp order and
//! maintains, in a monotone stack, the running quantity
//!
//! ```text
//! M(t) = max over reads p with p.resp < t of  ( v_p + D(p, t) )
//! ```
//!
//! so a read invoked at `t` needs just `v_r ≥ max(lo_r, M(t))`. Three
//! event types drive it: a read's *query* at `r.inv`, its *insert* at
//! `r.resp` (add the term `v_r`, with `D(r, t) = 0` at that instant),
//! and an increment *arrival* at `i.resp` (add its amount to the term
//! of every read with `p.resp < i.inv` — exactly the reads whose `D`
//! the increment enters). Terms only grow, prefixes (in `resp` order)
//! grow fastest, so the set of reads that can ever realize the maximum
//! is a stack of strictly increasing terms; each read enters and leaves
//! it at most once (the crate's `sweep` module).
//!
//! # Max register
//!
//! Analogous, with max instead of sum. Each read `r` gets a minimal
//! achievable maximum `m_r` with: `m_r ≥ base(r) = max(M_A(r), m_{r'}
//! for reads r' that precede r)` where `M_A(r)` is the largest write
//! completed before `r.inv`; `m_r` admissible for `x_r`. If `base(r)` is
//! not already admissible, a *witness* write `w` with `w.inv ≤ r.resp`
//! must be linearized before `r` — but placing `w` drags along everything
//! forced before `w` in real time: earlier-completed **writes** (their
//! values) and earlier-completed **reads** (whose own minimal maxima were
//! forced by *their* witnesses). So the witness's **effective value** is
//!
//! ```text
//! ev(w) = max(w.value,
//!             max{w'.value : w'.resp < w.inv},
//!             max{m_{r'}   : r'.resp < w.inv})
//! ```
//!
//! and the greedy picks the smallest admissible `ev(w)`. All quantities
//! depend only on strictly earlier timestamps, so one event-ordered
//! pass computes everything.
//!
//! # Running the sweep as a stream
//!
//! Every input the sweep consults is a prefix quantity of the very
//! stream it walks, so a push-driven checker needs no global tables:
//!
//! * `A` at a read's invocation is the running sum of completed
//!   increment amounts — *captured when the read is announced*;
//! * `B` at a read's response is the running sum of announced
//!   increment amounts — read when the read completes;
//! * the stack maximum `M` a query observes is the stack's state at the
//!   read's invocation — also captured at announcement;
//! * for the max register, `base(r)` and each witness's `ev(w)` are
//!   likewise captured at the operation's announcement, from the
//!   running completed-write and finalized-read maxima.
//!
//! The checker therefore splits every operation into an
//! **announcement** (at `inv`, before any same-timestamp completion)
//! and a **completion** (at `resp`); the per-operation capture lives
//! in a small per-process map while the operation is open and dies
//! with its completion (or crash). A read is decided at its
//! *response*, where `B` is finally known.
//!
//! # Watermark retirement: why retained state stays bounded
//!
//! The one structure that could still grow with history length is the
//! monotone stack. Its future behavior, however, depends only on the
//! term of the last live entry below each *future* `raise_before`
//! boundary — and those boundaries are exactly the invocation
//! timestamps of the increments currently in flight (a not-yet-seen
//! increment invokes in the future, above every stack key). The
//! checker keeps that boundary set as a multiset of open-increment
//! invocations and periodically folds every adjacent pair of stack
//! entries whose gap contains no boundary
//! ([`MonotoneStack::fold_and_compact`]); after a fold the live stack
//! has at most `open increments + 1` entries. Folding is triggered
//! when the live count has doubled since the last fold, so its `O(live)`
//! cost amortizes to `O(1)` per record. The max-register engine's
//! analogue prunes its witness set below
//! `min(max(completed write, finalized read), min open-read base)` —
//! values at or below that floor can never again be selected.
//!
//! **Complexity:** `O(log)` per record (one ordered-map operation plus
//! amortized-constant stack work); feeding a whole history adds one
//! sort of its `2·(ops)` announcement/completion events.
//!
//! # Input contract
//!
//! Records must be pushed in nondecreasing timestamp order, with an
//! operation's announcement (`resp: None`) arriving before any
//! same-timestamp completion. Driver-emitted streams satisfy this by
//! construction (tickets are globally unique and drawn in order). A
//! completed record with no prior announcement is accepted as an
//! atomic announce-then-complete, which is only valid while no other
//! operation overlaps it — overlapping operations must be streamed as
//! separate announcement and completion records. Violating the order
//! contract is *detected*, not undefined: the checker returns a
//! violation, which is what lets tests feed it deliberately reordered
//! streams and watch it object.

use crate::history::{CounterHistory, MaxRegHistory, Violation};
use crate::sweep::MonotoneStack;
use smr::{OpKind, OpRecord};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound::{Excluded, Included};
use std::sync::OnceLock;

/// Shared metric handles, resolved once per process. Pushes and folds
/// are the checker's two cost centers (per-record work and the
/// amortized compaction that keeps retained state bounded); the
/// retained gauge mirrors the peak so a snapshot shows how far the
/// streaming bound was stressed without calling
/// [`OnlineChecker::peak_retained`] on a live checker.
struct CheckerMetrics {
    pushes: &'static obs::Counter,
    folds: &'static obs::Counter,
    retained_peak: &'static obs::Gauge,
}

fn metrics() -> &'static CheckerMetrics {
    static METRICS: OnceLock<CheckerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CheckerMetrics {
        pushes: obs::counter(obs::names::SUB_LINCHECK, obs::names::LINCHECK_PUSHES),
        folds: obs::counter(obs::names::SUB_LINCHECK, obs::names::LINCHECK_FOLDS),
        retained_peak: obs::gauge(obs::names::SUB_LINCHECK, obs::names::LINCHECK_RETAINED),
    })
}

/// A relaxed counter read specification: the two closed-form windows
/// behind [`crate::check_counter`] and [`crate::check_counter_additive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterSpec {
    /// `k`-multiplicative accuracy: a read of `x` admits exact counts
    /// in `[⌈x/k⌉, x·k]` (saturating at the top).
    Multiplicative(u64),
    /// `k`-additive accuracy: a read of `x` admits exact counts in
    /// `[x − k, x + k]` (saturating at both ends).
    Additive(u64),
}

impl CounterSpec {
    /// The inclusive window of exact counts admitting a read of `x`.
    pub fn window(self, x: u128) -> (u128, u128) {
        match self {
            CounterSpec::Multiplicative(k) => {
                let kk = u128::from(k);
                (x.div_ceil(kk), x.saturating_mul(kk))
            }
            CounterSpec::Additive(k) => {
                let kk = u128::from(k);
                (x.saturating_sub(kk), x.saturating_add(kk))
            }
        }
    }
}

/// What a process's open operation captured at announcement time.
enum OpenCounterOp {
    Read {
        inv: u64,
        /// `A`: completed-increment weight at the read's invocation.
        a: u128,
        /// Stack maximum at the read's invocation.
        m: Option<u128>,
    },
    Inc {
        inv: u64,
        amount: u64,
    },
}

struct CounterState {
    spec: CounterSpec,
    /// Running weight of *completed* increments (`A` source).
    completed: u128,
    /// Running weight of *announced* increments (`B` source).
    announced: u128,
    stack: MonotoneStack,
    open: HashMap<usize, OpenCounterOp>,
    /// Multiset of in-flight increment invocations — the only possible
    /// future `raise_before` boundaries at or below current stack keys.
    seps: BTreeMap<u64, u32>,
    /// Live stack size right after the last fold; the next fold fires
    /// when the live count has (roughly) doubled past it.
    fold_floor: usize,
}

enum OpenMaxRegOp {
    Read {
        inv: u64,
        /// Forced maximum at the read's invocation.
        base: u128,
    },
    Write,
}

struct MaxRegState {
    k: u128,
    /// Largest completed write value.
    cwm: u128,
    /// Largest finalized (linearized) read maximum.
    frm: u128,
    /// Effective values of announced writes, distinct. A `BTreeSet`
    /// suffices: reads only ever take the *minimum* admissible witness
    /// in a value range, so multiplicity is irrelevant.
    witnesses: BTreeSet<u128>,
    open: HashMap<usize, OpenMaxRegOp>,
    /// Multiset of open-read bases, for the witness retirement floor.
    bases: BTreeMap<u128, u32>,
}

enum Inner {
    Counter(CounterState),
    MaxReg(MaxRegState),
}

/// Incremental linearizability checker for the counter and
/// max-register vocabularies. See the [module docs](self) for the
/// algorithm and the input contract.
pub struct OnlineChecker {
    inner: Inner,
    /// Last processed `(timestamp, phase)`; phase 0 = announcements,
    /// phase 1 = completions. Pushes must not regress below it.
    frontier: (u64, u8),
    /// First violation, sticky: every later call re-returns it.
    failed: Option<Violation>,
    /// Completed reads checked so far (for violation numbering).
    reads_checked: usize,
    peak: usize,
}

impl OnlineChecker {
    /// Checker for the `k`-multiplicative-accurate counter.
    pub fn counter(k: u64) -> Self {
        assert!(k >= 1);
        Self::counter_with(CounterSpec::Multiplicative(k))
    }

    /// Checker for the `k`-additive-accurate counter.
    pub fn counter_additive(k: u64) -> Self {
        Self::counter_with(CounterSpec::Additive(k))
    }

    /// Checker for an arbitrary [`CounterSpec`].
    pub fn counter_with(spec: CounterSpec) -> Self {
        OnlineChecker::new(Inner::Counter(CounterState {
            spec,
            completed: 0,
            announced: 0,
            stack: MonotoneStack::with_capacity(64),
            open: HashMap::new(),
            seps: BTreeMap::new(),
            fold_floor: 0,
        }))
    }

    /// Checker for the `k`-multiplicative-accurate max register.
    pub fn maxreg(k: u64) -> Self {
        assert!(k >= 1);
        OnlineChecker::new(Inner::MaxReg(MaxRegState {
            k: u128::from(k),
            cwm: 0,
            frm: 0,
            witnesses: BTreeSet::new(),
            open: HashMap::new(),
            bases: BTreeMap::new(),
        }))
    }

    fn new(inner: Inner) -> Self {
        OnlineChecker {
            inner,
            frontier: (0, 0),
            failed: None,
            reads_checked: 0,
            peak: 0,
        }
    }

    /// Currently retained entries: open operations plus live stack
    /// entries (counter) or retained witnesses (max register). This is
    /// the quantity the streaming design bounds by the maximum number
    /// of concurrently open operations.
    pub fn retained(&self) -> usize {
        match &self.inner {
            Inner::Counter(c) => c.open.len() + c.stack.live_len(),
            Inner::MaxReg(m) => m.open.len() + m.witnesses.len(),
        }
    }

    /// High-water mark of [`retained`](Self::retained) over the run.
    pub fn peak_retained(&self) -> usize {
        self.peak
    }

    /// Feed one record. `resp: None` announces an operation (captures
    /// its invocation-time state); `resp: Some` completes the
    /// operation announced earlier for the same pid, or — if none is
    /// open — performs an atomic announce-then-complete (valid only
    /// for non-overlapping operations; see the module docs).
    ///
    /// The first violation is sticky: once `Err` is returned, every
    /// subsequent call returns the same violation.
    pub fn push(&mut self, rec: &OpRecord) -> Result<(), Violation> {
        metrics().pushes.inc();
        if let Some(v) = &self.failed {
            return Err(v.clone());
        }
        let result = match rec.resp {
            None => self.announce(rec.pid, rec.kind, rec.inv),
            Some(resp) => {
                if self.has_open(rec.pid) {
                    self.complete(rec.pid, rec.kind, resp)
                } else {
                    self.announce(rec.pid, rec.kind, rec.inv)
                        .and_then(|()| self.complete(rec.pid, rec.kind, resp))
                }
            }
        };
        if let Err(v) = &result {
            self.failed = Some(v.clone());
        }
        let retained = self.retained();
        if retained > self.peak {
            // The gauge carries the peak, not the instantaneous value:
            // the instantaneous value swings every record, while the
            // peak is the quantity the streaming bound is about.
            metrics()
                .retained_peak
                .add(i64::try_from(retained - self.peak).unwrap_or(i64::MAX));
            self.peak = retained;
        }
        result
    }

    /// The process crashed: its open operation (if any) never
    /// completes. A crashed read imposes no constraint and is dropped;
    /// a crashed increment keeps its announced weight (it may have
    /// taken effect) but will never force a raise, so its invocation
    /// stops being a fold boundary; a crashed write keeps its witness
    /// (it may have taken effect).
    pub fn crash(&mut self, pid: usize) {
        match &mut self.inner {
            Inner::Counter(c) => match c.open.remove(&pid) {
                Some(OpenCounterOp::Inc { inv, .. }) => remove_sep(&mut c.seps, inv),
                Some(OpenCounterOp::Read { .. }) | None => {}
            },
            Inner::MaxReg(m) => match m.open.remove(&pid) {
                Some(OpenMaxRegOp::Read { base, .. }) => {
                    remove_base(&mut m.bases, base);
                    m.prune_witnesses();
                }
                Some(OpenMaxRegOp::Write) | None => {}
            },
        }
    }

    /// Finish the stream. Operations still open are pending records:
    /// they impose no further constraints (exactly as the offline
    /// extractors treat them), so this only re-reports a sticky
    /// violation, if any.
    pub fn finish(&mut self) -> Result<(), Violation> {
        match &self.failed {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }

    pub(crate) fn has_open(&self, pid: usize) -> bool {
        match &self.inner {
            Inner::Counter(c) => c.open.contains_key(&pid),
            Inner::MaxReg(m) => m.open.contains_key(&pid),
        }
    }

    /// Enforce the push-order contract: `key` must not regress below
    /// the frontier.
    fn advance(&mut self, key: (u64, u8), what: &str) -> Result<(), Violation> {
        if key < self.frontier {
            return Err(Violation {
                message: format!(
                    "online checker fed out of order: {what} at timestamp {} \
                     after the stream already advanced past timestamp {} \
                     (announcements must precede same-timestamp completions, \
                     and timestamps must not decrease)",
                    key.0, self.frontier.0
                ),
            });
        }
        self.frontier = key;
        Ok(())
    }

    fn announce(&mut self, pid: usize, kind: OpKind, inv: u64) -> Result<(), Violation> {
        self.advance((inv, 0), "announcement")?;
        match &mut self.inner {
            Inner::Counter(c) => {
                let op = match kind {
                    OpKind::Inc { amount } => {
                        c.announced += u128::from(amount);
                        *c.seps.entry(inv).or_insert(0) += 1;
                        OpenCounterOp::Inc { inv, amount }
                    }
                    OpKind::Read { .. } => OpenCounterOp::Read {
                        inv,
                        a: c.completed,
                        m: c.stack.max(),
                    },
                    other => return Err(vocabulary_violation(pid, other, "counter")),
                };
                if c.open.insert(pid, op).is_some() {
                    return Err(overlap_violation(pid, inv));
                }
            }
            Inner::MaxReg(m) => {
                let op = match kind {
                    OpKind::Write { value } => {
                        let ev = u128::from(value).max(m.cwm).max(m.frm);
                        m.witnesses.insert(ev);
                        OpenMaxRegOp::Write
                    }
                    OpKind::Read { .. } => {
                        let base = m.cwm.max(m.frm);
                        *m.bases.entry(base).or_insert(0) += 1;
                        OpenMaxRegOp::Read { inv, base }
                    }
                    other => return Err(vocabulary_violation(pid, other, "max register")),
                };
                if m.open.insert(pid, op).is_some() {
                    return Err(overlap_violation(pid, inv));
                }
            }
        }
        Ok(())
    }

    fn complete(&mut self, pid: usize, kind: OpKind, resp: u64) -> Result<(), Violation> {
        self.advance((resp, 1), "completion")?;
        let now = self.frontier.0;
        match &mut self.inner {
            Inner::Counter(c) => match (c.open.remove(&pid), kind) {
                (Some(OpenCounterOp::Inc { inv, amount }), _) => {
                    c.completed += u128::from(amount);
                    remove_sep(&mut c.seps, inv);
                    c.stack.raise_before(inv, u128::from(amount));
                    c.maybe_fold(now);
                }
                (Some(OpenCounterOp::Read { inv, a, m }), OpKind::Read { returned }) => {
                    let b = c.announced;
                    let (spec_lo, spec_hi) = c.spec.window(returned);
                    let lo = spec_lo.max(a).max(m.unwrap_or(0));
                    let hi = spec_hi.min(b);
                    let j = self.reads_checked;
                    if lo > hi {
                        return Err(Violation {
                            message: format!(
                                "read #{j} (window [{inv}, {resp}]) returned {returned} \
                                 but the exact count is confined to an empty window: \
                                 need ≥ {lo}, ≤ {hi} (forced-before A = {a}, \
                                 possible-before B = {b})"
                            ),
                        });
                    }
                    self.reads_checked += 1;
                    c.stack.insert(resp, lo);
                    c.maybe_fold(now);
                }
                (Some(OpenCounterOp::Read { .. }), other) => {
                    return Err(vocabulary_violation(pid, other, "counter"));
                }
                (None, _) => unreachable!("push() announces before completing"),
            },
            Inner::MaxReg(m) => match (m.open.remove(&pid), kind) {
                (Some(OpenMaxRegOp::Write), _) => {
                    if let OpKind::Write { value } = kind {
                        m.cwm = m.cwm.max(u128::from(value));
                    }
                    m.prune_witnesses();
                }
                (Some(OpenMaxRegOp::Read { inv, base }), OpKind::Read { returned }) => {
                    remove_base(&mut m.bases, base);
                    let spec_lo = returned.div_ceil(m.k.max(1)).min(returned);
                    let spec_hi = returned.saturating_mul(m.k);
                    let chosen = if base >= spec_lo {
                        (base <= spec_hi).then_some(base)
                    } else {
                        m.witnesses.range(spec_lo..=spec_hi).next().copied()
                    };
                    let i = self.reads_checked;
                    match chosen {
                        Some(v) => {
                            self.reads_checked += 1;
                            m.frm = m.frm.max(v);
                            m.prune_witnesses();
                        }
                        None => {
                            return Err(Violation {
                                message: format!(
                                    "read #{i} (window [{inv}, {resp}]) returned \
                                     {returned} but no admissible maximum exists: \
                                     forced maximum {base}, admissible value window \
                                     [{spec_lo}, {spec_hi}], and no write invoked at \
                                     or before the response timestamp {resp} has an \
                                     effective value in that window (k = {})",
                                    m.k
                                ),
                            });
                        }
                    }
                }
                (Some(OpenMaxRegOp::Read { .. }), other) => {
                    return Err(vocabulary_violation(pid, other, "max register"));
                }
                (None, _) => unreachable!("push() announces before completing"),
            },
        }
        Ok(())
    }

    /// Feed a whole counter history through the checker, splitting each
    /// operation into announcement and completion events delivered in
    /// timestamp order (reads before increments at equal keys). The
    /// checker must have been built by a `counter*` constructor.
    pub fn feed_counter_history(&mut self, h: &CounterHistory) -> Result<(), Violation> {
        assert!(
            matches!(self.inner, Inner::Counter(_)),
            "feed_counter_history on a max-register checker"
        );
        let reads = h.reads.len();
        self.feed_ops(reads + h.incs.len(), |idx| match h.reads.get(idx) {
            Some(r) => (OpKind::Read { returned: r.value }, r.inv, Some(r.resp)),
            None => {
                let inc = &h.incs[idx - reads];
                let kind = OpKind::Inc { amount: inc.amount };
                (kind, inc.window.inv, inc.window.resp)
            }
        })
    }

    /// Max-register analogue of
    /// [`feed_counter_history`](Self::feed_counter_history).
    pub fn feed_maxreg_history(&mut self, h: &MaxRegHistory) -> Result<(), Violation> {
        assert!(
            matches!(self.inner, Inner::MaxReg(_)),
            "feed_maxreg_history on a counter checker"
        );
        let reads = h.reads.len();
        self.feed_ops(reads + h.writes.len(), |idx| match h.reads.get(idx) {
            Some(r) => (OpKind::Read { returned: r.value }, r.inv, Some(r.resp)),
            None => {
                let w = &h.writes[idx - reads];
                (
                    OpKind::Write { value: w.value },
                    w.window.inv,
                    w.window.resp,
                )
            }
        })
    }

    /// Feed `n` operations, `op(idx) = (kind, inv, resp)`, each as its
    /// own pid. Events are compact `(timestamp, phase, index)` triples —
    /// 16 bytes each — sorted once; the [`OpRecord`] for each is built
    /// on the fly at its push, so a million-op history never holds a
    /// second copy of itself.
    fn feed_ops<F>(&mut self, n: usize, op: F) -> Result<(), Violation>
    where
        F: Fn(usize) -> (OpKind, u64, Option<u64>),
    {
        let idx32 = |i: usize| u32::try_from(i).expect("history exceeds u32::MAX operations");
        let mut events: Vec<(u64, u8, u32)> = Vec::with_capacity(2 * n);
        for i in 0..n {
            let (_, inv, resp) = op(i);
            events.push((inv, 0, idx32(i)));
            if let Some(resp) = resp {
                assert!(inv < resp, "operation window must satisfy inv < resp");
                events.push((resp, 1, idx32(i)));
            }
        }
        // The index is unique per phase, so the unstable sort is
        // deterministic: equal-timestamp events keep index order.
        events.sort_unstable();
        for (_, phase, i) in events {
            let pid = i as usize;
            let (kind, inv, resp) = op(pid);
            self.push(&OpRecord {
                pid,
                kind,
                inv,
                resp: if phase == 0 { None } else { resp },
                steps: 0,
            })?;
        }
        self.finish()
    }
}

impl CounterState {
    /// Fold + compact when the live stack has doubled since the last
    /// fold. A gap `(lo, hi]` is protected while an in-flight
    /// increment's invocation lies in it — or while `hi` is still at
    /// the stream frontier, where a not-yet-announced increment could
    /// tie with it (impossible with globally unique tickets, possible
    /// in synthetic histories).
    fn maybe_fold(&mut self, now: u64) {
        if self.stack.live_len() < 2 * self.fold_floor + 16 {
            return;
        }
        metrics().folds.inc();
        let seps = &self.seps;
        self.stack.fold_and_compact(|lo, hi| {
            hi >= now || seps.range((Excluded(lo), Included(hi))).next().is_some()
        });
        self.fold_floor = self.stack.live_len();
    }
}

impl MaxRegState {
    /// Drop witnesses that can never again be selected: a future read
    /// takes the witness branch only when its base — at least
    /// `max(cwm, frm)` by monotonicity — is *below* its window, so it
    /// needs a witness strictly above that base; an open read likewise
    /// needs one strictly above its captured base.
    fn prune_witnesses(&mut self) {
        let mut floor = self.cwm.max(self.frm);
        if let Some((&b, _)) = self.bases.iter().next() {
            floor = floor.min(b);
        }
        while let Some(&w) = self.witnesses.range(..=floor).next_back() {
            self.witnesses.remove(&w);
        }
    }
}

fn remove_sep(seps: &mut BTreeMap<u64, u32>, inv: u64) {
    if let Some(n) = seps.get_mut(&inv) {
        *n -= 1;
        if *n == 0 {
            seps.remove(&inv);
        }
    }
}

fn remove_base(bases: &mut BTreeMap<u128, u32>, base: u128) {
    if let Some(n) = bases.get_mut(&base) {
        *n -= 1;
        if *n == 0 {
            bases.remove(&base);
        }
    }
}

fn vocabulary_violation(pid: usize, kind: OpKind, expected: &str) -> Violation {
    Violation {
        message: format!(
            "operation \"{}\" (pid {pid}) is not part of the {expected} \
             vocabulary the online checker was configured for",
            kind.label()
        ),
    }
}

fn overlap_violation(pid: usize, inv: u64) -> Violation {
    Violation {
        message: format!(
            "process {pid} announced an operation (timestamp {inv}) while \
             its previous operation is still open: per-process operation \
             windows must be disjoint"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Interval, TimedInc, TimedRead, TimedWrite};
    use crate::naive::{check_counter, check_counter_additive, check_maxreg};

    fn announce_rec(pid: usize, kind: OpKind, inv: u64) -> OpRecord {
        OpRecord {
            pid,
            kind,
            inv,
            resp: None,
            steps: 0,
        }
    }

    fn complete_rec(pid: usize, kind: OpKind, inv: u64, resp: u64) -> OpRecord {
        OpRecord {
            pid,
            kind,
            inv,
            resp: Some(resp),
            steps: 0,
        }
    }

    fn inc(inv: u64, resp: u64) -> TimedInc {
        TimedInc::unit(Interval::done(inv, resp))
    }

    fn read(inv: u64, resp: u64, value: u128) -> TimedRead {
        TimedRead { inv, resp, value }
    }

    fn write(inv: u64, resp: u64, value: u64) -> TimedWrite {
        TimedWrite {
            window: Interval::done(inv, resp),
            value,
        }
    }

    #[test]
    fn counter_matches_offline_on_simple_histories() {
        // "Offline" is the naive oracle: a whole-history transcription
        // of the same predicates.
        let good = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 2)],
        };
        let bad = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 0)],
        };
        for (h, k) in [(&good, 1), (&bad, 1), (&bad, 2)] {
            let offline = check_counter(h, k);
            let online = OnlineChecker::counter(k).feed_counter_history(h);
            assert_eq!(offline.is_ok(), online.is_ok(), "k = {k}");
            let offline = check_counter_additive(h, k - 1);
            let online = OnlineChecker::counter_additive(k - 1).feed_counter_history(h);
            assert_eq!(offline.is_ok(), online.is_ok(), "additive k = {k}");
        }
    }

    #[test]
    fn maxreg_matches_offline_on_simple_histories() {
        let good = MaxRegHistory {
            writes: vec![write(0, 1, 5), write(2, 3, 3)],
            reads: vec![read(4, 5, 5)],
        };
        let bad = MaxRegHistory {
            writes: vec![write(0, 1, 5)],
            reads: vec![read(2, 3, 3)],
        };
        for (h, k) in [(&good, 1), (&bad, 1), (&bad, 2)] {
            let offline = check_maxreg(h, k);
            let online = OnlineChecker::maxreg(k).feed_maxreg_history(h);
            assert_eq!(offline.is_ok(), online.is_ok(), "k = {k}");
        }
    }

    #[test]
    fn pending_increment_widens_b_but_never_raises() {
        // A pending increment admits a read of 1 (it may have taken
        // effect) and, separately, a read of 0 (it may not have) — but
        // never forces anything.
        for value in [0u128, 1] {
            let h = CounterHistory {
                incs: vec![TimedInc::unit(Interval::pending(0))],
                reads: vec![read(1, 2, value)],
            };
            assert!(check_counter(&h, 1).is_ok());
            assert!(OnlineChecker::counter(1).feed_counter_history(&h).is_ok());
        }
    }

    #[test]
    fn crash_drops_the_separator_but_keeps_announced_weight() {
        let mut c = OnlineChecker::counter(1);
        c.push(&announce_rec(0, OpKind::Inc { amount: 1 }, 0))
            .unwrap();
        c.crash(0);
        // The crashed increment may still have taken effect: a read of
        // 1 is admissible...
        c.push(&complete_rec(1, OpKind::Read { returned: 1 }, 1, 2))
            .unwrap();
        // ...and so is a later read of 0 (it may not have).
        // (Monotonicity: the read of 1 linearized at count >= ... no —
        // lo for the read of 1 is max(spec_lo=1, A=0, m=none) = 1, so a
        // later read of 0 with hi = min(0, B=1) = 0 must fail.)
        let err = c
            .push(&complete_rec(2, OpKind::Read { returned: 0 }, 3, 4))
            .unwrap_err();
        assert!(err.message.contains("empty window"), "{}", err.message);
        // The naive oracle agrees.
        let h = CounterHistory {
            incs: vec![TimedInc::unit(Interval::pending(0))],
            reads: vec![read(1, 2, 1), read(3, 4, 0)],
        };
        assert!(check_counter(&h, 1).is_err());
    }

    #[test]
    fn out_of_order_pushes_are_detected_and_sticky() {
        let mut c = OnlineChecker::counter(1);
        c.push(&complete_rec(0, OpKind::Inc { amount: 1 }, 5, 6))
            .unwrap();
        let err = c
            .push(&complete_rec(1, OpKind::Read { returned: 1 }, 2, 3))
            .unwrap_err();
        assert!(err.message.contains("out of order"), "{}", err.message);
        // Sticky: a perfectly fine record now re-reports the failure.
        let again = c
            .push(&announce_rec(2, OpKind::Inc { amount: 1 }, 9))
            .unwrap_err();
        assert_eq!(err, again);
        assert!(c.finish().is_err());
    }

    #[test]
    fn overlapping_announcements_on_one_pid_are_rejected() {
        let mut c = OnlineChecker::counter(1);
        c.push(&announce_rec(0, OpKind::Inc { amount: 1 }, 0))
            .unwrap();
        let err = c
            .push(&announce_rec(0, OpKind::Inc { amount: 1 }, 1))
            .unwrap_err();
        assert!(err.message.contains("still open"), "{}", err.message);
    }

    #[test]
    fn wrong_vocabulary_is_flagged() {
        let mut c = OnlineChecker::counter(1);
        let err = c
            .push(&announce_rec(0, OpKind::Write { value: 3 }, 0))
            .unwrap_err();
        assert!(err.message.contains("vocabulary"), "{}", err.message);
        let mut m = OnlineChecker::maxreg(1);
        let err = m
            .push(&announce_rec(0, OpKind::Inc { amount: 1 }, 0))
            .unwrap_err();
        assert!(err.message.contains("vocabulary"), "{}", err.message);
    }

    #[test]
    fn retained_state_stays_bounded_on_a_long_sequential_stream() {
        // 100k sequential increment/read pairs: everything folds — the
        // retained state must stay tiny, nowhere near history size.
        let mut c = OnlineChecker::counter(1);
        let mut t = 0;
        for i in 0..100_000u64 {
            c.push(&complete_rec(0, OpKind::Inc { amount: 1 }, t, t + 1))
                .unwrap();
            c.push(&complete_rec(
                1,
                OpKind::Read {
                    returned: u128::from(i) + 1,
                },
                t + 2,
                t + 3,
            ))
            .unwrap();
            t += 4;
        }
        assert!(
            c.peak_retained() <= 64,
            "peak retained {} on a sequential stream",
            c.peak_retained()
        );
    }

    #[test]
    fn maxreg_witnesses_are_pruned_behind_the_floor() {
        let mut m = OnlineChecker::maxreg(2);
        let mut t = 0;
        for i in 1..=10_000u64 {
            m.push(&complete_rec(0, OpKind::Write { value: i }, t, t + 1))
                .unwrap();
            t += 2;
        }
        m.push(&complete_rec(1, OpKind::Read { returned: 9_999 }, t, t + 1))
            .unwrap();
        assert!(
            m.peak_retained() <= 8,
            "peak retained {} on sequential writes",
            m.peak_retained()
        );
    }
}
