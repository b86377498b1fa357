//! The happens-before audit: FastTrack-style vector clocks over the
//! event stream, plus the ticket-order cross-audit the monotone sweep
//! relies on.
//!
//! ## The partial order
//!
//! Happens-before is generated by
//!
//! * **program order** — each process's events, in stream order;
//! * **reads-from** — the write an access observes precedes it (gated
//!   executions serialize primitives, so a read observes the stream's
//!   latest write);
//! * **coherence** — successive nontrivial primitives on one object, in
//!   stream order.
//!
//! Two conflicting accesses (same object, not both reads) that are *not*
//! ordered by the edges **other than their own direct edge** form a
//! *racy pair*: the execution order between them is a genuine scheduling
//! choice, and each such pair is exactly a backtrack point a
//! DPOR-style explorer must consider (ROADMAP: explorer scale-up). The
//! pass flags these pairs informationally ([`HappensBefore::racy_pairs`];
//! they are not violations — gated executions *resolve* races, they
//! don't forbid them).
//!
//! Clocks are FastTrack-style: one epoch `(pid, clock)` per access, full
//! vector clocks only where joins demand them. Three properties keep
//! the pass viable on 10⁵-process coop runs:
//!
//! * **epoch-guarded joins** — a process absorbs a write's clock only if
//!   the write's epoch is outside its causal past. Components circulate
//!   solely through publishes and later publishes carry supersets, so
//!   "heard the writer's component at ≥ the write's epoch" already
//!   implies the whole snapshot is absorbed; the common ordered case is
//!   one clock lookup.
//! * **O(1) publishes** — a write stores the write's epoch plus an `Arc`
//!   alias of the writer's accumulated clock; nothing is cloned until
//!   the writer next *learns* something (copy-on-write).
//! * **adaptive vector clocks** (`Vc`) — a clock that has heard of
//!   few processes is a pid-sorted list of pairs, so memory stays
//!   proportional to communication, not to `n`; once it covers at
//!   least half the pids up to its largest, it becomes a pid-indexed
//!   array, no larger than the pairs, and a join is an element-wise
//!   `max` the compiler vectorises. Components are `u32`, four to an
//!   SSE2 register (a `u64` max has no SSE2 compare and runs two lanes
//!   wide, emulated); a clock that would pass `u32::MAX` panics.
//!
//! Per-process state (clocks, operation windows) lives in pid-indexed
//! vectors pre-sized from [`RunMeta::n`]; per-object state is keyed by
//! address under a one-multiply hasher; candidate racy pairs go to a
//! reused buffer. Apart from the copy-on-write clone when a process
//! learns something after publishing, an access allocates nothing.
//!
//! The cost is set by the workload's *communication density*: a process
//! that reads an object pays only when it has not heard of the write
//! yet. Cluster-local workloads keep small sparse clocks and stay O(1)
//! amortized per event at any `n`. A single globally-shared object
//! (kmult's `switch` bits, Algorithm 2's shared registers) densifies
//! every causal past to all `n` processes; each join is then Θ(n) word
//! maxima, linear but at memory speed rather than one hash probe per
//! component. EXP-ANALYSIS measures both regimes (kmult at `n = 3000`:
//! 222× pass overhead with hash-map clocks, 13.3× with `u64` arrays,
//! 8.2× with `u32` arrays).
//!
//! ## Ticket cross-audit
//!
//! `lincheck`'s monotone sweep consumes operation histories ordered by
//! invocation/response *tickets* and assumes they are drawn in execution
//! order. On coop runtimes (where invocation and completion events are
//! recorded controller-side, deterministically) the pass verifies
//! exactly that: tickets strictly increase in stream order, every
//! invocation precedes its response, and per-process operation windows
//! are disjoint. On the thread backend invocation events are emitted by
//! worker threads, so their stream positions race — the audit is
//! restricted to per-process window consistency there.

use super::{AnalysisPass, RunMeta, Violation};
use crate::trace::{Access, AccessKind, TraceEvent};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A vector clock: missing entries are zero. Shared with the
/// explorer's DPOR engine (`crate::explore`), which uses the same
/// clocks over replayed decision sequences to decide which dependent
/// step pairs are concurrent (reversible races) rather than ordered.
///
/// The representation adapts to density. A clock that has heard of few
/// processes is *sparse*: pid-sorted `(pid, clock)` pairs holding only
/// nonzero components, so memory follows communication, not `n`. It
/// turns *dense* — a pid-indexed array — once `2 · entries ≥ max_pid +
/// 1`, the point where the array is no larger than the pairs; a dense
/// join is then an element-wise `max` with no lookups. A dense clock
/// always keeps `len ≤ 2 · nonzero`, and falls back to pairs if a far
/// pid or a zeroed component would break that.
///
/// Components and pids are stored as `u32`: a dense join is then a
/// 4-lane `max` per SSE2 register rather than an emulated 2-lane `u64`
/// one. The interface stays `u64`; a component past `u32::MAX` panics
/// in [`set`](Vc::set) rather than wrapping.
#[derive(Debug, Clone)]
pub(crate) enum Vc {
    /// Pid-sorted pairs with nonzero clocks; `2 · len < max_pid + 1`.
    Sparse(Vec<(u32, u32)>),
    /// Clocks indexed by pid; `len ≤ 2 · nonzero`.
    Dense(Vec<u32>),
}

impl Default for Vc {
    fn default() -> Self {
        Vc::Sparse(Vec::new())
    }
}

/// `clock` as a stored component of `pid`'s entry. Clocks count events,
/// so passing `u32::MAX` means a run of more than 4·10⁹ events by one
/// process: refuse it loudly instead of wrapping into a smaller clock.
fn narrow(pid: usize, clock: u64) -> u32 {
    u32::try_from(clock)
        .unwrap_or_else(|_| panic!("vector-clock component of pid {pid} is {clock}, past u32::MAX"))
}

/// `pid` as a stored pid (the coop backend already requires pids to fit
/// in `u32`).
fn narrow_pid(pid: usize) -> u32 {
    u32::try_from(pid).unwrap_or_else(|_| panic!("pid {pid} does not fit a vector clock"))
}

impl Vc {
    pub(crate) fn get(&self, pid: usize) -> u64 {
        let c = match self {
            Vc::Sparse(v) => u32::try_from(pid)
                .ok()
                .and_then(|p| v.binary_search_by_key(&p, |&(q, _)| q).ok())
                .map_or(0, |i| v[i].1),
            Vc::Dense(v) => v.get(pid).copied().unwrap_or(0),
        };
        u64::from(c)
    }

    /// Set `pid`'s component. Panics, naming the pid and the value, if
    /// `clock` does not fit `u32`.
    pub(crate) fn set(&mut self, pid: usize, clock: u64) {
        let (p, clock) = (narrow_pid(pid), narrow(pid, clock));
        match self {
            Vc::Sparse(v) => match v.binary_search_by_key(&p, |&(q, _)| q) {
                Ok(i) if clock == 0 => {
                    v.remove(i);
                }
                Ok(i) => v[i].1 = clock,
                Err(_) if clock == 0 => return,
                Err(i) => v.insert(i, (p, clock)),
            },
            Vc::Dense(v) if pid < v.len() => {
                v[pid] = clock;
                if clock != 0 {
                    return;
                }
            }
            Vc::Dense(_) if clock == 0 => return,
            Vc::Dense(v) => {
                v.resize(pid + 1, 0);
                v[pid] = clock;
            }
        }
        self.settle();
    }

    pub(crate) fn join(&mut self, other: &Vc) {
        let recount = match (&mut *self, other) {
            (Vc::Dense(a), Vc::Dense(b)) => {
                // Joins only raise components, and the result is as
                // long as the longer input, which already kept the
                // density rule: no recount.
                if a.len() < b.len() {
                    a.resize(b.len(), 0);
                }
                for (x, &y) in a.iter_mut().zip(b) {
                    *x = (*x).max(y);
                }
                false
            }
            (Vc::Dense(a), Vc::Sparse(b)) => raise(a, b),
            (Vc::Sparse(a), Vc::Dense(b)) => {
                let mut d = b.clone();
                let grew = raise(&mut d, a);
                *self = Vc::Dense(d);
                grew
            }
            (Vc::Sparse(a), Vc::Sparse(b)) => {
                merge(a, b);
                true
            }
        };
        if recount {
            self.settle();
        }
    }

    /// Restore the representation rule after a change that may have
    /// broken it.
    fn settle(&mut self) {
        if let Vc::Dense(v) = self {
            let live = v.iter().filter(|&&c| c != 0).count();
            if 2 * live >= v.len() {
                return;
            }
            let pairs = (0u32..)
                .zip(v.iter())
                .filter(|&(_, &c)| c != 0)
                .map(|(p, &c)| (p, c))
                .collect();
            *self = Vc::Sparse(pairs);
        }
        if let Vc::Sparse(v) = self {
            if let Some(&(max_pid, _)) = v.last() {
                let max_pid = max_pid as usize;
                if 2 * v.len() > max_pid {
                    let mut d = vec![0; max_pid + 1];
                    for &(p, c) in v.iter() {
                        d[p as usize] = c;
                    }
                    *self = Vc::Dense(d);
                }
            }
        }
    }
}

/// Raise the dense clock `d` by the pairs `s`, growing it to cover
/// `s`'s largest pid. Returns whether it grew: only then can the
/// density rule have broken.
fn raise(d: &mut Vec<u32>, s: &[(u32, u32)]) -> bool {
    let need = s.last().map_or(0, |&(p, _)| p as usize + 1);
    let grew = need > d.len();
    if grew {
        d.resize(need, 0);
    }
    for &(p, c) in s {
        let x = &mut d[p as usize];
        *x = (*x).max(c);
    }
    grew
}

/// Sparse join: raise the shared components in place, then merge `b`'s
/// new pids in from the back, so an already-heard clock costs no
/// allocation.
fn merge(a: &mut Vec<(u32, u32)>, b: &[(u32, u32)]) {
    let mut fresh = 0;
    let mut i = 0;
    for &(p, c) in b {
        while i < a.len() && a[i].0 < p {
            i += 1;
        }
        match a.get_mut(i) {
            Some(e) if e.0 == p => e.1 = e.1.max(c),
            _ => fresh += 1,
        }
    }
    if fresh == 0 {
        return;
    }
    let (mut i, mut j) = (a.len(), b.len());
    a.resize(i + fresh, (0, 0));
    let mut k = a.len();
    while j > 0 {
        k -= 1;
        if i > 0 && a[i - 1].0 >= b[j - 1].0 {
            if a[i - 1].0 == b[j - 1].0 {
                j -= 1; // raised in place above
            }
            i -= 1;
            a[k] = a[i];
        } else {
            j -= 1;
            a[k] = b[j];
        }
    }
}

/// An epoch: one access, as `(pid, clock, seq)`.
#[derive(Debug, Clone, Copy)]
struct Epoch {
    pid: u32,
    clock: u32,
    seq: u64,
}

/// A process's clock. Everything learned from joins lives in `base`
/// (copy-on-write: published snapshots alias it), the process's own
/// component is kept outside so publishing a write never clones.
#[derive(Debug, Clone)]
struct ProcClock {
    base: Arc<Vc>,
    /// Strictly greater than every component of this process ever
    /// published (publishes tick past their own epoch), so reads after a
    /// write are distinguishable from the write itself.
    own: u32,
}

impl Default for ProcClock {
    /// Cloned to fill the per-process table, so every fresh process
    /// aliases one empty clock.
    fn default() -> Self {
        ProcClock {
            base: Arc::new(Vc::default()),
            // Start above zero so a first access is never confused with
            // the all-zero clock every process trivially dominates.
            own: 1,
        }
    }
}

impl ProcClock {
    /// This process's view of `pid`'s clock (`me` is this process).
    fn get(&self, me: u32, pid: u32) -> u32 {
        if pid == me {
            self.own
        } else {
            // Every stored component fits `u32` (see `narrow`).
            self.base.get(pid as usize) as u32
        }
    }

    /// Advance `own` by one and return the new value. Panics, naming
    /// the pid and the value, rather than wrap past `u32::MAX`.
    fn tick(&mut self, pid: u32) -> u32 {
        self.own = self.own.checked_add(1).unwrap_or_else(|| {
            panic!(
                "happens-before clock of pid {pid} is {}, past u32::MAX",
                u64::from(self.own) + 1
            )
        });
        self.own
    }
}

/// What a write publishes: its epoch plus the writer's accumulated
/// clock at that point (aliased, not cloned — see [`ProcClock`]).
#[derive(Debug, Clone)]
struct WriteSnap {
    epoch: Epoch,
    base: Arc<Vc>,
}

#[derive(Debug, Default)]
struct ObjState {
    /// The last nontrivial primitive (what a reads-from / coherence
    /// join transfers).
    last_write: Option<WriteSnap>,
    /// Reads since the last write (cleared by the next write, keeping
    /// its capacity).
    reads: Vec<Epoch>,
}

/// Object ids are addresses: a multiply spreads their aligned low bits
/// over the word, and the rotation hands the well-mixed high half to
/// the table's bucket index. One multiply per probe, where SipHash
/// costs a few dozen cycles.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("object ids hash as usize")
    }

    fn write_usize(&mut self, addr: usize) {
        self.0 = (addr as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }
}

/// One conflicting access pair not ordered by happens-before (minus its
/// own direct edge) — a DPOR backtrack point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RacyPair {
    /// Trace seq of the earlier access.
    pub first_seq: u64,
    /// Trace seq of the later access.
    pub second_seq: u64,
    /// The object both access.
    pub obj: usize,
    /// Kinds of the two accesses, stream order.
    pub kinds: (AccessKind, AccessKind),
}

/// Per-process in-flight operation window, for the ticket audit.
#[derive(Debug, Clone, Copy, Default)]
struct OpWindow {
    /// Ticket of the last completed operation's response.
    last_resp: Option<u64>,
    /// Invocation ticket of the in-flight operation.
    open_inv: Option<u64>,
}

/// `v[i]`, first growing `v` to cover `i`: per-process tables are
/// pre-sized from [`RunMeta::n`], but a pid past it (or a pass fed
/// events without an attach) gets fresh state rather than a panic.
fn slot<T: Clone + Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

/// The happens-before pass. See the [module docs](self).
pub struct HappensBefore {
    /// Per-process vector clocks, indexed by pid.
    clocks: Vec<ProcClock>,
    objects: HashMap<usize, ObjState, BuildHasherDefault<AddrHasher>>,
    /// Per-process operation windows, indexed by pid.
    windows: Vec<OpWindow>,
    /// The current access's candidate racy pairs; reused across
    /// accesses, so collecting them allocates only while it grows.
    pairs: Vec<(Epoch, AccessKind)>,
    racy: Vec<RacyPair>,
    racy_total: u64,
    max_racy: usize,
    /// Last ticket observed in stream order (coop only).
    last_ticket: Option<u64>,
    coop: bool,
    violations: Vec<Violation>,
    max_violations: usize,
}

impl HappensBefore {
    /// A fresh pass.
    pub fn new() -> Self {
        HappensBefore {
            clocks: Vec::new(),
            objects: HashMap::default(),
            windows: Vec::new(),
            pairs: Vec::new(),
            racy: Vec::new(),
            racy_total: 0,
            max_racy: 64,
            last_ticket: None,
            coop: false,
            violations: Vec::new(),
            max_violations: 64,
        }
    }

    /// The flagged conflicting-unordered pairs (capped at 64; see
    /// [`racy_total`](HappensBefore::racy_total) for the full count).
    pub fn racy_pairs(&self) -> &[RacyPair] {
        &self.racy
    }

    /// Total conflicting-unordered pairs observed, including beyond the
    /// retention cap.
    pub fn racy_total(&self) -> u64 {
        self.racy_total
    }

    fn violate(&mut self, pid: usize, seq: u64, message: String) {
        if self.violations.len() < self.max_violations {
            self.violations.push(Violation {
                pass: "happens-before",
                pid: Some(pid),
                seq: Some(seq),
                message,
            });
        }
    }

    fn window(&mut self, pid: usize) -> &mut OpWindow {
        slot(&mut self.windows, pid)
    }

    fn on_access(&mut self, a: &Access) {
        // Disjoint field borrows: the object entry and the clock entry
        // are mutated together, candidate pairs go to the reused
        // scratch buffer and are flagged after both borrows end.
        let me = narrow_pid(a.pid);
        let obj = self.objects.entry(a.obj).or_default();
        let vc = slot(&mut self.clocks, a.pid);

        // Is the last write outside this process's causal past? One
        // epoch probe decides: components circulate solely through
        // publishes, and later publishes carry supersets, so seeing the
        // writer's component at ≥ the write's epoch means the whole
        // snapshot was already absorbed.
        let unseen_write = obj
            .last_write
            .as_ref()
            .is_some_and(|w| w.epoch.pid != me && vc.get(me, w.epoch.pid) < w.epoch.clock);

        // Conflicting predecessors not ordered before this access by the
        // edges built so far (program order, earlier reads-from,
        // coherence) — checked before this access's own edges are added.
        let pairs = &mut self.pairs;
        pairs.clear();
        if unseen_write {
            pairs.push((
                obj.last_write.as_ref().expect("guarded").epoch,
                AccessKind::Write,
            ));
        }
        if a.kind.is_nontrivial() {
            for &r in &obj.reads {
                if r.pid != me && vc.get(me, r.pid) < r.clock {
                    pairs.push((r, AccessKind::Read));
                }
            }
        }

        // This access's edges: any access observes the last write
        // (reads-from for reading primitives, coherence for writes —
        // gated executions serialize primitives, so "the last write" is
        // well-defined in stream order). Skipped entirely in the ordered
        // case; when it fires, the process pays for exactly the
        // components it had not heard about.
        if unseen_write {
            let w = obj.last_write.as_ref().expect("guarded");
            let base = Arc::make_mut(&mut vc.base);
            base.join(&w.base);
            let writer = w.epoch.pid as usize;
            if base.get(writer) < u64::from(w.epoch.clock) {
                base.set(writer, u64::from(w.epoch.clock));
            }
        }

        if a.kind.is_nontrivial() {
            let epoch = Epoch {
                pid: me,
                clock: vc.tick(me),
                seq: a.seq,
            };
            obj.last_write = Some(WriteSnap {
                epoch,
                base: vc.base.clone(),
            });
            // Tick past the published epoch: later events by this
            // process must not be covered by joins of this snapshot.
            vc.tick(me);
            obj.reads.clear();
        } else {
            obj.reads.push(Epoch {
                pid: me,
                clock: vc.own,
                seq: a.seq,
            });
        }

        for &(first, first_kind) in &self.pairs {
            self.racy_total += 1;
            if self.racy.len() < self.max_racy {
                self.racy.push(RacyPair {
                    first_seq: first.seq,
                    second_seq: a.seq,
                    obj: a.obj,
                    kinds: (first_kind, a.kind),
                });
            }
        }
    }

    fn check_ticket(&mut self, pid: usize, seq: u64, ticket: u64, what: &str) {
        if self.coop {
            if let Some(last) = self.last_ticket {
                if ticket <= last {
                    self.violate(
                        pid,
                        seq,
                        format!(
                            "{what} ticket {ticket} out of order: the stream \
                             already saw ticket {last} — the timestamp order the \
                             lincheck sweep consumes does not match execution order"
                        ),
                    );
                }
            }
            self.last_ticket = Some(ticket);
        }
    }
}

impl Default for HappensBefore {
    fn default() -> Self {
        HappensBefore::new()
    }
}

impl AnalysisPass for HappensBefore {
    fn name(&self) -> &'static str {
        "happens-before"
    }

    fn on_attach(&mut self, meta: &RunMeta) {
        self.coop = meta.coop;
        // Pre-size the per-process tables to pids `0..n`.
        if let Some(last) = meta.n.checked_sub(1) {
            slot(&mut self.clocks, last);
            slot(&mut self.windows, last);
        }
    }

    fn on_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Access(ref a) => self.on_access(a),
            TraceEvent::Invoke {
                seq,
                pid,
                inv,
                kind,
            } => {
                let label = kind.label();
                self.check_ticket(pid, seq, inv, "invocation");
                if let Some(open) = self.window(pid).open_inv {
                    self.violate(
                        pid,
                        seq,
                        format!(
                            "operation {label:?} invoked (ticket {inv}) while the \
                             operation invoked at ticket {open} is still open: \
                             per-process operation windows must be disjoint"
                        ),
                    );
                }
                let w = self.window(pid);
                w.open_inv = Some(inv);
                if let Some(last) = w.last_resp {
                    if inv <= last {
                        self.violate(
                            pid,
                            seq,
                            format!(
                                "operation {label:?}: invocation ticket {inv} does \
                                 not follow the previous response ticket {last}"
                            ),
                        );
                    }
                }
            }
            TraceEvent::Complete {
                seq,
                pid,
                resp,
                kind,
            } => {
                let label = kind.label();
                self.check_ticket(pid, seq, resp, "response");
                let w = self.window(pid);
                let open = w.open_inv.take();
                w.last_resp = Some(resp);
                match open {
                    Some(inv) if inv >= resp => {
                        self.violate(
                            pid,
                            seq,
                            format!(
                                "operation {label:?}: response ticket {resp} does \
                                 not follow its invocation ticket {inv}"
                            ),
                        );
                    }
                    Some(_) => {}
                    None => {
                        self.violate(
                            pid,
                            seq,
                            format!(
                                "operation {label:?} completed (ticket {resp}) \
                                 with no open invocation"
                            ),
                        );
                    }
                }
            }
            TraceEvent::Crash { pid, .. } => {
                // The in-flight operation never completes; close the
                // window so later (impossible) events are flagged.
                self.window(pid).open_inv = None;
            }
            TraceEvent::Grant { .. } => {}
        }
    }

    fn finish(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpKind;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The clock semantics every representation must keep: a plain map,
    /// missing entries zero, `set` overwrites, `join` takes maxima.
    #[derive(Default)]
    struct RefVc(HashMap<usize, u64>);

    impl RefVc {
        fn join(&mut self, other: &RefVc) {
            for (&pid, &clock) in &other.0 {
                let e = self.0.entry(pid).or_insert(0);
                *e = (*e).max(clock);
            }
        }

        fn live(&self) -> usize {
            self.0.values().filter(|&&c| c != 0).count()
        }
    }

    /// Pids the checks probe: every pid the generated operations touch.
    const PROBE: std::ops::Range<usize> = 0..240;

    /// The largest component a clock stores.
    const TOP: u64 = u32::MAX as u64;

    /// `vc` agrees with `r` on every probed pid and keeps its
    /// representation rule.
    fn check(vc: &Vc, r: &RefVc) {
        for pid in PROBE {
            assert_eq!(
                vc.get(pid),
                r.0.get(&pid).copied().unwrap_or(0),
                "pid {pid}"
            );
        }
        match vc {
            Vc::Sparse(v) => {
                assert!(v.windows(2).all(|w| w[0].0 < w[1].0), "unsorted {v:?}");
                assert!(v.iter().all(|&(_, c)| c != 0), "zero entry {v:?}");
                if let Some(&(max_pid, _)) = v.last() {
                    assert!(2 * v.len() < max_pid as usize + 1, "should be dense: {v:?}");
                }
            }
            // Checked after every operation, so in particular on the one
            // that switched the clock: a dense clock is never longer than
            // twice its entry count.
            Vc::Dense(v) => {
                assert!(
                    v.len() <= 2 * r.live(),
                    "len {} > 2 · {}",
                    v.len(),
                    r.live()
                );
            }
        }
    }

    /// Apply one generated operation to the clocks and the references.
    fn apply(clocks: &mut [Vc], refs: &mut [RefVc], op: (u8, usize, usize, usize, u64)) {
        let (kind, a, b, pid, value) = op;
        match kind {
            0 => {
                clocks[a].set(pid, value);
                refs[a].0.insert(pid, value);
            }
            1 => {
                // A contiguous run of nonzero components: builds dense
                // clocks.
                let value = (value + 1).min(TOP);
                for p in pid..pid + 12 {
                    clocks[a].set(p, value);
                    refs[a].0.insert(p, value);
                }
            }
            _ => {
                let src = clocks[b].clone();
                clocks[a].join(&src);
                let src = RefVc(refs[b].0.clone());
                refs[a].join(&src);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The adaptive clock ≡ the hash-map reference over random
        /// `set`/`join` sequences: pid gaps (a far cluster at 200..),
        /// zeroed components, runs that push clocks across the switch
        /// threshold and back, joins between every pairing of
        /// representations, and components at the top of the `u32`
        /// range, where a narrowing or signed-compare bug would show.
        #[test]
        fn vc_matches_a_hash_map_reference(
            ops in prop::collection::vec(
                (
                    0u8..4,
                    0usize..4,
                    0usize..4,
                    prop_oneof![0usize..24, 200usize..216],
                    prop_oneof![0u64..6, (TOP - 5)..=TOP, (1u64 << 31) - 2..(1u64 << 31) + 2],
                ),
                1..80,
            ),
        ) {
            let mut clocks = vec![Vc::default(); 4];
            let mut refs: Vec<RefVc> = (0..4).map(|_| RefVc::default()).collect();
            for op in ops {
                apply(&mut clocks, &mut refs, op);
                for (vc, r) in clocks.iter().zip(&refs) {
                    check(vc, r);
                }
            }
        }
    }

    fn sparse(pids: &[usize]) -> (Vc, RefVc) {
        let mut vc = Vc::default();
        let mut r = RefVc::default();
        for (i, &p) in pids.iter().enumerate() {
            vc.set(p, 10 + i as u64);
            r.0.insert(p, 10 + i as u64);
        }
        (vc, r)
    }

    #[test]
    fn every_join_pairing_matches_the_reference() {
        let is_dense = |vc: &Vc| matches!(vc, Vc::Dense(_));
        let cases: [(&[usize], &[usize], bool, bool); 5] = [
            (&[3, 90], &[1, 50, 90], false, false),
            (&[3, 90], &[0, 1, 2, 3, 4], false, true),
            (&[0, 1, 2, 3], &[2, 70], true, false),
            (&[0, 1, 2], &[0, 1, 2, 3, 4, 5, 6], true, true),
            // Sparse ⊔ sparse whose union crosses the threshold.
            (&[0, 4, 8], &[2, 6, 10], false, false),
        ];
        for (x, y, x_dense, y_dense) in cases {
            let (mut a, mut ra) = sparse(x);
            let (b, rb) = sparse(y);
            assert_eq!(
                (is_dense(&a), is_dense(&b)),
                (x_dense, y_dense),
                "{x:?} {y:?}"
            );
            a.join(&b);
            ra.join(&rb);
            check(&a, &ra);
        }
        let (mut a, _) = sparse(&[0, 4, 8]);
        a.join(&sparse(&[2, 6, 10]).0);
        assert!(is_dense(&a), "the union is dense: {a:?}");
    }

    #[test]
    fn a_far_pid_turns_a_dense_clock_sparse() {
        let (mut a, mut r) = sparse(&[0, 1, 2, 3]);
        assert!(matches!(a, Vc::Dense(_)));
        a.set(1_000, 7);
        r.0.insert(1_000, 7);
        assert!(matches!(a, Vc::Sparse(_)), "{a:?}");
        check(&a, &r);
        // And zeroing a dense clock's components sheds the array.
        let (mut a, mut r) = sparse(&[0, 1, 2, 3, 4, 5]);
        for p in 0..4 {
            a.set(p, 0);
            r.0.insert(p, 0);
        }
        check(&a, &r);
    }

    #[test]
    #[should_panic(expected = "pid 7 is 4294967296, past u32::MAX")]
    fn a_component_past_u32_max_panics_naming_the_pid() {
        let mut vc = Vc::default();
        vc.set(7, TOP);
        assert_eq!(vc.get(7), TOP);
        vc.set(7, TOP + 1);
    }

    #[test]
    #[should_panic(expected = "pid 3 is 4294967296, past u32::MAX")]
    fn an_own_tick_past_u32_max_panics_naming_the_pid() {
        let mut c = ProcClock {
            own: u32::MAX - 1,
            ..ProcClock::default()
        };
        assert_eq!(c.tick(3), u32::MAX);
        c.tick(3);
    }

    #[test]
    fn pids_beyond_run_meta_n_grow_the_state() {
        let mut h = HappensBefore::new();
        h.on_attach(&meta_coop()); // n = 4
        h.on_event(&acc(0, 4, 0xA, AccessKind::Write));
        h.on_event(&acc(1, 9, 0xA, AccessKind::Read));
        h.on_event(&TraceEvent::Crash { seq: 2, pid: 12 });
        h.on_event(&TraceEvent::Invoke {
            seq: 3,
            pid: 20,
            kind: OpKind::Custom {
                label: "a",
                arg: 0,
                ret: 0,
            },
            inv: 0,
        });
        assert_eq!(h.racy_total(), 1);
        assert!(h.clocks.len() >= 10 && h.windows.len() >= 21);
        assert!(h.finish().is_empty());

        // Without an attach the tables start empty and grow the same way.
        let mut h = HappensBefore::new();
        h.on_event(&acc(0, 2, 0xA, AccessKind::Write));
        h.on_event(&acc(1, 0, 0xA, AccessKind::Read));
        assert_eq!(h.racy_total(), 1);
    }

    fn meta_coop() -> RunMeta {
        RunMeta {
            n: 4,
            gated: true,
            coop: true,
        }
    }

    fn acc(seq: u64, pid: usize, obj: usize, kind: AccessKind) -> TraceEvent {
        TraceEvent::Access(Access {
            seq,
            pid,
            obj,
            kind,
            before: 0,
            after: 0,
        })
    }

    #[test]
    fn program_order_alone_is_race_free() {
        let mut h = HappensBefore::new();
        h.on_attach(&meta_coop());
        h.on_event(&acc(0, 0, 0xA, AccessKind::Write));
        h.on_event(&acc(1, 0, 0xA, AccessKind::Read));
        h.on_event(&acc(2, 0, 0xB, AccessKind::Write));
        assert!(h.finish().is_empty());
        assert_eq!(h.racy_total(), 0);
    }

    #[test]
    fn cross_process_write_read_is_a_racy_pair_once() {
        let mut h = HappensBefore::new();
        h.on_attach(&meta_coop());
        h.on_event(&acc(0, 0, 0xA, AccessKind::Write));
        h.on_event(&acc(1, 1, 0xA, AccessKind::Read));
        // The read joined the writer's clock; a second read of the same
        // object is now ordered after the write — no new pair.
        h.on_event(&acc(2, 1, 0xA, AccessKind::Read));
        assert_eq!(h.racy_total(), 1);
        let p = h.racy_pairs()[0];
        assert_eq!((p.first_seq, p.second_seq), (0, 1));
        assert_eq!(p.kinds, (AccessKind::Write, AccessKind::Read));
        assert!(h.finish().is_empty(), "racy pairs are not violations");
    }

    #[test]
    fn read_write_conflict_is_flagged() {
        let mut h = HappensBefore::new();
        h.on_attach(&meta_coop());
        h.on_event(&acc(0, 0, 0xA, AccessKind::Read));
        h.on_event(&acc(1, 1, 0xA, AccessKind::Write));
        assert_eq!(h.racy_total(), 1);
        assert_eq!(
            h.racy_pairs()[0].kinds,
            (AccessKind::Read, AccessKind::Write)
        );
    }

    #[test]
    fn disjoint_objects_never_conflict() {
        let mut h = HappensBefore::new();
        h.on_attach(&meta_coop());
        h.on_event(&acc(0, 0, 0xA, AccessKind::Write));
        h.on_event(&acc(1, 1, 0xB, AccessKind::Write));
        assert_eq!(h.racy_total(), 0);
    }

    #[test]
    fn transitive_ordering_suppresses_pairs() {
        // p0 writes A; p1 reads A (joins p0) then writes B: B's write is
        // ordered after A's write transitively, so p0's later read of B
        // — wait, p0 hasn't joined p1. But p1's write to A after reading
        // A is ordered; check no pair for p1's second access to A.
        let mut h = HappensBefore::new();
        h.on_attach(&meta_coop());
        h.on_event(&acc(0, 0, 0xA, AccessKind::Write));
        h.on_event(&acc(1, 1, 0xA, AccessKind::Read)); // pair (0,1)
        h.on_event(&acc(2, 1, 0xA, AccessKind::Write)); // ordered: no pair
        assert_eq!(h.racy_total(), 1);
    }

    #[test]
    fn ticket_monotonicity_violation_is_reported() {
        let mut h = HappensBefore::new();
        h.on_attach(&meta_coop());
        h.on_event(&TraceEvent::Invoke {
            seq: 0,
            pid: 0,
            kind: OpKind::Custom {
                label: "inc",
                arg: 0,
                ret: 0,
            },
            inv: 5,
        });
        h.on_event(&TraceEvent::Complete {
            seq: 1,
            pid: 0,
            kind: OpKind::Custom {
                label: "inc",
                arg: 0,
                ret: 0,
            },
            resp: 3, // out of order AND before its invocation
        });
        let v = h.finish();
        assert!(
            v.iter().any(|v| v.message.contains("out of order")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|v| v.message.contains("does not follow its invocation")),
            "{v:?}"
        );
    }

    #[test]
    fn overlapping_windows_are_reported() {
        let mut h = HappensBefore::new();
        h.on_attach(&meta_coop());
        h.on_event(&TraceEvent::Invoke {
            seq: 0,
            pid: 0,
            kind: OpKind::Custom {
                label: "a",
                arg: 0,
                ret: 0,
            },
            inv: 0,
        });
        h.on_event(&TraceEvent::Invoke {
            seq: 1,
            pid: 0,
            kind: OpKind::Custom {
                label: "b",
                arg: 0,
                ret: 0,
            },
            inv: 1,
        });
        let v = h.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("disjoint"), "{}", v[0].message);
    }

    #[test]
    fn crash_closes_the_window() {
        let mut h = HappensBefore::new();
        h.on_attach(&meta_coop());
        h.on_event(&TraceEvent::Invoke {
            seq: 0,
            pid: 0,
            kind: OpKind::Custom {
                label: "a",
                arg: 0,
                ret: 0,
            },
            inv: 0,
        });
        h.on_event(&TraceEvent::Crash { seq: 1, pid: 0 });
        h.on_event(&TraceEvent::Complete {
            seq: 2,
            pid: 0,
            kind: OpKind::Custom {
                label: "a",
                arg: 0,
                ret: 0,
            },
            resp: 1,
        });
        let v = h.finish();
        assert!(
            v.iter().any(|v| v.message.contains("no open invocation")),
            "a completion after a crash is impossible: {v:?}"
        );
    }
}
