//! One-call checker entry points: a whole [`CounterHistory`] /
//! [`MaxRegHistory`], or a raw driver [`History`] — the form
//! `smr::explore` hands its checker closure.
//!
//! Each history-level function builds an [`OnlineChecker`] and feeds
//! it the history in timestamp order, so post-hoc checks run the same
//! engine as inline ones (see the [`online`](crate::online) module
//! docs for the decision procedure). The `*_records` forms bundle the
//! typed extraction ([`CounterHistory::from_records`] /
//! [`MaxRegHistory::from_records`]) with that check and flatten both
//! failure kinds (a record outside the object vocabulary, a genuine
//! linearizability violation) into the explorer's
//! `Result<(), String>` shape. `k = 1` checks the exact specification.

use crate::history::{CounterHistory, MaxRegHistory, Violation};
use crate::online::OnlineChecker;
use smr::History;

/// Check a counter history against the k-multiplicative-accurate counter
/// specification (`k = 1` for the exact counter).
///
/// A read returning `x` admits exact counts in the inclusive window
/// `[⌈x/k⌉, x·k]`: integer `div_ceil` at the bottom (the smallest `v`
/// with `v·k ≥ x`), saturating multiplication at the top. Saturation
/// is exact, not an approximation: a count can never exceed
/// `u128::MAX`, so clamping the upper bound there loses nothing. At
/// `x = 0` the window is `[0, 0]` for every `k` — a zero read always
/// claims the counter has never been incremented.
///
/// # Panics
/// If `k = 0`, or if a hand-built completed operation has
/// `inv ≥ resp` — a malformed window
/// ([`Interval::done`](crate::Interval::done) enforces the same
/// invariant, and driver-recorded histories satisfy it by
/// construction).
pub fn check_counter(h: &CounterHistory, k: u64) -> Result<(), Violation> {
    OnlineChecker::counter(k).feed_counter_history(h)
}

/// Check a counter history against the **k-additive**-accurate counter
/// specification: a read may return `x` with `|v − x| ≤ k`.
///
/// A read returning `x` admits exact counts in the inclusive window
/// `[x − k, x + k]`, saturating at both ends: `x − k` clamps to zero
/// (counts are nonnegative) and `x + k` clamps to `u128::MAX` (counts
/// cannot exceed it), so both clamps are exact rather than lossy.
/// `k = 0` degenerates to the exact counter.
pub fn check_counter_additive(h: &CounterHistory, k: u64) -> Result<(), Violation> {
    OnlineChecker::counter_additive(k).feed_counter_history(h)
}

/// Check a max-register history against the k-multiplicative-accurate max
/// register specification (`k = 1` for the exact max register).
pub fn check_maxreg(h: &MaxRegHistory, k: u64) -> Result<(), Violation> {
    OnlineChecker::maxreg(k).feed_maxreg_history(h)
}

/// Check a driver history against the k-multiplicative counter
/// specification (`k = 1`: the exact counter). Pending increments are
/// honoured as optional effects; pending reads constrain nothing.
pub fn check_counter_records(h: &History, k: u64) -> Result<(), String> {
    let ch = CounterHistory::from_records(h).map_err(|e| e.to_string())?;
    check_counter(&ch, k).map_err(|v| v.to_string())
}

/// Check a driver history against the k-multiplicative max-register
/// specification (`k = 1`: the exact max register).
pub fn check_maxreg_records(h: &History, k: u64) -> Result<(), String> {
    let mh = MaxRegHistory::from_records(h).map_err(|e| e.to_string())?;
    check_maxreg(&mh, k).map_err(|v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::{OpRecord, OpSpec};

    fn rec(pid: usize, spec: OpSpec, ret: u128, inv: u64, resp: Option<u64>) -> OpRecord {
        OpRecord {
            pid,
            kind: spec.kind(ret),
            inv,
            resp,
            steps: 1,
        }
    }

    #[test]
    fn counter_records_pass_and_fail() {
        let mut h = History::new();
        h.push(rec(0, OpSpec::inc(), 0, 0, Some(1)));
        h.push(rec(1, OpSpec::read(), 1, 2, Some(3)));
        assert_eq!(check_counter_records(&h, 1), Ok(()));

        // A later read that missed the completed increment.
        h.push(rec(1, OpSpec::read(), 0, 4, Some(5)));
        let err = check_counter_records(&h, 1).expect_err("stale read");
        assert!(!err.is_empty());
    }

    #[test]
    fn counter_records_reject_foreign_ops_gracefully() {
        let mut h = History::new();
        h.push(rec(0, OpSpec::custom("cas", 7), 0, 0, Some(1)));
        let err = check_counter_records(&h, 1).expect_err("foreign op");
        assert!(err.contains("counter"), "diagnosis names the vocabulary");
    }

    #[test]
    fn maxreg_records_pass_and_fail() {
        let mut h = History::new();
        h.push(rec(0, OpSpec::write(9), 0, 0, Some(1)));
        h.push(rec(1, OpSpec::read(), 9, 2, Some(3)));
        assert_eq!(check_maxreg_records(&h, 1), Ok(()));

        h.push(rec(1, OpSpec::read(), 0, 4, Some(5)));
        assert!(check_maxreg_records(&h, 1).is_err(), "max regressed");
        // The same history is also k-inadmissible for any k: 0 is not
        // within a factor of k of 9.
        assert!(check_maxreg_records(&h, 3).is_err());
    }

    #[test]
    fn maxreg_records_reject_reads_divided_by_eight() {
        // A driver history whose max-register reads were divided by 8
        // after the fact: at k = 2 the honest reads pass, the tampered
        // ones fall below every admissible window.
        let mut h = History::new();
        h.push(rec(0, OpSpec::write(40), 0, 0, Some(1)));
        h.push(rec(1, OpSpec::write(100), 0, 2, Some(3)));
        h.push(rec(2, OpSpec::read(), 64, 4, Some(5)));
        h.push(rec(2, OpSpec::read(), 128, 6, Some(7)));
        assert_eq!(check_maxreg_records(&h, 2), Ok(()));

        let tampered: History = h
            .ops()
            .iter()
            .map(|r| {
                let mut r = r.clone();
                if let smr::OpKind::Read { returned } = &mut r.kind {
                    *returned /= 8;
                }
                r
            })
            .collect();
        let err = check_maxreg_records(&tampered, 2).expect_err("reads / 8");
        assert!(err.contains("no admissible maximum"), "{err}");
    }
}
