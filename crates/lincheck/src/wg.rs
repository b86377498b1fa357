//! The exhaustive Wing–Gong linearizability checker.
//!
//! Spec-agnostic, exponential-time, memoized DFS over (set of linearized
//! operations, object state). Practical up to ~20 operations — exactly
//! what is needed to cross-validate the polynomial [`online`] engine on
//! randomized small histories, which is its sole purpose here.
//!
//! [`online`]: crate::online

use std::collections::HashSet;

/// An operation for the exhaustive checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WgOp {
    /// A unit counter increment.
    Inc,
    /// A counter read returning the given value.
    CounterRead(u128),
    /// A max-register write of the given value.
    Write(u64),
    /// A max-register read returning the given value.
    MaxRead(u128),
}

/// An operation with its execution window (`resp = None` ⇒ pending).
#[derive(Debug, Clone, Copy)]
pub struct WgEvent {
    /// The operation and its payload.
    pub op: WgOp,
    /// Invocation timestamp.
    pub inv: u64,
    /// Response timestamp (`None` for pending operations).
    pub resp: Option<u64>,
}

/// `v/k ≤ x ≤ v·k` in exact integer arithmetic.
fn admissible(v: u128, x: u128, k: u64) -> bool {
    let k = u128::from(k);
    v <= x.saturating_mul(k) && x <= v.saturating_mul(k)
}

/// Decide linearizability of a history of counter/max-register operations
/// against the k-multiplicative spec (`k = 1` ⇒ exact). The object state
/// is a single `u128` (count, or current maximum) — do not mix counter
/// and max-register operations in one call.
pub fn wg_check(events: &[WgEvent], k: u64) -> bool {
    assert!(
        events.len() <= 24,
        "exhaustive checker is for small histories (got {})",
        events.len()
    );
    let all_completed: u32 = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.resp.is_some())
        .map(|(i, _)| 1u32 << i)
        .sum();
    let mut memo: HashSet<(u32, u128)> = HashSet::new();
    dfs(events, k, 0, 0, all_completed, &mut memo)
}

fn dfs(
    events: &[WgEvent],
    k: u64,
    done: u32,
    state: u128,
    all_completed: u32,
    memo: &mut HashSet<(u32, u128)>,
) -> bool {
    if done & all_completed == all_completed {
        return true;
    }
    if !memo.insert((done, state)) {
        return false;
    }
    for (i, e) in events.iter().enumerate() {
        if done & (1 << i) != 0 {
            continue;
        }
        // `e` may be linearized next iff no other unlinearized operation
        // completed before `e` was invoked.
        let blocked = events
            .iter()
            .enumerate()
            .any(|(j, f)| j != i && done & (1 << j) == 0 && matches!(f.resp, Some(r) if r < e.inv));
        if blocked {
            continue;
        }
        let next_state = match e.op {
            WgOp::Inc => Some(state + 1),
            WgOp::CounterRead(x) => admissible(state, x, k).then_some(state),
            WgOp::Write(v) => Some(state.max(u128::from(v))),
            WgOp::MaxRead(x) => admissible(state, x, k).then_some(state),
        };
        if let Some(s) = next_state {
            if dfs(events, k, done | (1 << i), s, all_completed, memo) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: WgOp, inv: u64, resp: u64) -> WgEvent {
        WgEvent {
            op,
            inv,
            resp: Some(resp),
        }
    }

    #[test]
    fn sequential_exact_counter() {
        let h = [
            ev(WgOp::Inc, 0, 1),
            ev(WgOp::Inc, 2, 3),
            ev(WgOp::CounterRead(2), 4, 5),
        ];
        assert!(wg_check(&h, 1));
        let bad = [ev(WgOp::Inc, 0, 1), ev(WgOp::CounterRead(2), 2, 3)];
        assert!(!wg_check(&bad, 1));
    }

    #[test]
    fn concurrent_ops_explore_both_orders() {
        // Read concurrent with an increment: 0 and 1 both fine.
        for ret in [0u128, 1] {
            let h = [
                WgEvent {
                    op: WgOp::Inc,
                    inv: 0,
                    resp: Some(10),
                },
                ev(WgOp::CounterRead(ret), 1, 2),
            ];
            assert!(wg_check(&h, 1), "ret {ret}");
        }
    }

    #[test]
    fn pending_ops_are_optional() {
        let h = [
            WgEvent {
                op: WgOp::Inc,
                inv: 0,
                resp: None,
            },
            ev(WgOp::CounterRead(0), 1, 2),
            ev(WgOp::CounterRead(1), 3, 4),
        ];
        // First read skips the pending inc, second includes it.
        assert!(wg_check(&h, 1));
    }

    #[test]
    fn relaxed_counter_spec() {
        let h = [
            ev(WgOp::Inc, 0, 1),
            ev(WgOp::Inc, 2, 3),
            ev(WgOp::Inc, 4, 5),
            ev(WgOp::CounterRead(6), 6, 7),
        ];
        assert!(!wg_check(&h, 1));
        assert!(wg_check(&h, 2), "6 ∈ [3/2, 6]");
        let too_high = [ev(WgOp::Inc, 0, 1), ev(WgOp::CounterRead(3), 2, 3)];
        assert!(!wg_check(&too_high, 2));
        assert!(wg_check(&too_high, 3));
    }

    #[test]
    fn maxreg_semantics() {
        let h = [
            ev(WgOp::Write(7), 0, 1),
            ev(WgOp::Write(3), 2, 3),
            ev(WgOp::MaxRead(7), 4, 5),
        ];
        assert!(wg_check(&h, 1));
        let bad = [ev(WgOp::Write(7), 0, 1), ev(WgOp::MaxRead(3), 2, 3)];
        assert!(!wg_check(&bad, 1));
        assert!(wg_check(&bad, 3), "3 ∈ [7/3, 21]");
    }

    #[test]
    fn real_time_order_is_enforced() {
        // Write completes before read starts; read of stale 0 invalid.
        let h = [ev(WgOp::Write(9), 0, 1), ev(WgOp::MaxRead(0), 2, 3)];
        assert!(!wg_check(&h, 5), "x = 0 requires v = 0");
    }
}
