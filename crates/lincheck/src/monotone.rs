//! Unit tests of the monotone-object specifications — exact,
//! k-multiplicative and k-additive counters, exact and k-multiplicative
//! max registers — driven through the crate-root one-call checkers
//! ([`check_counter`](crate::check_counter),
//! [`check_counter_additive`](crate::check_counter_additive),
//! [`check_maxreg`](crate::check_maxreg)), plus the sortedness contract
//! of the [`naive`](crate::naive) oracle's weighted-count helpers.

mod tests {
    use crate::history::{Interval, TimedInc, TimedRead, TimedWrite};
    use crate::naive::{prefix_sums, weighted_leq, weighted_lt};
    use crate::{check_counter, check_counter_additive, check_maxreg, CounterSpec, OnlineChecker};
    use crate::{CounterHistory, MaxRegHistory};

    fn inc(inv: u64, resp: u64) -> TimedInc {
        TimedInc::unit(Interval::done(inv, resp))
    }

    fn read(inv: u64, resp: u64, value: u128) -> TimedRead {
        TimedRead { inv, resp, value }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_counter(&CounterHistory::default(), 2).is_ok());
        assert!(check_maxreg(&MaxRegHistory::default(), 2).is_ok());
    }

    #[test]
    fn exact_sequential_counter_accepts() {
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 2)],
        };
        assert!(check_counter(&h, 1).is_ok());
    }

    #[test]
    fn exact_sequential_counter_rejects_wrong_value() {
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 3)],
        };
        assert!(check_counter(&h, 1).is_err());
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 1)],
        };
        assert!(check_counter(&h, 1).is_err());
    }

    #[test]
    fn relaxation_widens_acceptance() {
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 4)],
        };
        assert!(check_counter(&h, 1).is_err(), "exact rejects 4 for v=2");
        assert!(check_counter(&h, 2).is_ok(), "k=2 accepts 4 for v=2");
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 1)],
        };
        assert!(check_counter(&h, 2).is_ok(), "k=2 accepts 1 for v=2");
    }

    #[test]
    fn concurrent_increment_may_or_may_not_count() {
        // inc concurrent with the read: both 0 and 1 acceptable.
        for ret in [0u128, 1] {
            let h = CounterHistory {
                incs: vec![inc(0, 10)],
                reads: vec![read(1, 2, ret)],
            };
            assert!(check_counter(&h, 1).is_ok(), "ret {ret}");
        }
        let h = CounterHistory {
            incs: vec![inc(0, 10)],
            reads: vec![read(1, 2, 2)],
        };
        assert!(check_counter(&h, 1).is_err());
    }

    #[test]
    fn long_lived_increment_forces_accumulation() {
        // The trap the pairwise D-term exists for: a long increment iP
        // counted by read 1 plus a short increment completed in between
        // force read 2 to see at least 2.
        let h = CounterHistory {
            incs: vec![inc(0, 100), inc(3, 4)],
            reads: vec![read(1, 2, 1), read(5, 6, 1)],
        };
        assert!(
            check_counter(&h, 1).is_err(),
            "read1 counted iP; the short inc is forced between the reads"
        );
        let h = CounterHistory {
            incs: vec![inc(0, 100), inc(3, 4)],
            reads: vec![read(1, 2, 1), read(5, 6, 2)],
        };
        assert!(check_counter(&h, 1).is_ok());
    }

    #[test]
    fn sequenced_reads_must_be_monotone() {
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 1), read(4, 5, 0)],
        };
        assert!(check_counter(&h, 1).is_err());
    }

    #[test]
    fn chained_reads_accumulate_through_the_stack() {
        // Three sequenced reads, an in-between increment after each:
        // every read forces the next one unit higher. Exercises repeated
        // raise_before + insert interleavings.
        let h = CounterHistory {
            incs: vec![inc(0, 100), inc(3, 4), inc(7, 8)],
            reads: vec![read(1, 2, 1), read(5, 6, 2), read(9, 10, 3)],
        };
        assert!(check_counter(&h, 1).is_ok());
        let h = CounterHistory {
            incs: vec![inc(0, 100), inc(3, 4), inc(7, 8)],
            reads: vec![read(1, 2, 1), read(5, 6, 2), read(9, 10, 2)],
        };
        assert!(check_counter(&h, 1).is_err(), "third read must reach 3");
    }

    #[test]
    fn batched_increment_counts_with_multiplicity() {
        // One completed batch of 5: a later read must return 5 exactly.
        let h = CounterHistory {
            incs: vec![TimedInc::batch(Interval::done(0, 1), 5)],
            reads: vec![read(2, 3, 5)],
        };
        assert!(check_counter(&h, 1).is_ok());
        let h = CounterHistory {
            incs: vec![TimedInc::batch(Interval::done(0, 1), 5)],
            reads: vec![read(2, 3, 1)],
        };
        assert!(
            check_counter(&h, 1).is_err(),
            "a completed batch forces all 5 units"
        );
    }

    #[test]
    fn pending_batch_allows_any_prefix() {
        // A pending batch of 4 concurrent with the read: any value in
        // 0..=4 is a legal prefix; 5 is not.
        for ret in 0u128..=4 {
            let h = CounterHistory {
                incs: vec![TimedInc::batch(Interval::pending(0), 4)],
                reads: vec![read(1, 2, ret)],
            };
            assert!(check_counter(&h, 1).is_ok(), "ret {ret}");
        }
        let h = CounterHistory {
            incs: vec![TimedInc::batch(Interval::pending(0), 4)],
            reads: vec![read(1, 2, 5)],
        };
        assert!(check_counter(&h, 1).is_err());
    }

    #[test]
    fn additive_spec_accepts_and_rejects() {
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3), inc(4, 5)],
            reads: vec![read(6, 7, 1)],
        };
        assert!(check_counter_additive(&h, 2).is_ok(), "|3 − 1| ≤ 2");
        assert!(check_counter_additive(&h, 1).is_err(), "|3 − 1| > 1");
        // Additive overshoot is also allowed.
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 3)],
        };
        assert!(check_counter_additive(&h, 2).is_ok());
        assert!(check_counter_additive(&h, 1).is_err());
    }

    #[test]
    fn custom_window_checker() {
        // The generic entry point: a read of 1 after two increments
        // passes a "never below half" window and fails the exact one.
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 1)],
        };
        let check = |spec| OnlineChecker::counter_with(spec).feed_counter_history(&h);
        assert!(check(CounterSpec::Multiplicative(2)).is_ok());
        assert!(check(CounterSpec::Multiplicative(1)).is_err());
    }

    #[test]
    fn pending_increment_is_optional() {
        for ret in [0u128, 1] {
            let h = CounterHistory {
                incs: vec![TimedInc::unit(Interval::pending(0))],
                reads: vec![read(1, 2, ret)],
            };
            assert!(check_counter(&h, 1).is_ok(), "ret {ret}");
        }
    }

    fn write(inv: u64, resp: u64, value: u64) -> TimedWrite {
        TimedWrite {
            window: Interval::done(inv, resp),
            value,
        }
    }

    #[test]
    fn exact_maxreg_accepts_and_rejects() {
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 5), write(2, 3, 3)],
            reads: vec![read(4, 5, 5)],
        };
        assert!(check_maxreg(&h, 1).is_ok());
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 5)],
            reads: vec![read(2, 3, 3)],
        };
        assert!(check_maxreg(&h, 1).is_err(), "3 was never the maximum");
    }

    #[test]
    fn kmult_maxreg_accepts_magnitude() {
        // Algorithm 2 returns k^p ∈ [v, v·k]: e.g. v = 5, k = 2, x = 8.
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 5)],
            reads: vec![read(2, 3, 8)],
        };
        assert!(check_maxreg(&h, 1).is_err());
        assert!(check_maxreg(&h, 2).is_ok());
    }

    #[test]
    fn maxreg_sequenced_reads_monotone() {
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 8), write(2, 3, 2)],
            reads: vec![read(4, 5, 8), read(6, 7, 2)],
        };
        assert!(check_maxreg(&h, 1).is_err(), "maximum cannot shrink");
    }

    #[test]
    fn maxreg_concurrent_write_optional() {
        for ret in [0u128, 4] {
            let h = MaxRegHistory {
                writes: vec![write(0, 10, 4)],
                reads: vec![read(1, 2, ret)],
            };
            assert!(check_maxreg(&h, 1).is_ok(), "ret {ret}");
        }
    }

    #[test]
    fn maxreg_zero_read_requires_zero_history() {
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 4)],
            reads: vec![read(2, 3, 0)],
        };
        assert!(check_maxreg(&h, 3).is_err(), "x = 0 forces v = 0");
    }

    #[test]
    fn counter_violation_message_snapshot() {
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 0)],
        };
        let err = check_counter(&h, 1).unwrap_err();
        assert_eq!(
            err.message,
            "read #0 (window [2, 3]) returned 0 but the exact count is \
             confined to an empty window: need \u{2265} 1, \u{2264} 0 \
             (forced-before A = 1, possible-before B = 1)"
        );
    }

    #[test]
    fn maxreg_violation_message_snapshot() {
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 5)],
            reads: vec![read(2, 3, 3)],
        };
        let err = check_maxreg(&h, 1).unwrap_err();
        assert_eq!(
            err.message,
            "read #0 (window [2, 3]) returned 3 but no admissible maximum \
             exists: forced maximum 5, admissible value window [3, 3], and \
             no write invoked at or before the response timestamp 3 has an \
             effective value in that window (k = 1)"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-sorted")]
    fn prefix_sums_panics_on_unsorted_slice_in_debug() {
        let _ = prefix_sums(&[(5, 1), (2, 1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-sorted")]
    fn weighted_lt_panics_on_unsorted_slice_in_debug() {
        let _ = weighted_lt(&[(5, 1), (2, 1)], &[1, 2], 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-sorted")]
    fn weighted_leq_panics_on_unsorted_slice_in_debug() {
        let _ = weighted_leq(&[(5, 1), (2, 1)], &[1, 2], 3);
    }

    #[test]
    fn multiplicative_window_boundaries() {
        // k = 1: the window degenerates to [x, x].
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 2)],
        };
        assert!(check_counter(&h, 1).is_ok());
        // A read of u128::MAX under k = u64::MAX still demands a count
        // of at least div_ceil(u128::MAX, u64::MAX) > 0; with no
        // increments the possible-before weight is 0, so it rejects
        // (and the saturating upper bound must not mask that).
        let h = CounterHistory {
            incs: vec![],
            reads: vec![read(0, 1, u128::MAX)],
        };
        assert!(check_counter(&h, u64::MAX).is_err());
        // Batched increments of u64::MAX amounts accumulate in u128
        // without overflow; the exact sum is accepted at k = 1.
        let amounts = 3u128 * u128::from(u64::MAX);
        let h = CounterHistory {
            incs: vec![
                TimedInc::batch(Interval::done(0, 1), u64::MAX),
                TimedInc::batch(Interval::done(2, 3), u64::MAX),
                TimedInc::batch(Interval::done(4, 5), u64::MAX),
            ],
            reads: vec![read(6, 7, amounts)],
        };
        assert!(check_counter(&h, 1).is_ok());
        // Saturating upper bound: x * k clamps to u128::MAX, which is
        // exact (no count exceeds it), so a huge read under a huge k
        // accepts any sufficiently large exact count.
        let h = CounterHistory {
            incs: vec![TimedInc::batch(Interval::done(0, 1), u64::MAX)],
            reads: vec![read(2, 3, u128::MAX / u128::from(u64::MAX))],
        };
        assert!(check_counter(&h, u64::MAX).is_ok());
    }

    #[test]
    fn additive_window_boundaries() {
        // k = 0 degenerates to the exact counter.
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 1)],
        };
        assert!(check_counter_additive(&h, 0).is_ok());
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 2)],
        };
        assert!(check_counter_additive(&h, 0).is_err());
        // Lower bound saturates at zero: a read of 0 under a huge k
        // admits any small count.
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 0)],
        };
        assert!(check_counter_additive(&h, u64::MAX).is_ok());
        // Upper bound saturates at u128::MAX: a read of u128::MAX with
        // k = u64::MAX still demands a count of at least
        // u128::MAX - u64::MAX, which no history here provides.
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, u128::MAX)],
        };
        assert!(check_counter_additive(&h, u64::MAX).is_err());
    }
}
