//! Differential validation of the streaming checker: on any history —
//! pending records, batched increments, crash-truncated runs — the
//! [`OnlineChecker`] must accept or reject exactly when the offline
//! `naive` oracle does. A deliberately reordered push stream (the
//! seeded mutant) must be *caught*, not silently mis-checked.

use lincheck::naive::{check_counter, check_counter_additive, check_maxreg};
use lincheck::{
    CounterHistory, Interval, MaxRegHistory, OnlineChecker, TimedInc, TimedRead, TimedWrite,
};
use proptest::prelude::*;
use smr::{OpKind, OpRecord};

/// `(inv, duration, payload, pending-die)` over a small horizon so
/// windows overlap heavily; a die of 0 makes the operation pending.
type OpTuple = (u64, u64, u64, u8);

fn counter_history(incs: &[OpTuple], reads: &[(u64, u64, u64)]) -> CounterHistory {
    CounterHistory {
        incs: incs
            .iter()
            .map(|&(inv, dur, amount, die)| TimedInc {
                window: if die == 0 {
                    Interval::pending(inv)
                } else {
                    Interval::done(inv, inv + dur)
                },
                amount,
            })
            .collect(),
        reads: reads
            .iter()
            .map(|&(inv, dur, value)| TimedRead {
                inv,
                resp: inv + dur,
                value: u128::from(value),
            })
            .collect(),
    }
}

fn announce(pid: usize, kind: OpKind, inv: u64) -> OpRecord {
    OpRecord {
        pid,
        kind,
        inv,
        resp: None,
        steps: 0,
    }
}

fn complete(pid: usize, kind: OpKind, inv: u64, resp: u64) -> OpRecord {
    OpRecord {
        pid,
        kind,
        inv,
        resp: Some(resp),
        steps: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Online ≡ offline for the multiplicative counter on random
    /// histories with pending increments and batches.
    #[test]
    fn online_counter_matches_offline(
        k in 1u64..4,
        incs in prop::collection::vec((0u64..40, 1u64..15, 1u64..6, 0u8..6), 0..30),
        reads in prop::collection::vec((0u64..40, 1u64..15, 0u64..40), 1..30),
    ) {
        let h = counter_history(&incs, &reads);
        let offline = check_counter(&h, k);
        let online = OnlineChecker::counter(k).feed_counter_history(&h);
        prop_assert_eq!(
            offline.is_ok(),
            online.is_ok(),
            "k={} offline={:?} online={:?} history={:?}",
            k, offline, online, h
        );
    }

    /// Same for the additive window shape.
    #[test]
    fn online_additive_counter_matches_offline(
        k in 0u64..5,
        incs in prop::collection::vec((0u64..30, 1u64..12, 1u64..4, 0u8..6), 0..20),
        reads in prop::collection::vec((0u64..30, 1u64..12, 0u64..25), 1..20),
    ) {
        let h = counter_history(&incs, &reads);
        prop_assert_eq!(
            check_counter_additive(&h, k).is_ok(),
            OnlineChecker::counter_additive(k).feed_counter_history(&h).is_ok(),
            "k={} history={:?}",
            k, h
        );
    }

    /// Online ≡ offline for the max register, pending writes included.
    #[test]
    fn online_maxreg_matches_offline(
        k in 1u64..4,
        writes in prop::collection::vec((0u64..40, 1u64..15, 1u64..20, 0u8..6), 0..30),
        reads in prop::collection::vec((0u64..40, 1u64..15, 0u64..30), 1..30),
    ) {
        let h = MaxRegHistory {
            writes: writes
                .iter()
                .map(|&(inv, dur, value, die)| TimedWrite {
                    window: if die == 0 {
                        Interval::pending(inv)
                    } else {
                        Interval::done(inv, inv + dur)
                    },
                    value,
                })
                .collect(),
            reads: reads
                .iter()
                .map(|&(inv, dur, value)| TimedRead {
                    inv,
                    resp: inv + dur,
                    value: u128::from(value),
                })
                .collect(),
        };
        prop_assert_eq!(
            check_maxreg(&h, k).is_ok(),
            OnlineChecker::maxreg(k).feed_maxreg_history(&h).is_ok(),
            "k={} history={:?}",
            k, h
        );
    }

    /// Crash-truncated runs: ops whose process crashes mid-flight are
    /// fed to the online checker as announce-then-`crash(pid)`, and to
    /// the offline oracle in its native encoding — a pending increment
    /// (kept, may have taken effect) or a dropped read (imposes no
    /// constraint). Verdicts must agree.
    #[test]
    fn crash_truncated_runs_match_offline(
        k in 1u64..4,
        incs in prop::collection::vec((0u64..40, 1u64..15, 1u64..6, 0u8..6), 0..20),
        reads in prop::collection::vec((0u64..40, 1u64..15, 0u64..40, 0u8..6), 1..20),
    ) {
        // Offline encoding: crashed increment -> pending; crashed read
        // -> dropped.
        let offline_h = CounterHistory {
            incs: incs
                .iter()
                .map(|&(inv, dur, amount, die)| TimedInc {
                    window: if die == 0 {
                        Interval::pending(inv)
                    } else {
                        Interval::done(inv, inv + dur)
                    },
                    amount,
                })
                .collect(),
            reads: reads
                .iter()
                .filter(|&&(_, _, _, die)| die != 0)
                .map(|&(inv, dur, value, _)| TimedRead {
                    inv,
                    resp: inv + dur,
                    value: u128::from(value),
                })
                .collect(),
        };
        let offline = check_counter(&offline_h, k).is_ok();

        // Online encoding: every op is announced; crashed ops get
        // `crash(pid)` right after their announcement instead of a
        // completion. Reads first, then increments, stably sorted —
        // the order `feed_counter_history` uses at equal keys.
        #[derive(Clone, Copy)]
        enum Ev {
            Announce { pid: usize, kind: OpKind, inv: u64, crashed: bool },
            Complete { pid: usize, kind: OpKind, inv: u64, resp: u64 },
        }
        let mut events: Vec<(u64, u8, Ev)> = Vec::new();
        for (j, &(inv, dur, value, die)) in reads.iter().enumerate() {
            let kind = OpKind::Read { returned: u128::from(value) };
            let crashed = die == 0;
            events.push((inv, 0, Ev::Announce { pid: j, kind, inv, crashed }));
            if !crashed {
                events.push((inv + dur, 1, Ev::Complete { pid: j, kind, inv, resp: inv + dur }));
            }
        }
        for (i, &(inv, dur, amount, die)) in incs.iter().enumerate() {
            let pid = reads.len() + i;
            let kind = OpKind::Inc { amount };
            let crashed = die == 0;
            events.push((inv, 0, Ev::Announce { pid, kind, inv, crashed }));
            if !crashed {
                events.push((inv + dur, 1, Ev::Complete { pid, kind, inv, resp: inv + dur }));
            }
        }
        events.sort_by_key(|&(t, tie, _)| (t, tie));

        let mut checker = OnlineChecker::counter(k);
        let mut online = Ok(());
        'feed: for &(_, _, ev) in &events {
            let step = match ev {
                Ev::Announce { pid, kind, inv, crashed } => {
                    let r = checker.push(&announce(pid, kind, inv));
                    if r.is_ok() && crashed {
                        checker.crash(pid);
                    }
                    r
                }
                Ev::Complete { pid, kind, inv, resp } => {
                    checker.push(&complete(pid, kind, inv, resp))
                }
            };
            if step.is_err() {
                online = step;
                break 'feed;
            }
        }
        prop_assert_eq!(
            offline,
            online.is_ok(),
            "k={} offline_h={:?} online={:?}",
            k, offline_h, online
        );
    }
}

/// The seeded mutant: a valid sequential stream with two records
/// swapped out of timestamp order. The online checker must *catch*
/// the reorder — a sticky "fed out of order" violation — rather than
/// quietly computing a wrong verdict.
#[test]
fn reordered_push_mutant_is_caught() {
    let records = [
        complete(0, OpKind::Inc { amount: 1 }, 0, 1),
        complete(1, OpKind::Read { returned: 1 }, 2, 3),
        complete(2, OpKind::Inc { amount: 1 }, 4, 5),
        complete(3, OpKind::Read { returned: 2 }, 6, 7),
    ];
    // Baseline: in order, the stream is accepted.
    let mut checker = OnlineChecker::counter(1);
    for r in &records {
        checker.push(r).unwrap();
    }
    checker.finish().unwrap();

    // Mutant: swap records 1 and 2 (seeded, deterministic). The read's
    // announcement at timestamp 2 now arrives after the stream already
    // advanced to timestamp 5.
    let mut checker = OnlineChecker::counter(1);
    checker.push(&records[0]).unwrap();
    checker.push(&records[2]).unwrap();
    let err = checker.push(&records[1]).unwrap_err();
    assert!(err.message.contains("fed out of order"), "{}", err.message);
    // And it is sticky: the rest of the stream keeps re-reporting.
    let again = checker.push(&records[3]).unwrap_err();
    assert_eq!(err, again);
    assert!(checker.finish().is_err());
}

/// Retained state on a heavily concurrent but bounded-width stream
/// stays proportional to the concurrency, not the history length.
#[test]
fn retained_state_tracks_concurrency_not_history() {
    let width = 8u64; // concurrent ops per wave
    let mut checker = OnlineChecker::counter(1);
    let mut count: u128 = 0;
    let mut t = 0u64;
    for wave in 0..5_000u64 {
        // `width` increments open together, then all complete, then one
        // read observes the exact count.
        let base = t;
        for i in 0..width {
            checker
                .push(&announce(i as usize, OpKind::Inc { amount: 1 }, base + i))
                .unwrap();
        }
        t += width;
        for i in 0..width {
            checker
                .push(&complete(
                    i as usize,
                    OpKind::Inc { amount: 1 },
                    base + i,
                    t + i,
                ))
                .unwrap();
            count += 1;
        }
        t += width;
        checker
            .push(&complete(100, OpKind::Read { returned: count }, t, t + 1))
            .unwrap();
        t += 2;
        assert!(
            checker.retained() <= 4 * width as usize + 64,
            "wave {wave}: retained {} outgrew the concurrency bound",
            checker.retained()
        );
    }
    assert!(checker.peak_retained() <= 4 * width as usize + 64);
}
