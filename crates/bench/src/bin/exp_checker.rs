//! EXP-CHECKER — throughput of the linearizability checker on
//! synthetic large counter histories, in two modes:
//!
//! * **offline** — the retained `O(R² log I)` pairwise `naive` oracle
//!   over a complete history (small sizes only);
//! * **online** — the streaming [`lincheck::OnlineChecker`] consuming
//!   the same history as a pre-sorted record stream, one push per
//!   announcement/completion, with retained state bounded by the
//!   history's maximum concurrency rather than its length.
//!
//! The north star is checking **million-op histories** as they are
//! produced; this experiment tracks the streaming engine's throughput
//! and footprint, and the asymptotic gap to the quadratic oracle.
//! Histories are synthesized from a valid execution (every read returns
//! its forced-before count, which always linearizes), with heavily
//! overlapping windows, pending operations and multi-unit increment
//! batches, so the monotone stack and the watermark retirement both do
//! real work. On each size where the oracle runs, the two verdicts are
//! cross-checked; the online engine's peak retained state is asserted
//! against the history's measured concurrency.
//!
//! Results land in `BENCH_checker.json` (cwd) for regression tracking.
//! Each row carries a `mode` field (`offline` / `online`) that joins
//! the row identity, and online rows add `peak_retained_entries` — a
//! memory-direction metric `bench_diff` checks for growth.
//!
//! Run: `cargo run --release -p bench --bin exp_checker`
//! CI:  `cargo run --release -p bench --bin exp_checker -- --smoke`
//! (`--smoke` shrinks the sizes to keep the bin exercised without
//! costing CI minutes; `REPRO_SCALE` multiplies the full sizes.)

use bench::emit::{mode_str, Report, Row};
use bench::tables::{f2, Table};
use lincheck::naive::{self, prefix_sums, weighted_lt};
use lincheck::{CounterHistory, Interval, OnlineChecker, TimedInc, TimedRead};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smr::{OpKind, OpRecord};
use std::time::Instant;

/// Synthesize a linearizable counter history of `n_incs` increment
/// records and `n_reads` reads with overlapping windows. Reads return
/// their forced-before weight `A_r` — always a valid assignment (the
/// greedy's own lower bound), so the checkers run to completion over
/// the whole history instead of bailing at the first read.
fn synth_history(n_incs: usize, n_reads: usize, seed: u64) -> CounterHistory {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = 2 * (n_incs + n_reads) as u64 + 2;
    let mut incs = Vec::with_capacity(n_incs);
    for _ in 0..n_incs {
        let inv = rng.random_range(0..horizon);
        let pending = rng.random_range(0..16) == 0;
        let amount = 1 + rng.random_range(0..3);
        incs.push(TimedInc {
            window: if pending {
                Interval::pending(inv)
            } else {
                Interval::done(inv, inv + 1 + rng.random_range(0..32))
            },
            amount,
        });
    }
    // Forced-before table: completed increments by response, using the
    // oracle's own weighted-count primitives so the generator can never
    // drift from its boundary semantics.
    let mut by_resp: Vec<(u64, u64)> = incs
        .iter()
        .filter_map(|i| i.window.resp.map(|r| (r, i.amount)))
        .collect();
    by_resp.sort_unstable();
    let prefix = prefix_sums(&by_resp);
    let reads = (0..n_reads)
        .map(|_| {
            let inv = rng.random_range(0..horizon);
            TimedRead {
                inv,
                resp: inv + 1 + rng.random_range(0..32),
                value: weighted_lt(&by_resp, &prefix, inv),
            }
        })
        .collect();
    CounterHistory { incs, reads }
}

/// Flatten a history into the record stream a live run would emit:
/// one announcement per operation at its invocation, one completion at
/// its response (pending operations never complete), sorted by
/// timestamp with announcements first at ties. Built *outside* the
/// timed region — in the streaming scenario the stream arrives in
/// order for free.
fn online_stream(h: &CounterHistory) -> Vec<OpRecord> {
    let mut events: Vec<(u64, u8, OpRecord)> =
        Vec::with_capacity(2 * (h.reads.len() + h.incs.len()));
    let rec = |pid: usize, kind: OpKind, inv: u64, resp: Option<u64>| OpRecord {
        pid,
        kind,
        inv,
        resp,
        steps: 0,
    };
    for (j, r) in h.reads.iter().enumerate() {
        let kind = OpKind::Read { returned: r.value };
        events.push((r.inv, 0, rec(j, kind, r.inv, None)));
        events.push((r.resp, 1, rec(j, kind, r.inv, Some(r.resp))));
    }
    for (i, inc) in h.incs.iter().enumerate() {
        let pid = h.reads.len() + i;
        let kind = OpKind::Inc { amount: inc.amount };
        let inv = inc.window.inv;
        events.push((inv, 0, rec(pid, kind, inv, None)));
        if let Some(resp) = inc.window.resp {
            events.push((resp, 1, rec(pid, kind, inv, Some(resp))));
        }
    }
    events.sort_by_key(|&(t, tie, _)| (t, tie));
    events.into_iter().map(|(_, _, r)| r).collect()
}

/// Maximum number of simultaneously open operations in the history:
/// +1 at each invocation, −1 at each response, pending operations open
/// forever. Arrivals count before departures at equal timestamps, so
/// the measure upper-bounds what the online checker can have open.
fn max_concurrency(h: &CounterHistory) -> usize {
    let mut deltas: Vec<(u64, u8, i64)> = Vec::new();
    let op = |inv: u64, resp: Option<u64>, deltas: &mut Vec<(u64, u8, i64)>| {
        deltas.push((inv, 0, 1));
        if let Some(r) = resp {
            deltas.push((r, 1, -1));
        }
    };
    for r in &h.reads {
        op(r.inv, Some(r.resp), &mut deltas);
    }
    for i in &h.incs {
        op(i.window.inv, i.window.resp, &mut deltas);
    }
    deltas.sort_unstable_by_key(|&(t, tie, _)| (t, tie));
    let mut open = 0i64;
    let mut peak = 0i64;
    for (_, _, d) in deltas {
        open += d;
        peak = peak.max(open);
    }
    peak as usize
}

struct Sample {
    mode: &'static str,
    engine: &'static str,
    total_ops: usize,
    millis: f64,
    verdict: bool,
    peak_retained: Option<usize>,
}

/// Time the quadratic `naive` oracle over the whole history.
fn time_naive(h: &CounterHistory) -> Sample {
    let start = Instant::now();
    let verdict = naive::check_counter(h, 1).is_ok();
    let millis = start.elapsed().as_secs_f64() * 1e3;
    Sample {
        mode: "offline",
        engine: "naive",
        total_ops: h.incs.len() + h.reads.len(),
        millis,
        verdict,
        peak_retained: None,
    }
}

/// Time the streaming checker over a pre-sorted record stream.
fn time_online(h: &CounterHistory) -> Sample {
    let stream = online_stream(h);
    let start = Instant::now();
    let mut checker = OnlineChecker::counter(1);
    let mut verdict = true;
    for r in &stream {
        if checker.push(r).is_err() {
            verdict = false;
            break;
        }
    }
    verdict = verdict && checker.finish().is_ok();
    let millis = start.elapsed().as_secs_f64() * 1e3;

    let peak = checker.peak_retained();
    let conc = max_concurrency(h);
    assert!(
        peak <= 4 * conc + 64,
        "online checker retained {peak} entries against a measured \
         max concurrency of {conc}: the watermark is not retiring"
    );
    Sample {
        mode: "online",
        engine: "online",
        total_ops: h.incs.len() + h.reads.len(),
        millis,
        verdict,
        peak_retained: Some(peak),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = bench::scale() as usize;

    // (total records, run the quadratic reference too?)
    let sizes: Vec<(usize, bool)> = if smoke {
        vec![(2_000, true), (10_000, false)]
    } else {
        vec![
            (10_000, true),
            (30_000, true),
            (100_000 * scale, false),
            (300_000 * scale, false),
            (1_000_000 * scale, false),
        ]
    };

    let mut table = Table::new([
        "records",
        "mode",
        "engine",
        "ms",
        "records/s",
        "peak",
        "verdict",
    ]);
    let mut samples: Vec<Sample> = Vec::new();

    for (idx, &(total, with_naive)) in sizes.iter().enumerate() {
        // 2/3 increments, 1/3 reads — roughly the stress-test mix.
        let h = synth_history(total * 2 / 3, total - total * 2 / 3, 0xC0DE + idx as u64);

        let online = time_online(&h);
        assert!(
            online.verdict,
            "online checker rejected a linearizable {total}-record history"
        );
        if with_naive {
            let reference = time_naive(&h);
            assert_eq!(
                online.verdict, reference.verdict,
                "engines disagree on a {total}-record history"
            );
            samples.push(reference);
        }
        samples.push(online);
    }

    println!("EXP-CHECKER — monotone checker throughput on synthetic histories");
    println!("offline/naive  = retained O(R² log I) pairwise reference (small sizes only);");
    println!("online/online  = streaming checker, watermark-bounded retained state.");
    for s in &samples {
        table.row([
            s.total_ops.to_string(),
            s.mode.to_string(),
            s.engine.to_string(),
            f2(s.millis),
            format!("{:.0}", s.total_ops as f64 / (s.millis / 1e3).max(1e-9)),
            s.peak_retained
                .map_or_else(|| "-".into(), |p| p.to_string()),
            if s.verdict {
                "ok".into()
            } else {
                "VIOLATION".to_string()
            },
        ]);
    }
    table.print(if smoke {
        "checker throughput (--smoke sizes)"
    } else {
        "checker throughput"
    });

    // Machine-readable results for regression tracking. The per-row
    // `mode` joins row identity (an online row never diffs against an
    // offline one); `peak_retained_entries` is a memory-direction
    // metric.
    let mut report = Report::new("checker_throughput", mode_str(smoke));
    for s in &samples {
        let mut row = Row::new()
            .str("engine", s.engine)
            .str("mode", s.mode)
            .int("records", s.total_ops as u64)
            .float3("millis", s.millis)
            .float0(
                "records_per_sec",
                s.total_ops as f64 / (s.millis / 1e3).max(1e-9),
            );
        if let Some(p) = s.peak_retained {
            row = row.int("peak_retained_entries", p as u64);
        }
        report.row(row);
    }
    report.write("BENCH_checker.json");
}
