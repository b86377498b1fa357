//! Seed-matrix stress: every object under many deterministic adversarial
//! schedules, every history checked against its specification. This is
//! the closest thing to model checking the repo runs in CI — each seed
//! is a distinct, reproducible interleaving at primitive granularity.

use approx_objects::{KaddCounter, KaddCounterHandle, KmultCounter, KmultCounterHandle};
use counter::{AachCounter, CollectCounter, Counter, SnapshotCounter};
use lincheck::{check_counter, check_counter_additive, check_maxreg};
use lincheck::{CounterHistory, MaxRegHistory};
use maxreg::{MaxRegister, TreeMaxRegister};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smr::sched::SeededRandom;
use smr::{Driver, OpSpec, Runtime};
use std::sync::Arc;

const SEEDS: [u64; 6] = [1, 2, 3, 0xDEAD, 0xBEEF, 0xC0FFEE];

fn drive_counter<C: Counter + 'static>(c: Arc<C>, n: usize, ops: u64, seed: u64) -> CounterHistory {
    let rt = Runtime::gated(n);
    let mut d = Driver::new(rt);
    for pid in 0..n {
        for i in 1..=ops {
            let c = Arc::clone(&c);
            if i % 5 == 0 {
                d.submit(pid, OpSpec::read(), move |ctx| c.read(ctx));
            } else {
                d.submit(pid, OpSpec::inc(), move |ctx| {
                    c.increment(ctx);
                    0
                });
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(seed));
    CounterHistory::from_records(d.history()).expect("typed counter history")
}

#[test]
fn collect_counter_seed_matrix() {
    for &seed in &SEEDS {
        let h = drive_counter(Arc::new(CollectCounter::new(4)), 4, 40, seed);
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn aach_counter_seed_matrix() {
    for &seed in &SEEDS {
        let h = drive_counter(Arc::new(AachCounter::new(3, 1 << 16)), 3, 30, seed);
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn snapshot_counter_seed_matrix() {
    for &seed in &SEEDS[..3] {
        let h = drive_counter(Arc::new(SnapshotCounter::new(3)), 3, 25, seed);
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn kmult_counter_seed_matrix() {
    for &seed in &SEEDS {
        let n = 4;
        let k = 4u64;
        let rt = Runtime::gated(n);
        let counter = KmultCounter::new(n, k);
        let handles: Arc<Vec<Mutex<KmultCounterHandle>>> =
            Arc::new((0..n).map(|p| Mutex::new(counter.handle(p))).collect());
        let mut d = Driver::new(rt);
        for pid in 0..n {
            for i in 1..=50u64 {
                let handles = Arc::clone(&handles);
                if i % 5 == 0 {
                    d.submit(pid, OpSpec::read(), move |ctx| {
                        handles[pid].lock().read(ctx)
                    });
                } else {
                    d.submit(pid, OpSpec::inc(), move |ctx| {
                        handles[pid].lock().increment(ctx);
                        0
                    });
                }
            }
        }
        d.run_schedule(&mut SeededRandom::new(seed));
        let h = CounterHistory::from_records(d.history()).expect("typed counter history");
        check_counter(&h, k).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn kadd_counter_seed_matrix() {
    for &seed in &SEEDS {
        let n = 4;
        let k = 12u64;
        let rt = Runtime::gated(n);
        let counter = KaddCounter::new(n, k);
        let handles: Arc<Vec<Mutex<KaddCounterHandle>>> =
            Arc::new((0..n).map(|p| Mutex::new(counter.handle(p))).collect());
        let mut d = Driver::new(rt);
        for pid in 0..n {
            for i in 1..=50u64 {
                let handles = Arc::clone(&handles);
                if i % 5 == 0 {
                    d.submit(pid, OpSpec::read(), move |ctx| {
                        handles[pid].lock().read(ctx)
                    });
                } else {
                    d.submit(pid, OpSpec::inc(), move |ctx| {
                        handles[pid].lock().increment(ctx);
                        0
                    });
                }
            }
        }
        d.run_schedule(&mut SeededRandom::new(seed));
        let h = CounterHistory::from_records(d.history()).expect("typed counter history");
        check_counter_additive(&h, k).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn tree_maxreg_seed_matrix() {
    for &seed in &SEEDS {
        let n = 3;
        let m = 1u64 << 12;
        let rt = Runtime::gated(n);
        let reg = Arc::new(TreeMaxRegister::new(m));
        let mut d = Driver::new(rt);
        let mut rng = StdRng::seed_from_u64(seed);
        for pid in 0..n {
            for i in 1..=40u64 {
                let reg = Arc::clone(&reg);
                if i % 4 == 0 {
                    d.submit(pid, OpSpec::read(), move |ctx| u128::from(reg.read(ctx)));
                } else {
                    let v = rng.random_range(1..m);
                    d.submit(pid, OpSpec::write(v), move |ctx| {
                        reg.write(ctx, v);
                        0
                    });
                }
            }
        }
        d.run_schedule(&mut SeededRandom::new(seed));
        let h = MaxRegHistory::from_records(d.history()).expect("typed maxreg history");
        check_maxreg(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn kmult_maxreg_seed_matrix() {
    for &seed in &SEEDS {
        let n = 3;
        let m = 1u64 << 16;
        let k = 4u64;
        let rt = Runtime::gated(n);
        let reg = Arc::new(approx_objects::KmultBoundedMaxRegister::new(n, m, k));
        let mut d = Driver::new(rt);
        let mut rng = StdRng::seed_from_u64(seed);
        for pid in 0..n {
            for i in 1..=40u64 {
                let reg = Arc::clone(&reg);
                if i % 4 == 0 {
                    d.submit(pid, OpSpec::read(), move |ctx| reg.read(ctx));
                } else {
                    let v = rng.random_range(1..m);
                    d.submit(pid, OpSpec::write(v), move |ctx| {
                        reg.write(ctx, v);
                        0
                    });
                }
            }
        }
        d.run_schedule(&mut SeededRandom::new(seed));
        let h = MaxRegHistory::from_records(d.history()).expect("typed maxreg history");
        check_maxreg(&h, k).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}
