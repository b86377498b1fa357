//! Cross-crate integration: concurrent max-register executions checked
//! for linearizability against exact (`k = 1`) and k-multiplicative
//! specifications.

use approx_objects::{KmultBoundedMaxRegister, KmultUnboundedMaxRegister};
use lincheck::check_maxreg;
use lincheck::MaxRegHistory;
use maxreg::{
    AdaptiveMaxRegister, CollectMaxRegister, MaxRegister, TreeMaxRegister, UnboundedMaxRegister,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smr::sched::SeededRandom;
use smr::{Driver, OpSpec, Runtime};
use std::sync::Arc;

/// Mixed write/read workload against an exact `MaxRegister`.
fn run_exact<M: MaxRegister + 'static>(
    reg: Arc<M>,
    n: usize,
    ops: u64,
    max_value: u64,
    gated_seed: Option<u64>,
) -> MaxRegHistory {
    let rt = match gated_seed {
        None => Runtime::free_running(n),
        Some(_) => Runtime::gated(n),
    };
    let mut d = Driver::new(rt);
    let mut rng = StdRng::seed_from_u64(0xACE ^ gated_seed.unwrap_or(0));
    for pid in 0..n {
        for i in 1..=ops {
            let reg = Arc::clone(&reg);
            if i % 4 == 0 {
                d.submit(pid, OpSpec::read(), move |ctx| u128::from(reg.read(ctx)));
            } else {
                let v = rng.random_range(1..max_value);
                d.submit(pid, OpSpec::write(v), move |ctx| {
                    reg.write(ctx, v);
                    0
                });
            }
        }
    }
    match gated_seed {
        None => d.wait_all(),
        Some(s) => {
            d.run_schedule(&mut SeededRandom::new(s));
        }
    }
    MaxRegHistory::from_records(d.history()).expect("typed maxreg history")
}

#[test]
fn tree_maxreg_is_linearizable() {
    let h = run_exact(
        Arc::new(TreeMaxRegister::new(1 << 16)),
        6,
        120,
        1 << 16,
        None,
    );
    check_maxreg(&h, 1).unwrap_or_else(|v| panic!("tree: {v}"));
}

#[test]
fn tree_maxreg_is_linearizable_gated() {
    for seed in [2u64, 13, 77] {
        let h = run_exact(
            Arc::new(TreeMaxRegister::new(1 << 10)),
            3,
            40,
            1 << 10,
            Some(seed),
        );
        check_maxreg(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn collect_maxreg_is_linearizable() {
    let h = run_exact(Arc::new(CollectMaxRegister::new(6)), 6, 150, 1 << 30, None);
    check_maxreg(&h, 1).unwrap_or_else(|v| panic!("collect: {v}"));
}

#[test]
fn adaptive_maxreg_is_linearizable_both_arms() {
    // Tree arm.
    let h = run_exact(Arc::new(AdaptiveMaxRegister::new(8, 256)), 8, 80, 256, None);
    check_maxreg(&h, 1).unwrap_or_else(|v| panic!("adaptive/tree: {v}"));
    // Collect arm.
    let h = run_exact(
        Arc::new(AdaptiveMaxRegister::new(3, 1 << 40)),
        3,
        80,
        1 << 40,
        None,
    );
    check_maxreg(&h, 1).unwrap_or_else(|v| panic!("adaptive/collect: {v}"));
}

#[test]
fn unbounded_exact_maxreg_is_linearizable() {
    let h = run_exact(Arc::new(UnboundedMaxRegister::new()), 5, 100, 1 << 50, None);
    check_maxreg(&h, 1).unwrap_or_else(|v| panic!("unbounded: {v}"));
}

/// Workload against the k-multiplicative bounded register.
fn run_kmult_bounded(n: usize, m: u64, k: u64, ops: u64, gated_seed: Option<u64>) -> MaxRegHistory {
    let rt = match gated_seed {
        None => Runtime::free_running(n),
        Some(_) => Runtime::gated(n),
    };
    let reg = Arc::new(KmultBoundedMaxRegister::new(n, m, k));
    let mut d = Driver::new(rt);
    let mut rng = StdRng::seed_from_u64(77 ^ gated_seed.unwrap_or(0));
    for pid in 0..n {
        for i in 1..=ops {
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
    match gated_seed {
        None => d.wait_all(),
        Some(s) => {
            d.run_schedule(&mut SeededRandom::new(s));
        }
    }
    MaxRegHistory::from_records(d.history()).expect("typed maxreg history")
}

#[test]
fn kmult_bounded_maxreg_is_k_accurate() {
    for k in [2u64, 4, 16] {
        let h = run_kmult_bounded(6, 1 << 20, k, 120, None);
        check_maxreg(&h, k).unwrap_or_else(|v| panic!("k={k}: {v}"));
    }
}

#[test]
fn kmult_bounded_maxreg_is_k_accurate_gated() {
    for seed in [4u64, 21] {
        let h = run_kmult_bounded(3, 1 << 12, 2, 40, Some(seed));
        check_maxreg(&h, 2).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn kmult_maxreg_would_fail_stricter_spec() {
    let h = run_kmult_bounded(4, 1 << 20, 16, 200, None);
    assert!(
        check_maxreg(&h, 1).is_err(),
        "a 16-multiplicative register should not pass the exact spec"
    );
}

#[test]
fn kmult_unbounded_maxreg_is_k_accurate() {
    let n = 5;
    let k = 4;
    let rt = Runtime::free_running(n);
    let reg = Arc::new(KmultUnboundedMaxRegister::new(n, k));
    let mut d = Driver::new(rt);
    let mut rng = StdRng::seed_from_u64(31337);
    for pid in 0..n {
        for i in 1..=100u64 {
            let reg = Arc::clone(&reg);
            if i % 4 == 0 {
                d.submit(pid, OpSpec::read(), move |ctx| reg.read(ctx));
            } else {
                let v = 1u64 << rng.random_range(0..55u32);
                d.submit(pid, OpSpec::write(v), move |ctx| {
                    reg.write(ctx, v);
                    0
                });
            }
        }
    }
    d.wait_all();
    let h = MaxRegHistory::from_records(d.history()).expect("typed maxreg history");
    check_maxreg(&h, k).unwrap_or_else(|v| panic!("kmult unbounded: {v}"));
}
