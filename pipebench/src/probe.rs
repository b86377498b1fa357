//! A fixed reference workload that measures how fast the host is right
//! now, so that reported times can be scaled to a nominal host speed.
//!
//! On a shared host, identical iterations can run 1.5× slower for tens
//! of seconds at a time, so medians of raw wall time move between runs
//! minutes apart. The slowdown is in cache and memory access, not in
//! arithmetic. Of the candidate probes timed next to every iteration —
//! a chase through DRAM, a chase through a cache-sized table, hash-map
//! inserts and lookups, an arithmetic loop — the hash-map time tracked
//! the iteration times best: dividing by it cut the spread of 10 s
//! medians of `free_mixed` from 20% to 5% and of `counter_gated` from
//! 22% to 10%, where the others left 10–23%. The probe runs before and
//! after every iteration; its code belongs to the benchmark, so a
//! change to the measured program cannot speed it up.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe time, s, that scaled times are expressed against: about the
/// probe's median time on the 2-vCPU Xeon guest the bounds were set on.
pub const NOMINAL_S: f64 = 0.006;

const KEYS: u64 = 80_000;

/// Run the reference work once and return its time, s.
pub fn time() -> f64 {
    let start = Instant::now();
    let key = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut map: HashMap<u64, u64> = HashMap::new();
    for k in 0..KEYS {
        map.insert(key(k), k);
    }
    let hits = (0..2 * KEYS).filter(|&k| map.contains_key(&key(k))).count();
    black_box(hits);
    start.elapsed().as_secs_f64()
}
