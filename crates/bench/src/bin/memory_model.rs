//! Ablation: WASAI's concrete-address byte map (§3.4.1) vs EOSAFE's
//! merge-on-access write list (§3.2). The paper claims the former "recovers
//! symbolic expressions from the memory faster than EOSAFE, which is
//! essential to improve the fuzzing throughput".
//!
//! Replays one deterministic store/load workload of 200, 1,000 and 4,000
//! operations against both models and prints the median wall-clock time of
//! `REPS` repetitions as a markdown table:
//!
//! ```sh
//! cargo run --release -p wasai-bench --bin memory_model
//! ```

use std::time::Instant;

use wasai_baselines::eosafe::RangeMemory;
use wasai_smt::TermPool;
use wasai_symex::SymMemory;

/// Repetitions per (model, size) cell; the median is reported.
const REPS: usize = 21;

/// A deterministic store/load workload of `n` operations.
fn workload(n: usize) -> Vec<(bool, u64, u32)> {
    let mut lcg = 0x853c49e6748fea9bu64;
    let mut rnd = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    (0..n)
        .map(|_| {
            let is_store = rnd() % 2 == 0;
            let addr = rnd() % 4096;
            let size = [1u32, 2, 4, 8][(rnd() % 4) as usize];
            (is_store, addr, size)
        })
        .collect()
}

fn byte_map(ops: &[(bool, u64, u32)]) {
    let mut pool = TermPool::new();
    let mut mem = SymMemory::new();
    for &(is_store, addr, size) in ops {
        if is_store {
            let v = pool.bv_const(addr, size * 8);
            mem.store(&mut pool, addr, size, v);
        } else {
            std::hint::black_box(mem.load(&mut pool, addr, size));
        }
    }
}

fn write_list(ops: &[(bool, u64, u32)]) {
    let mut pool = TermPool::new();
    let mut mem = RangeMemory::new();
    for &(is_store, addr, size) in ops {
        if is_store {
            let v = pool.bv_const(addr, size * 8);
            mem.store(&pool, addr, size, v);
        } else {
            std::hint::black_box(mem.load(&mut pool, addr, size));
        }
    }
}

/// Median wall-clock microseconds of `REPS` runs of `model` over `ops`.
fn median_us(ops: &[(bool, u64, u32)], model: fn(&[(bool, u64, u32)])) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            model(ops);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    eprintln!("memory_model: median of {REPS} reps per cell");
    println!("| ops | byte map (µs) | write list (µs) | write list / byte map |");
    println!("|---:|---:|---:|---:|");
    for n in [200usize, 1000, 4000] {
        let ops = workload(n);
        let map = median_us(&ops, byte_map);
        let list = median_us(&ops, write_list);
        println!("| {n} | {map:.0} | {list:.0} | {:.2}× |", list / map);
    }
}
