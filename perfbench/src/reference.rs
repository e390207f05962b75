//! Reference kernel: the machine-speed yardstick for the end-to-end times.
//!
//! On a shared host the same deterministic op list runs up to twice as
//! slowly for minutes at a time while other tenants load the machine. The
//! benchmark times this fixed kernel next to every round and every set-up
//! pass and scales the interval it just measured by
//! `NOMINAL_MS / kernel time`, which cancels most of that drift. The kernel
//! mixes the host work the simulator itself is made of (a binary heap of
//! events, hash-map lookups and allocation churn) and is written here, so no
//! change to the simulator can speed it up.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's host time, in ms, on the machine the reported times are
/// scaled to: the development VM (2-vCPU Intel Xeon) with no other load.
pub const NOMINAL_MS: f64 = 20.0;

fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn heap(n: u64) -> u64 {
    let mut h = BinaryHeap::new();
    let mut acc = 0;
    for i in 0..n {
        h.push(mix(i) >> 20);
        if i % 2 == 1 {
            acc ^= h.pop().unwrap_or(0);
        }
    }
    while let Some(x) = h.pop() {
        acc = acc.wrapping_add(x);
    }
    acc
}

fn map(n: u64) -> u64 {
    let mut m = HashMap::new();
    for i in 0..n {
        m.insert(mix(i) % (n / 2), i);
    }
    (0..n).filter_map(|i| m.get(&(mix(i + 7) % (n / 2)))).sum()
}

fn churn(n: u64) -> u64 {
    let mut live: Vec<Vec<u64>> = Vec::new();
    let mut acc = 0;
    for i in 0..n {
        live.push(vec![i; (mix(i) % 64) as usize + 1]);
        if live.len() > 256 {
            acc += live.swap_remove((mix(i) % 256) as usize).len() as u64;
        }
    }
    acc
}

/// Run the kernel once; its host time in ms.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    black_box(heap(black_box(150_000)));
    black_box(map(black_box(100_000)));
    black_box(churn(black_box(150_000)));
    t.elapsed().as_secs_f64() * 1e3
}

/// Factor that scales a host interval measured next to a kernel run of
/// `kernel_ms` to the nominal machine.
pub fn speed_factor(kernel_ms: f64) -> f64 {
    NOMINAL_MS / kernel_ms
}
