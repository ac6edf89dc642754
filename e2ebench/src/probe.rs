//! Host probe: a dependent pointer chase over a working set that fits a
//! core's private cache (256 KiB) and one that does not (2 MiB). A run
//! taken while the chase over 2 MiB is slow was taken on a busy host, not
//! necessarily against a slow program.

use crate::util::Rng;
use std::hint::black_box;
use std::time::Instant;

const STEPS: usize = 4_000_000;

/// Nanoseconds per access of a random single-cycle chase over `bytes`.
fn chase_ns(bytes: usize) -> f64 {
    let n = bytes / std::mem::size_of::<usize>();
    // Sattolo's shuffle: one cycle through every slot, so the chase
    // touches the whole working set.
    let mut next: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(n as u64);
    for i in (1..n).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        next.swap(i, j);
    }
    let mut at = 0usize;
    for _ in 0..n {
        at = next[at];
    }
    let start = Instant::now();
    for _ in 0..STEPS {
        at = next[at];
    }
    black_box(at);
    start.elapsed().as_nanos() as f64 / STEPS as f64
}

pub fn print() {
    println!(
        "{{\"chase_256k_ns\": {:.2}, \"chase_2m_ns\": {:.2}}}",
        chase_ns(256 * 1024),
        chase_ns(2 * 1024 * 1024)
    );
}
