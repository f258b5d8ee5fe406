//! A thread count and the chunked helpers that fan out over it.
//!
//! Two DHARMA evaluations run in parallel: computing per-tag comparison
//! metrics (Kendall τ, cosine, recall) over every tag for Table III, and
//! running thousands of independent faceted-search simulations for
//! Table IV and Fig. 7. A full `rayon` dependency is out of scope for the
//! offline build, so this crate provides what those callers need, on
//! `std` alone:
//!
//! * [`ThreadPool`] — how many threads a call may use. It holds no
//!   threads: each call spawns its own under [`std::thread::scope`] and
//!   joins them before it returns, so `ThreadPool::new(n)` runs on at most
//!   `n` threads;
//! * [`par_map`], [`par_map_reduce`] — the chunked data-parallel helpers.
//!   Threads claim chunk indices from one atomic counter; `par_map`
//!   concatenates per-chunk results **in chunk order** and
//!   `par_map_reduce` folds them in that order, so results are
//!   deterministic even for non-commutative accumulations.
//!
//! A panic in a task is re-thrown from the call once every thread has
//! been joined.
//!
//! The workers used to persist: a shared queue, a condvar and an owner
//! that helped while it waited. Those earned their place under a windowed
//! event engine that opened a scope per window; that engine is gone, and
//! the callers left open a handful of fan-outs per run, each over
//! chunk-sized tasks. On a 2-vCPU host, five alternating runs of
//! `run_all --seed 42` at the default thread count read a median 32.3 s
//! with the persistent pool and 31.1 s with this fan-out, so the pool was
//! deleted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{par_map, par_map_reduce, ThreadPool};

/// Splits `n` work items into chunks of a size that balances scheduling
/// overhead against load balance: at least `min_chunk`, at most enough to
/// produce ~4 chunks per worker.
pub fn chunk_size(n: usize, workers: usize, min_chunk: usize) -> usize {
    let target_chunks = workers.max(1) * 4;
    (n.div_ceil(target_chunks)).max(min_chunk).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_bounds() {
        assert_eq!(chunk_size(0, 8, 16), 16);
        assert!(chunk_size(1_000_000, 8, 16) >= 16);
        // ~4 chunks per worker for big inputs
        let c = chunk_size(3200, 8, 1);
        assert_eq!(c, 100);
        // Never zero.
        assert!(chunk_size(5, 8, 1) >= 1);
    }
}
