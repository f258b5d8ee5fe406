//! A minimal scoped thread pool and the chunked helpers written against it.
//!
//! The DHARMA experiment pipelines need three things done in parallel:
//! replaying millions of tagging events over sharded folksonomy graphs,
//! computing per-tag comparison metrics (Kendall τ, cosine, recall) over
//! hundreds of thousands of tags, and running thousands of independent
//! faceted-search simulations. A full `rayon` dependency is out of scope for
//! the offline build, so this crate provides the ~5% of rayon those callers
//! need, on `std::sync` alone:
//!
//! * [`ThreadPool`] — a fixed number of persistent workers serving **one
//!   shared FIFO** (`Mutex<VecDeque<Job>>` + one `Condvar`). No per-worker
//!   deques, no stealing: the tasks here are chunk-sized, so one lock per
//!   task is noise;
//! * [`ThreadPool::scope`] — structured parallelism: borrow data from the
//!   enclosing stack frame, spawn tasks, and block until all of them (and
//!   their transitively spawned children) finish. The waiting owner *helps*
//!   from the same queue, so nested scopes on a single-threaded pool cannot
//!   deadlock, and sleeps on the condvar when the queue is empty;
//! * [`par_map`], [`par_for_each_index`], [`par_map_reduce`] — the chunked
//!   data-parallel helpers the pipelines are written against. `par_map`
//!   concatenates per-chunk results **in chunk order** and `par_map_reduce`
//!   folds them in that order, so results are deterministic even for
//!   non-commutative accumulations.
//!
//! Panics inside tasks are caught, the first one is re-thrown from the scope
//! owner once every task has finished, and the pool survives.
//!
//! Why the workers persist is an open question. The one measurement behind
//! them was a windowed event engine that opened a scope per window, where
//! one thread spawn per task cost more than twice the run time; that engine
//! is gone. The callers left open far fewer scopes, each over chunk-sized
//! tasks, and whether a `std::thread::scope` fan-out would serve them as
//! well has not been measured.

#![warn(missing_docs)]

mod pool;

pub use pool::{par_for_each_index, par_map, par_map_reduce, Scope, ThreadPool};

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
