//! The thread count and the chunked fan-out over `std::thread::scope`.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many threads the parallel helpers may run on: a count, not a set
/// of live workers. Each call spawns its threads and joins them before it
/// returns.
///
/// ```
/// let pool = dharma_par::ThreadPool::new(4);
/// let data: Vec<u64> = (0..10_000).collect();
/// let doubled = dharma_par::par_map(&pool, &data, 256, |x| x * 2);
/// assert_eq!(doubled[7], 14);
/// ```
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A count of `threads` (at least one).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// A count sized to the machine's available parallelism.
    pub fn with_default_threads() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
    }

    /// Number of threads a call may run on.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Parallel map: applies `f` to every element of `items`, preserving order.
///
/// `items` is cut into chunks of `chunk`; `min(threads, chunks)` scoped
/// threads claim chunk indices from one counter, each filling a `Vec` per
/// chunk, and the parts are concatenated in chunk order. One chunk, or a
/// one-thread pool, runs on the caller. If a task panics, every thread is
/// joined, every element already produced is dropped once, and the first
/// panic is re-thrown.
pub fn par_map<T, U, F>(pool: &ThreadPool, items: &[T], chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let chunk = chunk.max(1);
    let chunks = items.len().div_ceil(chunk);
    let threads = pool.threads.min(chunks);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut parts = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= chunks {
                return parts;
            }
            let part: Vec<U> = items[i * chunk..].iter().take(chunk).map(&f).collect();
            parts.push((i, part));
        }
    };
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(claim)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    // Every thread has been joined: unwinding from here drops the parts
    // still held, each element once.
    let mut parts = Vec::with_capacity(chunks);
    for result in joined {
        parts.extend(result.unwrap_or_else(|payload| resume_unwind(payload)));
    }
    parts.sort_unstable_by_key(|&(i, _)| i);
    let mut out = Vec::with_capacity(items.len());
    out.extend(parts.into_iter().flat_map(|(_, part)| part));
    out
}

/// Parallel map-reduce with **deterministic, chunk-ordered reduction**.
///
/// `map` is applied to each element; per-chunk partials are folded with
/// `reduce` left-to-right in chunk order, so the result is identical across
/// runs and thread counts (for associative `reduce`).
pub fn par_map_reduce<T, U, M, R>(
    pool: &ThreadPool,
    items: &[T],
    chunk: usize,
    identity: U,
    map: M,
    reduce: R,
) -> U
where
    T: Sync,
    U: Send + Sync + Clone,
    M: Fn(&T) -> U + Sync,
    R: Fn(U, U) -> U + Sync,
{
    let chunks: Vec<&[T]> = items.chunks(chunk.max(1)).collect();
    let partials = par_map(pool, &chunks, 1, |chunk_items| {
        chunk_items
            .iter()
            .fold(identity.clone(), |acc, item| reduce(acc, map(item)))
    });
    partials.into_iter().fold(identity, &reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..10_000).collect();
        let mapped = par_map(&pool, &items, 64, |x| x * 3);
        for (i, v) in mapped.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn par_map_small_input_inline() {
        let pool = ThreadPool::new(4);
        let items = vec![1, 2, 3];
        assert_eq!(par_map(&pool, &items, 100, |x| x + 1), vec![2, 3, 4]);
        let empty: Vec<i32> = vec![];
        assert_eq!(par_map(&pool, &empty, 100, |x| x + 1), Vec::<i32>::new());
    }

    #[test]
    fn par_map_with_non_copy_output() {
        let pool = ThreadPool::new(4);
        let items: Vec<u32> = (0..500).collect();
        let strings = par_map(&pool, &items, 16, |x| format!("v{x}"));
        assert_eq!(strings[499], "v499");
        assert_eq!(strings.len(), 500);
    }

    #[test]
    fn map_reduce_deterministic_and_correct() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (1..=10_000).collect();
        let seq: u64 = items.iter().sum();
        for _ in 0..4 {
            let total = par_map_reduce(&pool, &items, 97, 0u64, |&x| x, |a, b| a + b);
            assert_eq!(total, seq);
        }
        // Non-commutative but associative: string concat in chunk order.
        let items: Vec<u64> = (0..100).collect();
        let s = par_map_reduce(
            &pool,
            &items,
            7,
            String::new(),
            |x| x.to_string(),
            |a, b| a + &b,
        );
        let expect: String = (0..100).map(|x: u64| x.to_string()).collect();
        assert_eq!(s, expect);
    }

    #[test]
    fn zero_sized_pool_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(par_map(&pool, &items, 7, |&x| x), items);
    }

    #[test]
    fn par_map_panic_drops_every_produced_element_once() {
        static MADE: AtomicU64 = AtomicU64::new(0);
        static DROPPED: AtomicU64 = AtomicU64::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
        let pool = ThreadPool::new(3);
        let items: Vec<u32> = (0..400).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&pool, &items, 16, |&x| {
                assert_ne!(x, 205, "chunk exploded");
                MADE.fetch_add(1, Ordering::Relaxed);
                Counted
            })
        }));
        assert!(result.is_err());
        let message = result.err().and_then(|p| p.downcast::<String>().ok());
        assert!(message.is_some_and(|m| m.contains("chunk exploded")));
        // Every other chunk ran to its end; the panicking one stopped at 205.
        assert_eq!(MADE.load(Ordering::Relaxed), 400 - (208 - 205));
        assert_eq!(DROPPED.load(Ordering::Relaxed), 400 - (208 - 205));
    }
}
