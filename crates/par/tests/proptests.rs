//! Property tests: the parallel helpers agree with their sequential
//! counterparts for arbitrary inputs, chunk sizes and thread counts.

use dharma_par::{par_map, par_map_reduce, ThreadPool};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn par_map_matches_seq(
        items in proptest::collection::vec(any::<u32>(), 0..2000),
        chunk in 1usize..300,
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let par: Vec<u64> = par_map(&pool, &items, chunk, |&x| u64::from(x) * 7 + 1);
        let seq: Vec<u64> = items.iter().map(|&x| u64::from(x) * 7 + 1).collect();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn par_sum_matches_seq(
        items in proptest::collection::vec(any::<u32>(), 0..2000),
        chunk in 1usize..300,
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let par = par_map_reduce(&pool, &items, chunk, 0u64, |&x| u64::from(x), |a, b| a + b);
        let seq: u64 = items.iter().map(|&x| u64::from(x)).sum();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn par_concat_is_deterministic(
        items in proptest::collection::vec(any::<u8>(), 0..500),
        chunk in 1usize..64,
    ) {
        // String concatenation is associative but NOT commutative: equality
        // with the sequential fold proves chunk-ordered reduction.
        let pool = ThreadPool::new(4);
        let par = par_map_reduce(
            &pool, &items, chunk,
            String::new(),
            |x| format!("{x},"),
            |a, b| a + &b,
        );
        let seq: String = items.iter().map(|x| format!("{x},")).collect();
        prop_assert_eq!(par, seq);
    }
}

/// `ThreadPool::new(n)` bounds the threads a call runs on, the caller
/// included.
#[test]
fn a_pool_of_n_runs_on_at_most_n_threads() {
    let items: Vec<u32> = (0..256).collect();
    for n in 1..=3 {
        let seen = Mutex::new(HashSet::new());
        par_map(&ThreadPool::new(n), &items, 1, |_| {
            seen.lock()
                .expect("no task panics")
                .insert(std::thread::current().id());
            std::thread::sleep(Duration::from_micros(200));
        });
        let threads = seen.into_inner().expect("no task panics").len();
        assert!(
            threads <= n,
            "ThreadPool::new({n}) ran on {threads} threads"
        );
    }
}
