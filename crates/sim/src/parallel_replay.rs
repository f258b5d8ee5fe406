//! Parallel replay of the §V-B protocol.
//!
//! The sequential [`crate::replay()`] interleaves events across resources with
//! a Fenwick tree — faithful to the paper, but single-threaded. The key
//! observation enabling parallelism: **the approximated FG depends only on
//! the per-resource order of events**, not on how streams of different
//! resources interleave:
//!
//! * `Tags(r)` evolution is entirely resource-local;
//! * forward `(t, τ)` updates read only resource-local state (`u(τ, r)` and
//!   attachment status);
//! * reverse `(τ, t)` updates are `+1` token appends — **additive and
//!   commutative**, so any global interleaving yields the same sums.
//!
//! Resources are therefore partitioned across the `dharma-par` pool; each
//! worker samples its resources' event orders from an RNG seeded by
//! `(seed, resource)` and applies arc updates into a **per-tag sharded
//! lock table**. The result is bit-for-bit deterministic for a given seed,
//! independent of thread count and scheduling.
//!
//! Caveat: [`BPolicy::LiteralB`] reads *global* arc existence at event time
//! and is genuinely order-dependent, so it is rejected here (the sequential
//! engine handles it).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

use dharma_folksonomy::{ApproxPolicy, BPolicy, Fg, ResId, TagId, Trg};
use dharma_par::ThreadPool;
use dharma_types::FxHashMap;

/// Replays `reference` under `policy` using every worker in `pool`,
/// returning the approximated folksonomy graph.
///
/// Equivalent in distribution to the sequential engine (identical
/// per-resource event-order law); exactly equal to [`Fg::derive_exact`]
/// under [`ApproxPolicy::EXACT`].
///
/// # Panics
///
/// Panics if `policy.b_policy == BPolicy::LiteralB` (order-dependent; see
/// module docs).
pub fn replay_parallel(reference: &Trg, policy: ApproxPolicy, seed: u64, pool: &ThreadPool) -> Fg {
    assert!(
        policy.b_policy != BPolicy::LiteralB,
        "LiteralB is order-dependent and cannot be replayed in parallel"
    );
    let num_tags = reference.num_tags();
    let num_res = reference.num_resources();

    // One shard (mutex + map) per source tag.
    let shards: Vec<Mutex<FxHashMap<TagId, u64>>> = (0..num_tags)
        .map(|_| Mutex::new(FxHashMap::default()))
        .collect();

    let resources: Vec<u32> = (0..num_res as u32).collect();
    let chunk = dharma_par::chunk_size(num_res, pool.threads(), 64);
    dharma_par::par_for_each_index(pool, resources.len(), chunk, |idx| {
        let r = ResId(resources[idx]);
        // (tag, static weight, remaining, current) — the resource playlist.
        let mut playlist: Vec<(TagId, u32, u32, u32)> =
            reference.tags_of(r).map(|(t, u)| (t, u, u, 0)).collect();
        // HashMap iteration order varies; sort for per-seed determinism.
        playlist.sort_unstable_by_key(|&(t, ..)| t);
        if playlist.is_empty() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(r.0) << 17) ^ 0x9E3779B97F4A7C15);
        let total: u64 = playlist.iter().map(|&(_, u, _, _)| u64::from(u)).sum();

        for _ in 0..total {
            // Draw the next tag ∝ static weight among non-exhausted entries
            // — identical to the sequential within-resource law.
            let live: u64 = playlist
                .iter()
                .filter(|&&(_, _, rem, _)| rem > 0)
                .map(|&(_, u, _, _)| u64::from(u))
                .sum();
            let mut pick = rng.gen_range(0..live);
            let mut chosen = usize::MAX;
            for (i, &(_, u, rem, _)) in playlist.iter().enumerate() {
                if rem == 0 {
                    continue;
                }
                let w = u64::from(u);
                if pick < w {
                    chosen = i;
                    break;
                }
                pick -= w;
            }
            let t = playlist[chosen].0;
            let newly_attached = playlist[chosen].3 == 0;
            playlist[chosen].2 -= 1;
            playlist[chosen].3 += 1;

            // Forward arcs (t, τ) — all attached neighbors, one shard lock.
            if newly_attached {
                let mut out = shards[t.idx()].lock().expect("shard lock");
                for &(tau, _, _, cur) in &playlist {
                    if tau == t || cur == 0 {
                        continue;
                    }
                    let delta = match policy.b_policy {
                        BPolicy::Exact => u64::from(cur),
                        BPolicy::UnitIncrement => 1,
                        BPolicy::LiteralB => unreachable!("rejected above"),
                    };
                    *out.entry(tau).or_insert(0) += delta;
                }
            }

            // Reverse arcs (τ, t) — ≤ k random attached neighbors.
            let mut attached: Vec<TagId> = playlist
                .iter()
                .filter(|&&(tau, _, _, cur)| tau != t && cur > 0)
                .map(|&(tau, _, _, _)| tau)
                .collect();
            if let Some(k) = policy.connection_k {
                if attached.len() > k {
                    // partial_shuffle keeps determinism per (seed, r).
                    use rand::seq::SliceRandom;
                    attached.partial_shuffle(&mut rng, k);
                    attached.truncate(k);
                }
            }
            for tau in attached {
                *shards[tau.idx()]
                    .lock()
                    .expect("shard lock")
                    .entry(t)
                    .or_insert(0) += 1;
            }
        }
    });

    // Assemble the Fg from the shards.
    let mut fg = Fg::with_capacity(num_tags);
    for (t1, shard) in shards.into_iter().enumerate() {
        let map = shard.into_inner().expect("shard lock");
        for (t2, w) in map {
            fg.add_sim(TagId(t1 as u32), t2, w);
        }
    }
    fg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay, ReplayConfig};
    use dharma_dataset::{GeneratorConfig, Scale};

    fn reference() -> Trg {
        GeneratorConfig::lastfm_like(Scale::Tiny, 5).generate().trg
    }

    #[test]
    fn exact_parallel_equals_derivation() {
        let trg = reference();
        let pool = ThreadPool::new(4);
        let par = replay_parallel(&trg, ApproxPolicy::EXACT, 3, &pool);
        let derived = Fg::derive_exact(&trg);
        assert_eq!(par.num_arcs(), derived.num_arcs());
        for (t1, t2, w) in par.arcs() {
            assert_eq!(derived.sim(t1, t2), w, "arc {t1:?}->{t2:?}");
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let trg = reference();
        let a = replay_parallel(&trg, ApproxPolicy::paper(2), 7, &ThreadPool::new(1));
        let b = replay_parallel(&trg, ApproxPolicy::paper(2), 7, &ThreadPool::new(8));
        assert_eq!(a.num_arcs(), b.num_arcs());
        for (t1, t2, w) in a.arcs() {
            assert_eq!(b.sim(t1, t2), w);
        }
    }

    #[test]
    fn statistically_matches_sequential_engine() {
        // Different RNG streams ⇒ not bit-identical, but arc counts and
        // total weight must land close (same distribution).
        let trg = reference();
        let pool = ThreadPool::new(4);
        let par = replay_parallel(&trg, ApproxPolicy::paper(1), 11, &pool);
        let seq = replay(&trg, &ReplayConfig::paper(1, 11));
        let (pa, sa) = (par.num_arcs() as f64, seq.fg().num_arcs() as f64);
        assert!(
            (pa - sa).abs() / sa < 0.02,
            "arc counts diverge: parallel {pa} vs sequential {sa}"
        );
        let wsum = |fg: &Fg| -> u64 { fg.arcs().map(|(_, _, w)| w).sum() };
        let (pw, sw) = (wsum(&par) as f64, wsum(seq.fg()) as f64);
        assert!(
            (pw - sw).abs() / sw < 0.02,
            "weight mass diverges: parallel {pw} vs sequential {sw}"
        );
    }

    #[test]
    #[should_panic(expected = "order-dependent")]
    fn literal_b_is_rejected() {
        let trg = reference();
        let pool = ThreadPool::new(2);
        let policy = ApproxPolicy {
            connection_k: Some(1),
            b_policy: BPolicy::LiteralB,
        };
        let _ = replay_parallel(&trg, policy, 1, &pool);
    }
}
