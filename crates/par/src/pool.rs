//! The shared-queue thread pool and scoped-spawn machinery.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// What the one lock guards: the FIFO of runnable jobs, the flag that
/// tells workers to exit once it is empty, and who is asleep.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// Waiters on `wake` not yet sent a notification: bumped before every
    /// wait, dropped by whoever notifies — so a push with nobody asleep
    /// costs no syscall. A spurious wake-up can leave it too high (one
    /// wasted notify), nothing can leave it too low (a lost one).
    sleepers: usize,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled after a push (one waiter), and when a scope's last task
    /// ends or the pool shuts down (all waiters). Workers and scope owners
    /// both wait here, always after checking their condition under
    /// `queue`'s lock, and a signaller takes that lock between changing
    /// the condition and notifying — so no wake-up can fall between a
    /// check and the wait.
    wake: Condvar,
}

impl Shared {
    /// Jobs run outside the lock and catch their own panics, so nothing
    /// should poison the mutex; if something does, every update under it
    /// (a push, a pop, a flag) leaves the queue valid, so carry on.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: Job) {
        let mut queue = self.lock();
        queue.jobs.push_back(job);
        if queue.sleepers > 0 {
            queue.sleepers -= 1;
            drop(queue);
            self.wake.notify_one();
        }
    }

    /// Runs queued jobs until `done()` holds, sleeping on the condvar
    /// whenever the queue is empty. `done` is evaluated under the lock.
    fn run_until(&self, done: impl Fn(&Queue) -> bool) {
        let mut queue = self.lock();
        while !done(&queue) {
            if let Some(job) = queue.jobs.pop_front() {
                drop(queue);
                job();
                queue = self.lock();
            } else {
                queue.sleepers += 1;
                queue = self
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Wakes every waiter so each re-checks its condition.
    fn wake_all(&self) {
        let mut queue = self.lock();
        if queue.sleepers > 0 {
            queue.sleepers = 0;
            drop(queue);
            self.wake.notify_all();
        }
    }
}

/// A fixed-size thread pool: persistent workers serving one shared FIFO.
///
/// ```
/// let pool = dharma_par::ThreadPool::new(4);
/// let data: Vec<u64> = (0..10_000).collect();
/// let doubled = dharma_par::par_map(&pool, &data, 256, |x| x * 2);
/// assert_eq!(doubled[7], 14);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
                sleepers: 0,
            }),
            wake: Condvar::new(),
        });
        let handles = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dharma-par-{i}"))
                    .spawn(move || shared.run_until(|q| q.shutdown && q.jobs.is_empty()))
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn with_default_threads() -> Self {
        Self::new(default_threads())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f` with a [`Scope`] that can spawn borrowed tasks, then blocks
    /// until every spawned task (including nested spawns) has completed.
    ///
    /// The calling thread executes queued tasks while it waits, and sleeps
    /// when there are none. If `f` or any task panicked, the first payload
    /// is re-thrown here — after every task has finished.
    pub fn scope<'scope, F, R>(&'scope self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            shared: &self.shared,
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }),
            _marker: PhantomData,
        };
        // `f` unwinding past its spawned tasks would free what they borrow.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Acquire pairs with the AcqRel decrement that ends each task: once
        // zero is read here, everything the tasks wrote is visible.
        self.shared
            .run_until(|_| scope.state.pending.load(Ordering::Acquire) == 0);
        let result = result.unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = scope.state.first_panic().take() {
            resume_unwind(payload);
        }
        result
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Tasks still to finish in one scope (nested spawns included) and the
/// first panic among them.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn first_panic(&self) -> MutexGuard<'_, Option<Box<dyn Any + Send + 'static>>> {
        self.panic.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Handle for spawning borrowed tasks inside [`ThreadPool::scope`].
pub struct Scope<'scope> {
    shared: &'scope Shared,
    state: Arc<ScopeState>,
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns a task that may borrow from the enclosing scope. The task
    /// receives the scope again so it can spawn children.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let child = Scope {
            shared: self.shared,
            state: Arc::clone(&self.state),
            _marker: PhantomData,
        };
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&child))) {
                child.state.first_panic().get_or_insert(payload);
            }
            if child.state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                child.shared.wake_all();
            }
        });
        // SAFETY: `ThreadPool::scope` does not return until `pending` drops
        // to zero, i.e. until this job has run to completion. All borrows
        // captured by the job therefore outlive its execution. The transmute
        // only erases the `'scope` lifetime to satisfy the pool's `'static`
        // job type; it does not change the type's layout.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.shared.push(job);
    }
}

/// The process-wide default pool, sized to available parallelism.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(ThreadPool::with_default_threads)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Calls `f(i)` for every `i in 0..n`, in parallel, in chunks of `chunk`.
pub fn par_for_each_index<F>(pool: &ThreadPool, n: usize, chunk: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let chunk = chunk.max(1);
    if n == 0 {
        return;
    }
    // Run small inputs inline: scheduling would dominate.
    if n <= chunk {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let f = &f;
    pool.scope(|s| {
        let mut start = 0usize;
        while start < n {
            let end = (start + chunk).min(n);
            s.spawn(move |_| {
                for i in start..end {
                    f(i);
                }
            });
            start = end;
        }
    });
}

/// Parallel map: applies `f` to every element of `items`, preserving order.
///
/// Each chunk task fills a `Vec` of its own and the chunks are concatenated
/// in order. If a task panics, the panic propagates and every element
/// already produced is dropped, once.
pub fn par_map<T, U, F>(pool: &ThreadPool, items: &[T], chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let chunk = chunk.max(1);
    if n <= chunk {
        return items.iter().map(f).collect();
    }
    let mut parts: Vec<Vec<U>> = Vec::new();
    parts.resize_with(n.div_ceil(chunk), Vec::new);
    let f = &f;
    pool.scope(|s| {
        for (part, chunk_items) in parts.iter_mut().zip(items.chunks(chunk)) {
            s.spawn(move |_| *part = chunk_items.iter().map(f).collect());
        }
    });
    let mut out = Vec::with_capacity(n);
    out.extend(parts.into_iter().flatten());
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
    let n = items.len();
    let chunk = chunk.max(1);
    if n == 0 {
        return identity;
    }
    if n <= chunk {
        return items
            .iter()
            .fold(identity, |acc, item| reduce(acc, map(item)));
    }
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    let map = &map;
    let reduce = &reduce;
    let id = identity.clone();
    let partials: Vec<U> = par_map(pool, &chunks, 1, move |chunk_items| {
        chunk_items
            .iter()
            .fold(id.clone(), |acc, item| reduce(acc, map(item)))
    });
    partials.into_iter().fold(identity, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..1000 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn scope_allows_borrowing() {
        let pool = ThreadPool::new(2);
        let data = vec![1u64, 2, 3, 4];
        let sum = AtomicU64::new(0);
        pool.scope(|s| {
            for x in &data {
                s.spawn(|_| {
                    sum.fetch_add(*x, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|inner| {
                    for _ in 0..8 {
                        inner.spawn(|_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn single_thread_pool_nested_no_deadlock() {
        let pool = ThreadPool::new(1);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn(|inner| {
                inner.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| panic!("task exploded"));
            });
        }));
        assert!(result.is_err());
        // Pool must still work afterwards.
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

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
    fn par_for_each_index_covers_range() {
        let pool = ThreadPool::new(3);
        let flags: Vec<AtomicU64> = (0..777).map(|_| AtomicU64::new(0)).collect();
        par_for_each_index(&pool, flags.len(), 10, |i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
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
        let c = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn(|_| {
                c.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(c.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn global_pool_is_reusable() {
        let g = global();
        let c = AtomicU64::new(0);
        g.scope(|s| {
            for _ in 0..10 {
                s.spawn(|_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(c.load(Ordering::Relaxed), 10);
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
        // Every other chunk ran to its end; the panicking one stopped at 205.
        assert_eq!(MADE.load(Ordering::Relaxed), 400 - (208 - 205));
        assert_eq!(DROPPED.load(Ordering::Relaxed), 400 - (208 - 205));
    }

    #[test]
    fn owner_panic_waits_for_spawned_tasks() {
        let pool = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        let (gate, closed) = std::sync::mpsc::channel::<()>();
        let closed = Mutex::new(closed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                // Dropped as this closure unwinds: no task can finish before,
                // and each outlasts the unwinding by a wide margin.
                let _gate = gate;
                for _ in 0..4 {
                    s.spawn(|_| {
                        let _ = closed.lock().expect("gate lock").recv();
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("owner exploded");
            })
        }));
        assert!(result.is_err());
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    /// The `SimNet` window pattern — many short scopes back to back — from
    /// two owners at once: a lost condvar wake-up would hang here.
    #[test]
    fn concurrent_owners_on_global_all_complete() {
        std::thread::scope(|threads| {
            for _ in 0..2 {
                threads.spawn(|| {
                    for round in 0..200 {
                        let c = AtomicU64::new(0);
                        global().scope(|s| {
                            for _ in 0..4 {
                                s.spawn(|_| {
                                    c.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                        assert_eq!(c.load(Ordering::Relaxed), 4, "round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn many_scopes_sequentially() {
        let pool = ThreadPool::new(4);
        for round in 0..50 {
            let c = AtomicU64::new(0);
            pool.scope(|s| {
                for _ in 0..20 {
                    s.spawn(|_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(c.load(Ordering::Relaxed), 20, "round {round}");
        }
    }
}
