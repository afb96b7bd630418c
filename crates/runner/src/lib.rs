//! # warped-runner
//!
//! A dependency-free deterministic parallel job engine for the
//! embarrassingly-parallel layers of the workspace: figure harnesses
//! (one job per benchmark × configuration cell), fault-injection
//! campaigns (one job per trial chunk), and the integration suite.
//!
//! ## Determinism contract
//!
//! [`Runner::map`] collects results **in submission order**, regardless of
//! which worker finishes first, so parallel output is bit-identical to a
//! serial run of the same jobs. Nothing else is shared between jobs;
//! any randomness must be seeded per job by the caller (the fault
//! campaigns derive per-chunk seeds as `seed ^ chunk_index`, making
//! trial streams independent of both thread count and scheduling).
//!
//! ## Sizing
//!
//! Worker count resolution, in priority order:
//!
//! 1. an explicit request (`--threads` on the CLI, [`Runner::new`]),
//! 2. the `WARPED_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! ```
//! use warped_runner::Runner;
//!
//! let runner = Runner::new(4);
//! let squares = runner.map(0..32u64, |i| i * i);
//! assert_eq!(squares, (0..32u64).map(|i| i * i).collect::<Vec<_>>());
//! ```

pub mod retry;

pub use retry::{Attempted, JobPanic, RetryPolicy};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "WARPED_THREADS";

/// Default worker count: `WARPED_THREADS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a worker count from an optional explicit request (e.g. a
/// `--threads` CLI flag). `Some(n)` wins over the environment; zero is
/// clamped to one.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) => n.max(1),
        None => default_threads(),
    }
}

/// A worker pool of a fixed thread count. Creating a `Runner` spawns
/// nothing; threads are scoped to each [`Runner::map`] call
/// (`std::thread::scope`), so jobs may borrow local state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    threads: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Runner {
    /// A runner with exactly `threads` workers (zero clamps to one).
    pub fn new(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
        }
    }

    /// A single-threaded runner: jobs execute inline, in order.
    pub fn serial() -> Self {
        Runner::new(1)
    }

    /// A runner sized by [`default_threads`].
    pub fn from_env() -> Self {
        Runner::new(default_threads())
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items` in parallel and return the results in item
    /// order.
    ///
    /// With one worker (or at most one item) everything runs inline on
    /// the calling thread. A panicking call propagates its panic to the
    /// caller after the remaining workers drain.
    pub fn map<I, T, F>(&self, items: impl IntoIterator<Item = I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let items: Vec<I> = items.into_iter().collect();
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }

        // Work-stealing by atomic index: each worker claims the next
        // unclaimed item, runs `f` on it, and parks the result in that
        // item's slot. The per-slot mutexes are uncontended (a slot is
        // touched by exactly one worker).
        let pending: Vec<Mutex<Option<I>>> =
            items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let done: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = pending[i]
                            .lock()
                            .expect("item slot poisoned")
                            .take()
                            .expect("item claimed twice");
                        let out = f(item);
                        *done[i].lock().expect("result slot poisoned") = Some(out);
                    })
                })
                .collect();
            // Join explicitly so a job's panic payload reaches the
            // caller verbatim (scope alone would mask it with its own
            // "a scoped thread panicked" message).
            for w in workers {
                if let Err(payload) = w.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        done.into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("job did not complete")
            })
            .collect()
    }

    /// Map a fallible `f` over `items` in parallel. Every job runs to
    /// completion (no early cancellation); the returned error is the
    /// first one in *submission* order, so failures are as
    /// deterministic as successes.
    ///
    /// # Errors
    ///
    /// Returns the first (by item order) error `f` produced.
    pub fn try_map<I, T, E, F>(&self, items: impl IntoIterator<Item = I>, f: F) -> Result<Vec<T>, E>
    where
        I: Send,
        T: Send,
        E: Send,
        F: Fn(I) -> Result<T, E> + Sync,
    {
        self.map(items, f).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_arrive_in_submission_order() {
        for threads in [1, 2, 4, 16] {
            let runner = Runner::new(threads);
            let out = runner.map(0..100u64, |i| i * 3);
            assert_eq!(out, (0..100u64).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let work = |i: u64| -> String {
            // Unequal job costs force out-of-order completion.
            let mut acc = i;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            format!("{i}:{acc}")
        };
        let serial = Runner::serial().map(0..64u64, work);
        let parallel = Runner::new(8).map(0..64u64, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let hits = AtomicU64::new(0);
        let runner = Runner::new(4);
        let out = runner.map(0..250, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 250);
        assert_eq!(hits.load(Ordering::Relaxed), 250);
    }

    #[test]
    fn jobs_actually_spread_across_threads() {
        use std::collections::HashSet;
        let runner = Runner::new(4);
        let ids = runner.map(0..64u64, |_| {
            // Give other workers a chance to claim slots.
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        // With 64 × 1ms jobs on 4 workers, more than one thread must
        // have participated.
        assert!(distinct.len() > 1, "jobs never left the first worker");
    }

    #[test]
    fn try_map_reports_first_error_by_submission_order() {
        let runner = Runner::new(4);
        let r: Result<Vec<u64>, String> = runner.try_map(0..32u64, |i| {
            if i == 20 || i == 5 {
                Err(format!("job {i} failed"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(r.unwrap_err(), "job 5 failed");
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = Runner::new(8).map(std::iter::empty::<u8>(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_may_borrow_the_callers_state() {
        let input = vec![10u32, 20, 30, 40];
        let runner = Runner::new(2);
        let out = runner.map(0..input.len(), |i| input[i] + 1);
        assert_eq!(out, vec![11, 21, 31, 41]);
        drop(input); // still owned here: jobs only borrowed it
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Runner::new(0).threads(), 1);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(Some(7)), 7);
        assert!(resolve_threads(None) >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panic_propagates_to_the_caller() {
        Runner::new(2).map(0..8, |i| {
            if i == 3 {
                panic!("boom");
            }
        });
    }
}
