//! Panic-isolated retries: the crash-safety layer under resilient
//! fault-injection campaigns.
//!
//! [`Runner::map_retry`] wraps each job in
//! [`std::panic::catch_unwind`], so one poisoned chunk cannot take down
//! a multi-hour campaign. A failed attempt is retried under a
//! [`RetryPolicy`] (capped exponential backoff); when the budget is
//! exhausted the job resolves to [`Attempted::Failed`] carrying the
//! panic message, and the *caller* decides whether partial results are
//! acceptable (graceful degradation) or the run must abort.
//!
//! Determinism: the retry loop passes the attempt number to the job, so
//! a job that derives its RNG stream from `(seed, index, attempt)` — or
//! simply re-seeds identically every attempt — produces the same value
//! no matter how many transient failures preceded success.

use crate::Runner;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A panic captured from an isolated job attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

impl JobPanic {
    /// Render a `catch_unwind` payload.
    fn from_payload(payload: Box<dyn std::any::Any + Send>) -> JobPanic {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        JobPanic { message }
    }
}

/// Retry budget and backoff schedule for [`Runner::map_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries *after* the first attempt (0 = single attempt).
    pub retries: u32,
    /// Base backoff before retry `k` (milliseconds), doubled each retry.
    pub backoff_ms: u64,
    /// Ceiling on a single backoff sleep (milliseconds).
    pub backoff_cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 2,
            backoff_ms: 10,
            backoff_cap_ms: 200,
        }
    }
}

impl RetryPolicy {
    /// No retries, no backoff: fail on the first panic.
    pub fn none() -> Self {
        RetryPolicy {
            retries: 0,
            backoff_ms: 0,
            backoff_cap_ms: 0,
        }
    }

    /// Backoff before retry attempt `attempt` (1-based), capped.
    pub fn backoff_before(&self, attempt: u32) -> u64 {
        let shifted = self
            .backoff_ms
            .checked_shl(attempt.saturating_sub(1).min(16))
            .unwrap_or(u64::MAX);
        shifted.min(self.backoff_cap_ms)
    }
}

/// Terminal state of one retried job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attempted<T> {
    /// The job produced a value on attempt `attempts` (1-based).
    Done {
        /// The job's result.
        value: T,
        /// Attempts consumed, including the successful one.
        attempts: u32,
    },
    /// Every attempt panicked; the job is abandoned.
    Failed {
        /// Attempts consumed (always `retries + 1`).
        attempts: u32,
        /// The last panic observed.
        last: JobPanic,
    },
}

impl<T> Attempted<T> {
    /// The value, if the job eventually succeeded.
    pub fn value(self) -> Option<T> {
        match self {
            Attempted::Done { value, .. } => Some(value),
            Attempted::Failed { .. } => None,
        }
    }

    /// Attempts consumed.
    pub fn attempts(&self) -> u32 {
        match self {
            Attempted::Done { attempts, .. } | Attempted::Failed { attempts, .. } => *attempts,
        }
    }
}

impl Runner {
    /// Map `f` over `items` in parallel with per-attempt panic isolation
    /// and retries, preserving item order.
    ///
    /// `f` receives `(item, attempt)` with `attempt` starting at 0; the
    /// item must therefore be `Clone` so a fresh copy feeds each
    /// attempt. A panicking attempt is caught, backed off per `policy`,
    /// and retried; after `policy.retries` retries the slot resolves to
    /// [`Attempted::Failed`] instead of propagating the panic, so the
    /// other jobs always run to completion.
    pub fn map_retry<I, T, F>(
        &self,
        items: impl IntoIterator<Item = I>,
        policy: RetryPolicy,
        f: F,
    ) -> Vec<Attempted<T>>
    where
        I: Clone + Send,
        T: Send,
        F: Fn(I, u32) -> T + Sync,
    {
        self.map(items, |item| {
            let mut attempt = 0u32;
            loop {
                let it = item.clone();
                match catch_unwind(AssertUnwindSafe(|| f(it, attempt))) {
                    Ok(value) => {
                        return Attempted::Done {
                            value,
                            attempts: attempt + 1,
                        }
                    }
                    Err(payload) => {
                        let last = JobPanic::from_payload(payload);
                        if attempt >= policy.retries {
                            return Attempted::Failed {
                                attempts: attempt + 1,
                                last,
                            };
                        }
                        attempt += 1;
                        let ms = policy.backoff_before(attempt);
                        if ms > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(ms));
                        }
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn clean_jobs_succeed_first_try() {
        let out = Runner::new(4).map_retry(0..16u32, RetryPolicy::default(), |i, _| i * 2);
        for (i, a) in out.into_iter().enumerate() {
            assert_eq!(
                a,
                Attempted::Done {
                    value: i as u32 * 2,
                    attempts: 1
                }
            );
        }
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        let flaky_hits = AtomicU32::new(0);
        let policy = RetryPolicy {
            retries: 2,
            backoff_ms: 0,
            backoff_cap_ms: 0,
        };
        let out = Runner::new(2).map_retry(0..4u32, policy, |i, attempt| {
            if i == 2 && attempt == 0 {
                flaky_hits.fetch_add(1, Ordering::Relaxed);
                panic!("transient wobble");
            }
            i + 100
        });
        assert_eq!(flaky_hits.load(Ordering::Relaxed), 1);
        assert_eq!(
            out[2],
            Attempted::Done {
                value: 102,
                attempts: 2
            }
        );
        assert!(out.iter().filter(|a| a.attempts() == 1).count() == 3);
    }

    #[test]
    fn exhausted_retries_degrade_without_poisoning_neighbours() {
        let policy = RetryPolicy {
            retries: 1,
            backoff_ms: 0,
            backoff_cap_ms: 0,
        };
        let out = Runner::new(4).map_retry(0..8u32, policy, |i, _| {
            assert!(i != 5, "chunk 5 is cursed");
            i
        });
        for (i, a) in out.iter().enumerate() {
            if i == 5 {
                match a {
                    Attempted::Failed { attempts, last } => {
                        assert_eq!(*attempts, 2);
                        assert!(last.message.contains("cursed"), "got: {}", last.message);
                    }
                    other => panic!("expected failure, got {other:?}"),
                }
            } else {
                assert_eq!(a.clone().value(), Some(i as u32));
            }
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            retries: 10,
            backoff_ms: 10,
            backoff_cap_ms: 45,
        };
        assert_eq!(p.backoff_before(1), 10);
        assert_eq!(p.backoff_before(2), 20);
        assert_eq!(p.backoff_before(3), 40);
        assert_eq!(p.backoff_before(4), 45);
        assert_eq!(p.backoff_before(60), 45, "shift overflow must saturate");
        assert_eq!(RetryPolicy::none().backoff_before(1), 0);
    }

    #[test]
    fn panic_payload_renders_for_str_and_string() {
        let out = Runner::serial().map_retry([0u32, 1], RetryPolicy::none(), |i, _| {
            if i == 0 {
                panic!("plain str");
            }
            panic!("{}", format!("formatted {i}"));
        });
        match (&out[0], &out[1]) {
            (Attempted::Failed { last: a, .. }, Attempted::Failed { last: b, .. }) => {
                assert_eq!(a.message, "plain str");
                assert_eq!(b.message, "formatted 1");
            }
            other => panic!("expected two failures, got {other:?}"),
        }
    }
}
