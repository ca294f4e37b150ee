//! Bounded exponential-backoff retry for transient store failures.
//!
//! A [`RetryPolicy`] wraps one store operation (a WAL append, a snapshot
//! write, a checkpoint) in a bounded retry loop: the operation is attempted
//! once, and on a *transient* failure ([`StoreError::is_transient`]) it is
//! retried up to [`RetryPolicy::max_retries`] more times, sleeping an
//! exponentially growing, deterministically jittered delay between
//! attempts. Permanent failures are returned immediately — retrying a
//! checksum mismatch or a permission error only delays the inevitable.
//!
//! Everything about the schedule is deterministic and inspectable:
//! [`RetryPolicy::backoff`] is a pure function of the attempt index (the
//! jitter comes from a SplitMix64 hash of `seed ^ attempt`, not from a
//! global RNG), and the sleep itself is injectable through the [`Sleeper`]
//! trait so tests assert the exact delay sequence without waiting for it.

use std::time::Duration;

use crate::error::StoreError;

/// Puts the current thread to sleep between retry attempts. Injectable so
/// tests observe the schedule instead of waiting for it.
pub(crate) trait Sleeper {
    /// Sleeps for (at least) `d`.
    fn sleep(&mut self, d: Duration);
}

/// The production sleeper: [`std::thread::sleep`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&mut self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// A test sleeper that records every requested delay and never sleeps.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct RecordingSleeper {
    /// Every delay requested so far, in order.
    pub(crate) slept: Vec<Duration>,
}

#[cfg(test)]
impl Sleeper for RecordingSleeper {
    fn sleep(&mut self, d: Duration) {
        self.slept.push(d);
    }
}

/// A bounded exponential-backoff retry schedule for transient failures.
///
/// Delay before retry `i` (0-based) is
/// `min(initial_backoff * multiplier^i, max_backoff)`, scaled by a
/// deterministic jitter factor in `[1 - jitter, 1 + jitter]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retrying).
    pub(crate) max_retries: u32,
    /// Delay before the first retry.
    pub(crate) initial_backoff: Duration,
    /// Growth factor applied per retry (values below 1.0 are clamped to
    /// 1.0 — backoff never shrinks).
    pub(crate) multiplier: f64,
    /// Upper bound on any single delay (applied before jitter).
    pub(crate) max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub(crate) jitter: f64,
    /// Seed of the deterministic jitter sequence.
    pub(crate) seed: u64,
}

impl Default for RetryPolicy {
    /// Three retries at 1 ms / 2 ms / 4 ms (±10 % jitter) — about 7 ms of
    /// patience for an EINTR-class hiccup before durability degrades.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(1),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(50),
            jitter: 0.1,
            seed: 0x5742_5354,
        }
    }
}

/// SplitMix64: a tiny, high-quality deterministic bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// A policy that never retries (every failure is final).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// A policy with zero backoff — retries happen immediately.
    /// Deterministic tests use this to exercise the retry *logic* without
    /// any wall-clock dependence.
    pub fn immediate(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            initial_backoff: Duration::ZERO,
            multiplier: 1.0,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// The delay before retry `attempt` (0-based), jitter included. A pure
    /// function: the same policy and attempt always yield the same delay.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let multiplier = self.multiplier.max(1.0);
        let base = self.initial_backoff.as_secs_f64() * multiplier.powi(attempt as i32);
        let capped = base.min(self.max_backoff.as_secs_f64().max(0.0));
        let jitter = self.jitter.clamp(0.0, 1.0);
        // Deterministic uniform in [-1, 1] from (seed, attempt).
        let unit = (splitmix64(self.seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64
            * 2.0
            - 1.0;
        Duration::from_secs_f64((capped * (1.0 + jitter * unit)).max(0.0))
    }

    /// The full delay schedule: one entry per allowed retry.
    #[cfg(test)]
    pub(crate) fn delays(&self) -> impl Iterator<Item = Duration> + '_ {
        (0..self.max_retries).map(|i| self.backoff(i))
    }

    /// Runs `op` under this policy with the production sleeper. Returns
    /// the final result plus the number of retries performed.
    pub fn run<T>(
        &self,
        op: impl FnMut() -> Result<T, StoreError>,
    ) -> (Result<T, StoreError>, u32) {
        self.run_with(&mut ThreadSleeper, op)
    }

    /// Runs `op`, retrying transient failures under this policy, sleeping
    /// through `sleeper` between attempts. Permanent failures return
    /// immediately; the second element counts the retries actually
    /// performed (0 = first attempt settled it).
    pub(crate) fn run_with<T, S: Sleeper>(
        &self,
        sleeper: &mut S,
        mut op: impl FnMut() -> Result<T, StoreError>,
    ) -> (Result<T, StoreError>, u32) {
        let mut retries = 0u32;
        loop {
            match op() {
                Ok(v) => return (Ok(v), retries),
                Err(e) if e.is_transient() && retries < self.max_retries => {
                    sleeper.sleep(self.backoff(retries));
                    retries += 1;
                }
                Err(e) => return (Err(e), retries),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    fn transient() -> StoreError {
        StoreError::Io(io::Error::new(io::ErrorKind::Interrupted, "blip"))
    }

    fn permanent() -> StoreError {
        StoreError::Io(io::Error::new(io::ErrorKind::PermissionDenied, "denied"))
    }

    fn no_jitter(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            initial_backoff: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(35),
            jitter: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn retry_policy_doc_example() {
        let policy = RetryPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(1),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(50),
            jitter: 0.0,
            seed: 0,
        };
        let delays: Vec<Duration> = policy.delays().collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(4),
            ]
        );
    }

    #[test]
    fn backoff_sequence_doubles_and_caps() {
        let p = no_jitter(5);
        let delays: Vec<Duration> = p.delays().collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(35), // capped (40 > max)
                Duration::from_millis(35),
                Duration::from_millis(35),
            ]
        );
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let p = RetryPolicy {
            jitter: 0.25,
            max_retries: 64,
            initial_backoff: Duration::from_millis(8),
            multiplier: 1.5,
            max_backoff: Duration::from_secs(1),
            seed: 42,
        };
        let mut distinct = std::collections::HashSet::new();
        for attempt in 0..p.max_retries {
            let raw = RetryPolicy {
                jitter: 0.0,
                ..p.clone()
            }
            .backoff(attempt)
            .as_secs_f64();
            let jittered = p.backoff(attempt).as_secs_f64();
            assert!(
                jittered >= raw * 0.75 - 1e-12 && jittered <= raw * 1.25 + 1e-12,
                "attempt {attempt}: {jittered} outside [{}, {}]",
                raw * 0.75,
                raw * 1.25
            );
            // Pure function of (seed, attempt).
            assert_eq!(p.backoff(attempt), p.backoff(attempt));
            distinct.insert(p.backoff(attempt));
        }
        assert!(distinct.len() > 1, "jitter must actually vary");
    }

    #[test]
    fn exhaustion_returns_last_error_after_max_retries() {
        let p = no_jitter(3);
        let mut sleeper = RecordingSleeper::default();
        let mut calls = 0u32;
        let (result, retries) = p.run_with(&mut sleeper, || {
            calls += 1;
            Err::<(), _>(transient())
        });
        assert!(matches!(result, Err(StoreError::Io(_))));
        assert_eq!(retries, 3);
        assert_eq!(calls, 4, "one initial attempt + three retries");
        assert_eq!(sleeper.slept, p.delays().collect::<Vec<_>>());
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let mut sleeper = RecordingSleeper::default();
        let mut calls = 0u32;
        let (result, retries) = no_jitter(5).run_with(&mut sleeper, || {
            calls += 1;
            Err::<(), _>(permanent())
        });
        assert!(result.is_err());
        assert_eq!(retries, 0);
        assert_eq!(calls, 1);
        assert!(sleeper.slept.is_empty());
    }

    #[test]
    fn success_after_transient_failures() {
        let mut sleeper = RecordingSleeper::default();
        let mut calls = 0u32;
        let (result, retries) = no_jitter(5).run_with(&mut sleeper, || {
            calls += 1;
            if calls < 3 {
                Err(transient())
            } else {
                Ok(99)
            }
        });
        assert_eq!(result.ok(), Some(99));
        assert_eq!(retries, 2);
        assert_eq!(sleeper.slept.len(), 2);
    }

    #[test]
    fn zero_retries_policy_fails_fast() {
        let mut calls = 0u32;
        let (result, retries) =
            RetryPolicy::none().run_with(&mut RecordingSleeper::default(), || {
                calls += 1;
                Err::<(), _>(transient())
            });
        assert!(result.is_err());
        assert_eq!(retries, 0);
        assert_eq!(calls, 1);
    }

    #[test]
    fn immediate_policy_has_zero_delays() {
        let p = RetryPolicy::immediate(4);
        assert!(p.delays().all(|d| d.is_zero()));
    }

    #[test]
    fn shrinking_multiplier_is_clamped() {
        let p = RetryPolicy {
            multiplier: 0.5,
            jitter: 0.0,
            ..no_jitter(3)
        };
        assert_eq!(p.backoff(0), p.backoff(1), "backoff must never shrink");
    }
}
