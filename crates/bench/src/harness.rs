//! Experiment context and timing helpers shared by the table/figure
//! binaries.

use std::time::Instant;

/// Shared context of an experiment run: the scale at which to run and the
/// deterministic seed.
///
/// Every experiment binary accepts `--full` on the command line to run at
/// the paper's full scale (which can take a long time); the default scale is
/// chosen so a complete `cargo run --release` pass over all binaries
/// finishes within minutes while preserving the qualitative shape of every
/// result.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Whether to run at the paper's full scale.
    pub full: bool,
    /// Seed shared by every randomized component of the experiment.
    pub seed: u64,
}

impl ExperimentCtx {
    /// Builds a context from the process command line (`--full`,
    /// `--seed <n>`).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_arg_slice(&args[1..])
    }

    /// Builds a context from an explicit argument slice (used in tests).
    pub(crate) fn from_arg_slice(args: &[String]) -> Self {
        let full = args.iter().any(|a| a == "--full");
        let seed = args
            .iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(2012);
        Self { full, seed }
    }
}

/// Runs `f` and returns its result together with the elapsed wall-clock time
/// in milliseconds.
pub(crate) fn measure_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_and_seed() {
        let args: Vec<String> = vec!["--full".into(), "--seed".into(), "99".into()];
        let ctx = ExperimentCtx::from_arg_slice(&args);
        assert!(ctx.full);
        assert_eq!(ctx.seed, 99);
    }

    #[test]
    fn ignores_malformed_seed() {
        let args: Vec<String> = vec!["--seed".into(), "abc".into()];
        let ctx = ExperimentCtx::from_arg_slice(&args);
        assert_eq!(ctx.seed, 2012);
    }

    #[test]
    fn measure_returns_value_and_nonnegative_time() {
        let (v, ms) = measure_ms(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }
}
