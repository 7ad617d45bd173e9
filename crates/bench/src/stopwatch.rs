//! Minimal timing harness for the `benches/` programs.
//!
//! The workspace builds offline, so the benches cannot use an external
//! harness; each bench is a plain `harness = false` binary that calls
//! [`bench`](fn@bench) for every case and prints one line per case.

use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `iters` iterations and prints mean and best
/// wall-clock per iteration.
///
/// Returns the mean seconds per iteration so benches can derive
/// ratios (e.g. FSM vs shift-register synthesis).
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> f64 {
    assert!(iters > 0, "need at least one iteration");
    black_box(f()); // warm-up, excluded from timing
    let mut total = 0.0f64;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let started = Instant::now();
        black_box(f());
        let dt = started.elapsed().as_secs_f64();
        total += dt;
        best = best.min(dt);
    }
    let mean = total / f64::from(iters);
    println!(
        "{name:<48} {iters:>3} iters   mean {:>9.3} ms   best {:>9.3} ms",
        mean * 1e3,
        best * 1e3
    );
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_mean() {
        let mean = bench("noop", 3, || 1 + 1);
        assert!(mean >= 0.0);
    }
}
