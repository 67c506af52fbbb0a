//! Streaming-statistics accuracy gate: the bounded-memory windowed
//! estimator's p50/p99/p99.9 must equal the full-run [`Histogram`]'s
//! exactly until a window is evicted, must agree with nearest-rank over raw
//! samples within the histogram's resolution, and must refuse tails the
//! retained sample count cannot resolve.

use networked_ssd::sim::{
    exact_percentile, tail_resolvable, tail_support, DetRng, Histogram, Rng, SimTime, WindowedStats,
};

/// A heavy-tailed latency stream shaped like device completions: a fast
/// common case around 80 µs, a slower GC-collided mode around 1.2 ms, and a
/// sparse multi-millisecond tail.
fn device_like_samples(n: usize, seed: u64) -> Vec<SimTime> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let roll = rng.gen_range(0..1000u64);
            let ns = if roll < 900 {
                60_000 + rng.gen_range(0..40_000u64)
            } else if roll < 990 {
                900_000 + rng.gen_range(0..600_000u64)
            } else {
                3_000_000 + rng.gen_range(0..9_000_000u64)
            };
            SimTime::from_ns(ns)
        })
        .collect()
}

/// Relative error of a [`Histogram`] quantile versus the nearest-rank
/// order statistic: one sub-bucket, 1/32 of the value.
const HISTOGRAM_BOUND: f64 = 1.0 / 32.0;

#[test]
fn windowed_tails_match_the_exact_paths_within_the_bound() {
    for seed in [1u64, 42, 0xC0FFEE] {
        let samples = device_like_samples(20_000, seed);
        // Five windows, all retained: nothing is evicted.
        let mut windowed = WindowedStats::new(4_000, 5);
        let mut exact = Histogram::new();
        for &s in &samples {
            windowed.record(s);
            exact.record(s);
        }
        assert_eq!(windowed.evicted(), 0);
        for p in [50.0, 99.0, 99.9] {
            let est = windowed
                .percentile(p)
                .unwrap_or_else(|| panic!("p{p} unresolvable over {} samples", samples.len()));
            assert_eq!(
                est,
                exact.percentile(p),
                "seed {seed} p{p}: windowed differs from the full-run histogram"
            );
            let est = est.as_ns() as f64;
            let rank = exact_percentile(&samples, p).unwrap().as_ns() as f64;
            assert!(
                (est - rank).abs() / rank <= HISTOGRAM_BOUND,
                "seed {seed} p{p}: windowed {est} vs nearest-rank {rank}"
            );
        }
    }
}

#[test]
fn eviction_tracks_a_latency_regime_shift() {
    // A run whose tail degrades mid-stream: the full-history histogram
    // averages the regimes away, while the windowed view converges on the
    // recent (degraded) regime — the drift signal the lifetime experiment
    // reports.
    let healthy = device_like_samples(30_000, 7);
    let degraded: Vec<SimTime> = device_like_samples(30_000, 8)
        .into_iter()
        .map(|t| SimTime::from_ns(t.as_ns() * 3))
        .collect();
    let mut windowed = WindowedStats::new(5_000, 2);
    for &s in healthy.iter().chain(&degraded) {
        windowed.record(s);
    }
    // Retained suffix sits entirely in the degraded regime.
    assert!(windowed.retained() <= 15_000);
    assert!(windowed.evicted() >= 45_000);
    let retained = windowed.retained() as usize;
    let suffix = &degraded[degraded.len() - retained..];
    let mut recent = Histogram::new();
    suffix.iter().for_each(|&s| recent.record(s));
    for p in [50.0, 99.0, 99.9] {
        let est = windowed.percentile(p).unwrap();
        assert_eq!(
            est,
            recent.percentile(p),
            "p{p}: windowed sees evicted samples"
        );
        let est = est.as_ns() as f64;
        let rank = exact_percentile(suffix, p).unwrap().as_ns() as f64;
        assert!(
            (est - rank).abs() / rank <= HISTOGRAM_BOUND,
            "p{p}: windowed {est} vs retained-suffix nearest-rank {rank}"
        );
    }
}

#[test]
fn unresolvable_tails_are_refused_not_aliased() {
    let mut w = WindowedStats::new(1 << 20, 1);
    for (i, &s) in device_like_samples(5_000, 3).iter().enumerate() {
        w.record(s);
        let n = (i + 1) as u64;
        for p in [50.0, 99.0, 99.9] {
            assert_eq!(
                w.percentile(p).is_some(),
                tail_resolvable(n, p),
                "p{p} gating disagrees with tail_resolvable at n={n}"
            );
        }
    }
    // The thresholds themselves: the estimator flips from None to Some
    // exactly at tail_support(p).
    for p in [50.0, 99.0, 99.9] {
        let support = tail_support(p);
        let mut w = WindowedStats::new(1 << 20, 1);
        for _ in 0..support - 1 {
            w.record(SimTime::from_us(100));
        }
        assert_eq!(w.percentile(p), None, "p{p} resolved below its support");
        w.record(SimTime::from_us(100));
        assert!(w.percentile(p).is_some(), "p{p} refused at its support");
    }
}
