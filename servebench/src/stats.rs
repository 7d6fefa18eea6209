//! The benchmark's own statistics: percentiles under the
//! ten-samples-beyond rule, open-loop due-time latency, and the wire
//! residual no span covers.

/// Tail percentiles a timing may be reported at, lowest first.
pub const TAIL_PERCENTILES: [f64; 3] = [0.90, 0.99, 0.999];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `0..=1`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it. The median
/// (`p = 0.5`) is exempt from the rule but needs one sample.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if p > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples`, or `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The highest of [`TAIL_PERCENTILES`] that `n` samples support.
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n - ((p * n as f64).ceil() as usize).min(n) >= MIN_BEYOND)
}

/// Open-loop latency in ms of request `index`, due `index / rate_per_s`
/// seconds after the schedule began and answered `answered_s` seconds
/// after it. Timing from the due time charges a generator stall to
/// every request it delayed, not only to the one sent late.
#[must_use]
pub fn due_latency_ms(rate_per_s: f64, index: usize, answered_s: f64) -> f64 {
    (answered_s - index as f64 / rate_per_s) * 1e3
}

/// The median over consecutive windows of `window` samples of
/// percentile `p` within each window. A trailing partial window is
/// dropped; `None` when no whole window meets the ten-beyond rule.
///
/// A stall of the host (or of the program) that spoils one window moves
/// this figure only if it spoils half of them, so a run's figure follows
/// the typical window rather than the worst second.
#[must_use]
pub fn windowed_percentile(samples: &[f64], window: usize, p: f64) -> Option<f64> {
    let per_window: Vec<f64> = samples
        .chunks_exact(window.max(1))
        .filter_map(|w| percentile(w, p))
        .collect();
    if per_window.len() < samples.len() / window.max(1) {
        return None;
    }
    median(&per_window)
}

/// Median of the per-request differences `wire_ms[i] - engine_ms[i]`:
/// the part of wire latency that the engine-side time of the same
/// request does not explain. `None` for no requests.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn residual_p50_ms(wire_ms: &[f64], engine_ms: &[f64]) -> Option<f64> {
    assert_eq!(
        wire_ms.len(),
        engine_ms.len(),
        "one engine time per request"
    );
    let diffs: Vec<f64> = wire_ms.iter().zip(engine_ms).map(|(w, e)| w - e).collect();
    median(&diffs)
}

/// Arithmetic mean, or 0 for an empty slice.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th value, with 10 beyond it.
        assert_eq!(percentile(&hundred, 0.90), Some(90.0));
        // p99 would leave one sample beyond: refused.
        assert_eq!(percentile(&hundred, 0.99), None);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        // ceil(0.9 * 99) = 90 leaves only 9 beyond.
        assert_eq!(percentile(&ninety_nine, 0.90), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
    }

    #[test]
    fn percentile_sorts_and_takes_nearest_rank() {
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&shuffled), Some(3.0));
        assert_eq!(median(&[7.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_supported_percentile_follows_the_sample_count() {
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(999), Some(0.90));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn windowed_percentile_follows_the_typical_window() {
        // Five windows of 100; the fourth stalled (every sample 50).
        let mut samples: Vec<f64> = Vec::new();
        for w in 0..5 {
            samples.extend((1..=100).map(|v| if w == 3 { 50.0 } else { f64::from(v) / 10.0 }));
        }
        assert_eq!(windowed_percentile(&samples, 100, 0.90), Some(9.0));
        assert_eq!(windowed_percentile(&samples, 100, 0.50), Some(5.0));
        // The whole-sample p90 is dragged to the stalled window.
        assert_eq!(percentile(&samples, 0.90), Some(50.0));
        // Windows too small for a p90 refuse rather than guess.
        assert_eq!(windowed_percentile(&samples, 50, 0.90), None);
        // A trailing partial window is dropped.
        samples.push(1e9);
        assert_eq!(windowed_percentile(&samples, 100, 0.90), Some(9.0));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // 100 req/s: requests due at 0, 10 and 20 ms. The generator
        // stalled, so the second went out late and was answered at
        // 35 ms; its latency still counts from 10 ms.
        let answered = [0.004, 0.035, 0.026];
        let expected = [4.0, 25.0, 6.0];
        for (i, (t, want)) in answered.into_iter().zip(expected).enumerate() {
            let got = due_latency_ms(100.0, i, t);
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn residual_is_the_median_of_per_request_differences() {
        let wire = [5.0, 6.0, 40.0, 5.5, 7.0];
        let engine = [1.0, 1.0, 2.0, 0.5, 1.0];
        // Differences 4, 5, 38, 5, 6 → median 5.
        assert_eq!(residual_p50_ms(&wire, &engine), Some(5.0));
        assert_eq!(residual_p50_ms(&[], &[]), None);
    }

    #[test]
    #[should_panic(expected = "one engine time per request")]
    fn residual_rejects_unpaired_inputs() {
        let _ = residual_p50_ms(&[1.0, 2.0], &[1.0]);
    }
}
