//! Order statistics over exact samples (no histogram buckets): empty-safe
//! wrappers over `lad_math::stats`, plus the rule for when a tail percentile
//! is supported by its sample.

pub use lad_math::stats::mean;

/// Linear-interpolated quantile; 0 when empty (a run that served nothing).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        lad_math::stats::quantile(values, q)
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly beyond the `q` quantile's rank among `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(((q * n as f64).ceil() as usize).max(1))
}

/// The p90 when at least ten samples lie beyond it, otherwise the median:
/// a percentile is reported only where the sample supports it.
pub fn tail(values: &[f64]) -> f64 {
    if samples_beyond(values.len(), 0.9) >= 10 {
        quantile(values, 0.9)
    } else {
        median(values)
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_read_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(tail(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_p90() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(4, 0.9), 0);
        assert_eq!(samples_beyond(0, 0.9), 0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((tail(&hundred) - 90.1).abs() < 1e-9);
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&few), 50.0, "falls back to the median");
    }

    #[test]
    fn ratio_of_idle_layer_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 6.0), 0.5);
    }
}
