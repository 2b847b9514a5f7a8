//! Order statistics over a run's samples, and the metric records the
//! benchmark prints.

/// The median of `values` (the mean of the middle pair for an even
/// count). Panics on an empty slice: every timed metric has samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean, 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of the usual percentiles that has at least ten samples
/// beyond it, as `(percentile, value, samples beyond)`. `None` below
/// forty samples, where no such percentile is a tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64, usize)> {
    let n = values.len();
    if n < 40 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n - rank;
        if beyond >= 10 {
            return Some((p, v[rank - 1], beyond));
        }
    }
    None
}

/// One printed figure: an end-to-end or per-layer metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the statistic is taken over (1 for counts and
    /// single readings).
    pub samples: usize,
    /// The reference tail of a timed metric; see [`tail`].
    pub tail: Option<(f64, f64, usize)>,
}

impl Metric {
    /// A median over `samples`, with its tail.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            value: median(samples),
            samples: samples.len(),
            tail: tail(samples),
        }
    }

    /// A single reading or a derived figure.
    pub fn value(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
            tail: None,
        }
    }

    /// The human-readable line printed above the JSON result.
    pub fn line(&self) -> String {
        let mut s = format!(
            "{:<28} {:>14.6} {:<6} n={}",
            self.name, self.value, self.unit, self.samples
        );
        if let Some((p, v, beyond)) = self.tail {
            s.push_str(&format!("  p{p}={v:.6} ({beyond} beyond)"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_forty_samples_and_ten_beyond() {
        let few: Vec<f64> = (0..39).map(f64::from).collect();
        assert!(tail(&few).is_none());
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, v, beyond) = tail(&forty).unwrap();
        assert_eq!((p, v, beyond), (75.0, 30.0, 10));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v, beyond) = tail(&many).unwrap();
        assert_eq!((p, v, beyond), (99.0, 990.0, 10));
    }
}
