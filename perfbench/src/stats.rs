//! Sample summaries: medians and the guide's tail percentile.

/// Wall-clock samples of one operation, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

/// A tail read off a sample set: the value, its percentile and support.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// Samples a tail must have beyond it.
const TAIL_SUPPORT: usize = 10;

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle values for an even count);
    /// `NaN` when empty.
    pub fn median(&self) -> f64 {
        median_of(&self.sorted())
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The highest percentile with at least ten samples beyond it: the
    /// order statistic with exactly ten larger samples. With fewer than
    /// 21 samples that statistic would fall below the median, so the tail
    /// is reported at the median (percentile 50) instead.
    pub fn tail(&self) -> Tail {
        let v = self.sorted();
        let n = v.len();
        if n < 2 * TAIL_SUPPORT + 1 {
            return Tail {
                value: median_of(&v),
                percentile: 50.0,
                samples: n,
            };
        }
        Tail {
            value: v[n - TAIL_SUPPORT - 1],
            percentile: 100.0 * (n - TAIL_SUPPORT) as f64 / n as f64,
            samples: n,
        }
    }
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(of([3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(of([4.0, 1.0, 2.0, 3.0]).median(), 2.5);
        assert!(of([]).median().is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let s = of((1..=100).map(f64::from));
        let t = s.tail();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        // Too few samples for a tail above the median.
        let t = of((1..=20).map(f64::from)).tail();
        assert_eq!((t.value, t.percentile), (10.5, 50.0));
    }
}
