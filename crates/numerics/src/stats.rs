//! Descriptive statistics used across the workspace.
//!
//! The evaluation section of the paper reports SSE (sum of squared errors,
//! Fig. 4/5), Euclidean centroid distance (Fig. 4/5) and MSE (Fig. 9). These
//! helpers implement those metrics plus the usual moments. [`OnlineStats`]
//! is a mergeable moments accumulator so round-wise collectors can track
//! data quality without buffering values.

/// Arithmetic mean of a slice. Returns `0.0` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (dividing by `n`). Returns `0.0` for fewer than two
/// elements.
#[must_use]
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (dividing by `n - 1`). Returns `0.0` for fewer
/// than two elements.
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Sum of squared errors between observations and predictions,
/// `SSE = Σ (y_i − ŷ_i)²` (the Fig. 4/5 y-axis metric).
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn sse(observed: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        observed.len(),
        predicted.len(),
        "sse: length mismatch ({} vs {})",
        observed.len(),
        predicted.len()
    );
    observed
        .iter()
        .zip(predicted)
        .map(|(y, yhat)| (y - yhat) * (y - yhat))
        .sum()
}

/// Mean squared error (the Fig. 9 y-axis metric). Returns `0.0` for empty
/// input.
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn mse(observed: &[f64], predicted: &[f64]) -> f64 {
    if observed.is_empty() {
        return 0.0;
    }
    sse(observed, predicted) / observed.len() as f64
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_euclidean: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length vectors.
#[must_use]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Minimum of a slice ignoring NaNs. Returns `None` on empty input or if all
/// entries are NaN.
#[must_use]
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| {
            Some(match acc {
                Some(m) if m <= x => m,
                _ => x,
            })
        })
}

/// Maximum of a slice ignoring NaNs. Returns `None` on empty input or if all
/// entries are NaN.
#[must_use]
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| {
            Some(match acc {
                Some(m) if m >= x => m,
                _ => x,
            })
        })
}

/// Independent accumulators per pass of [`OnlineStats::extend`]: enough
/// to hide the floating-point add latency and fill the vector units.
const MOMENT_LANES: usize = 8;

/// Sums the lanes as a fixed pairwise tree, so the result does not depend
/// on how the compiler schedules the lanes.
fn fold_lanes(l: [f64; MOMENT_LANES]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Numerically stable streaming moments: Welford's update per
/// [`OnlineStats::push`], a batched two-pass update per
/// [`OnlineStats::extend`], and the parallel merge of the two.
///
/// Used by the collector to keep per-round quality statistics without
/// retaining raw values, mirroring the "public board" which records only
/// retained data summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Feeds every value of a slice.
    ///
    /// Equivalent to a loop of [`OnlineStats::push`] up to rounding: the
    /// slice's moments are computed in two passes — the sum (hence the
    /// mean), then `Σ(x − mean)²`, `min` and `max` — each over eight
    /// independent accumulators combined in a fixed order, so the result
    /// is deterministic and the passes pipeline instead of serializing on
    /// Welford's `sub → div → add` chain. The batch is then folded into
    /// `self` with [`OnlineStats::merge`]. Any NaN or ±∞ input makes the
    /// mean and `m2` non-finite, as with `push`; `min`/`max` skip NaNs, as
    /// with `push`.
    pub fn extend(&mut self, xs: &[f64]) {
        if xs.is_empty() {
            return;
        }
        let chunks = xs.chunks_exact(MOMENT_LANES);
        let tail = chunks.remainder();

        let mut sum = [0.0; MOMENT_LANES];
        for chunk in chunks.clone() {
            for (s, &x) in sum.iter_mut().zip(chunk) {
                *s += x;
            }
        }
        for (s, &x) in sum.iter_mut().zip(tail) {
            *s += x;
        }
        let mean = fold_lanes(sum) / xs.len() as f64;

        let mut m2 = [0.0; MOMENT_LANES];
        let mut lo = [f64::INFINITY; MOMENT_LANES];
        let mut hi = [f64::NEG_INFINITY; MOMENT_LANES];
        let mut accumulate = |lane: usize, x: f64| {
            let d = x - mean;
            m2[lane] += d * d;
            lo[lane] = if x < lo[lane] { x } else { lo[lane] };
            hi[lane] = if x > hi[lane] { x } else { hi[lane] };
        };
        for chunk in chunks {
            let chunk: &[f64; MOMENT_LANES] = chunk.try_into().expect("exact chunk");
            for (lane, &x) in chunk.iter().enumerate() {
                accumulate(lane, x);
            }
        }
        for (lane, &x) in tail.iter().enumerate() {
            accumulate(lane, x);
        }

        let batch = Self {
            n: xs.len() as u64,
            mean,
            m2: fold_lanes(m2),
            min: lo.into_iter().fold(f64::INFINITY, f64::min),
            max: hi.into_iter().fold(f64::NEG_INFINITY, f64::max),
        };
        self.merge(&batch);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`0.0` before any observation).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Running population variance (`0.0` before two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Running sample variance (`0.0` before two observations).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`None` before any observation).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` before any observation).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// The raw accumulator state `(n, mean, m2, min, max)` exactly as
    /// stored — `min`/`max` are `+∞`/`−∞` before any observation and the
    /// mean is the raw running mean, not the `0.0`-defaulted view of
    /// [`OnlineStats::mean`]. This is the bit-exact serialization surface:
    /// `from_raw_parts(s.raw_parts())` reconstructs a accumulator equal to
    /// `s` under `==` and bit-for-bit in every field.
    #[must_use]
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.n, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`OnlineStats::raw_parts`] output.
    /// No invariants are re-derived — the caller owns round-trip fidelity.
    #[must_use]
    pub fn from_raw_parts(n: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Self {
            n,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_simple() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_constant_is_zero() {
        assert_eq!(variance(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn variance_known_value() {
        // Population variance of [2, 4, 4, 4, 5, 5, 7, 9] is 4.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn std_dev_matches_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let m = mean(&xs);
        let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
        assert!((std_dev(&xs) - (ss / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sse_zero_for_identical() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(sse(&xs, &xs), 0.0);
    }

    #[test]
    fn sse_known_value() {
        assert!((sse(&[1.0, 2.0], &[0.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mse_is_sse_over_n() {
        assert!((mse(&[1.0, 2.0], &[0.0, 4.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mse_empty_is_zero() {
        assert_eq!(mse(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sse_panics_on_mismatch() {
        let _ = sse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn euclidean_345() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_ignore_nan() {
        let xs = [f64::NAN, 2.0, -1.0, f64::NAN, 7.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(7.0));
    }

    #[test]
    fn min_max_empty() {
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn online_stats_matches_batch() {
        let xs = [0.3, -1.2, 4.5, 2.2, 0.0, -0.7, 9.1];
        let mut acc = OnlineStats::new();
        acc.extend(&xs);
        assert_eq!(acc.count(), xs.len() as u64);
        assert!((acc.mean() - mean(&xs)).abs() < 1e-12);
        assert!((acc.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(acc.min(), Some(-1.2));
        assert_eq!(acc.max(), Some(9.1));
    }

    #[test]
    fn online_stats_merge_matches_single_pass() {
        let xs = [0.3, -1.2, 4.5, 2.2];
        let ys = [0.0, -0.7, 9.1];
        let mut a = OnlineStats::new();
        a.extend(&xs);
        let mut b = OnlineStats::new();
        b.extend(&ys);
        a.merge(&b);

        let mut all = OnlineStats::new();
        all.extend(&xs);
        all.extend(&ys);

        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
    }

    #[test]
    fn raw_parts_round_trip_is_bit_exact() {
        let mut acc = OnlineStats::new();
        acc.extend(&[0.3, -1.2, 4.5, 2.2, 0.0]);
        let (n, mean, m2, min, max) = acc.raw_parts();
        let back = OnlineStats::from_raw_parts(n, mean, m2, min, max);
        assert_eq!(back, acc);
        assert_eq!(back.mean().to_bits(), acc.mean().to_bits());
        // The empty accumulator round-trips its ±∞ sentinels too.
        let empty = OnlineStats::new();
        let (n, mean, m2, min, max) = empty.raw_parts();
        assert_eq!(min, f64::INFINITY);
        assert_eq!(max, f64::NEG_INFINITY);
        assert_eq!(OnlineStats::from_raw_parts(n, mean, m2, min, max), empty);
    }

    fn pushed(xs: &[f64]) -> OnlineStats {
        let mut acc = OnlineStats::new();
        for &x in xs {
            acc.push(x);
        }
        acc
    }

    #[test]
    fn extend_with_empty_slice_is_a_no_op() {
        let mut empty = OnlineStats::new();
        empty.extend(&[]);
        assert_eq!(empty.raw_parts(), OnlineStats::new().raw_parts());

        let mut acc = pushed(&[0.3, -1.2, 4.5]);
        let before = acc.raw_parts();
        acc.extend(&[]);
        assert_eq!(acc.raw_parts(), before);
    }

    #[test]
    fn extend_onto_non_empty_equals_merge_of_the_batch() {
        // 19 values: two full lane chunks plus a tail.
        let xs: Vec<f64> = (0..19).map(|i| (f64::from(i) * 0.37).sin() * 5.0).collect();
        let mut extended = pushed(&[2.5, -0.5, 7.0]);
        let mut merged = extended;
        extended.extend(&xs);

        let mut batch = OnlineStats::new();
        batch.extend(&xs);
        merged.merge(&batch);
        assert_eq!(extended.raw_parts(), merged.raw_parts());
        // And it matches the push loop over the concatenation.
        let mut all = vec![2.5, -0.5, 7.0];
        all.extend_from_slice(&xs);
        let reference = pushed(&all);
        assert_eq!(extended.count(), reference.count());
        assert!((extended.mean() - reference.mean()).abs() < 1e-12);
        assert!((extended.variance() - reference.variance()).abs() < 1e-12);
        assert_eq!(extended.min(), reference.min());
        assert_eq!(extended.max(), reference.max());
    }

    #[test]
    fn non_finite_input_poisons_mean_and_m2_on_both_paths() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // The bad value in a full lane chunk, in the tail, and alone.
            for at in [0, 3, 9, 10] {
                let mut xs: Vec<f64> = (0..11).map(f64::from).collect();
                xs[at] = bad;
                for input in [&xs[..], &xs[at..=at]] {
                    let mut extended = OnlineStats::new();
                    extended.extend(input);
                    let pushed = pushed(input);
                    for acc in [extended, pushed] {
                        let (n, mean, m2, _, _) = acc.raw_parts();
                        assert_eq!(n, input.len() as u64);
                        assert!(!mean.is_finite(), "{bad} at {at}: mean {mean}");
                        assert!(!m2.is_finite(), "{bad} at {at}: m2 {m2}");
                    }
                    assert_eq!(extended.min(), pushed.min());
                    assert_eq!(extended.max(), pushed.max());
                }
            }
        }
    }

    #[test]
    fn online_stats_merge_with_empty() {
        let mut a = OnlineStats::new();
        a.extend(&[1.0, 2.0]);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
