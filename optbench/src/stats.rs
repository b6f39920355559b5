//! Order statistics, the geometric mean, and span self-time.

/// Median of `values` (mean of the middle two for an even count); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes. With fewer than
/// two values both quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let (n, m) = (4, len + 1);
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Percentile `p` (0–100) of `values` by the Harrell–Davis estimator: a
/// weighted mean of every order statistic, with the weights of the
/// Beta(p(n+1), (1−p)(n+1)) distribution over ranks; `NaN` when empty.
///
/// The workloads' requests differ in cost by up to 1000×, so neighbouring
/// order statistics can lie 5% apart, and a single-rank estimate jumps
/// whenever machine noise swaps two of them. Weighting the ranks around
/// `p` smooths those jumps; the estimate still converges to the
/// percentile.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return f64::NAN,
        1 => return v[0],
        _ => {}
    }
    let q = (p / 100.0).clamp(0.0, 1.0);
    if q == 0.0 || q == 1.0 {
        return if q == 0.0 { v[0] } else { v[n - 1] };
    }
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let mut below = 0.0;
    let mut total = 0.0;
    for (i, x) in v.iter().enumerate() {
        let upto = regularized_beta(a, b, (i + 1) as f64 / n as f64);
        total += (upto - below) * x;
        below = upto;
    }
    total
}

/// The regularized incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz), on whichever side converges fast.
fn regularized_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_fraction(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_fraction(b, a, 1.0 - x) / b
    }
}

fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let nonzero = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / nonzero(1.0 + even * d);
        c = nonzero(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / nonzero(1.0 + odd * d);
        c = nonzero(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7), to about 15 significant digits.
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + G + 0.5;
    let sum: f64 = COEF[0] + (1..9).map(|i| COEF[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p).max(1))
}

/// 1-based nearest rank of percentile `p` among `n` samples. Multiplying
/// before dividing keeps ranks like 99.9% of 10 000 exact.
fn nearest_rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0).ceil() as usize
}

/// The highest percentile among `candidates` that has at least ten samples
/// beyond it, as the reporting rule asks; `None` when even the lowest has
/// fewer.
pub fn tail_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().copied().filter(|&p| samples_beyond(n, p) >= 10).reduce(f64::max)
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Time inside `[start, end)` that no child interval covers: a span's
/// duration minus the union of its children, each clipped to the span.
/// Overlapping children (parallel work) are counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_selection_needs_ten_samples_beyond() {
        let candidates = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(tail_percentile(15, &candidates), None);
        assert_eq!(tail_percentile(20, &candidates), Some(50.0));
        assert_eq!(tail_percentile(99, &candidates), Some(50.0));
        assert_eq!(tail_percentile(100, &candidates), Some(90.0));
        assert_eq!(tail_percentile(999, &candidates), Some(90.0));
        assert_eq!(tail_percentile(1000, &candidates), Some(99.0));
        assert_eq!(tail_percentile(10_000, &candidates), Some(99.9));
        assert_eq!(samples_beyond(100, 90.0), 10);
    }

    #[test]
    fn harrell_davis_percentiles() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6 * b.abs().max(1.0);
        // Symmetric weights put the median of an even run in the middle.
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!(close(percentile(&v, 50.0), 51.0));
        // Reference values from mpmath's regularized incomplete beta.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(percentile(&ten, 50.0), 5.5));
        assert!(close(percentile(&ten, 90.0), 9.435_115_176_660_436));
        assert!(close(percentile(&[3.0, 1.0, 7.0, 20.0, 2.0], 99.0), 19.868_193_898_126_736));
        // A swap of two neighbouring items moves the estimate a little, not
        // by the gap between them.
        let mut swapped = ten.clone();
        swapped[5] = 5.9;
        assert!((percentile(&swapped, 50.0) - 5.5).abs() < 0.05);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&ten, 100.0), 10.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert!(close(ln_gamma(0.3), 1.095_797_994_818_075));
        assert!(close(ln_gamma(3001.0), 21_024.024_853_045_546));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..30 and 20..50 overlap (union 40),
        // 90..120 is clipped to 90..100 (10): self time 50.
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 50), (90, 120)]), 50);
        assert_eq!(self_time(0, 100, &[]), 100);
        // A child nested inside another counts once.
        assert_eq!(self_time(0, 100, &[(0, 100), (40, 60)]), 0);
        // Children entirely outside the parent do not count.
        assert_eq!(self_time(50, 60, &[(0, 10), (70, 80)]), 10);
    }
}
