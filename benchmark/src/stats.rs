//! Order statistics used by the reports.

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples; 0
/// for none.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method). Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    let n = 4i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *q = (d[(j - 1) as usize] * (n - delta) as f64 + d[j as usize] * delta as f64) / n as f64;
    }
    out
}

/// Median of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let mid = d.len() / 2;
    if d.len() % 2 == 1 {
        d[mid]
    } else {
        (d[mid - 1] + d[mid]) / 2.0
    }
}

/// Interquartile range over the median (Python quartiles); 0 when the
/// median is 0.
pub fn iqr_over_median(samples: &[f64]) -> f64 {
    let q = quartiles(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&d), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut d: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut d, 50.0), 50.0);
        assert_eq!(percentile(&mut d, 99.0), 99.0);
        assert_eq!(percentile(&mut d, 100.0), 100.0);
        assert_eq!(percentile(&mut d, 0.0), 1.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&d) - 5.5 / 5.5).abs() < 1e-12);
    }
}
