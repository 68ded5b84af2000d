//! Order statistics over measured samples.

use tpi_obs::HistogramSnapshot;

/// The nearest-rank `q`-quantile (0..=1) of `values`: the smallest
/// sample with at least a `q` share of the samples at or below it, so
/// the result is always a measured value. `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `q`-quantile of a log₂-µs histogram in milliseconds, linearly
/// interpolated inside the bucket that holds the rank (bucket `i`
/// spans `[2^(i-1), 2^i)` µs).
pub fn histogram_quantile_ms(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * h.count as f64;
    let mut below = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 && (below + n) as f64 >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << (i - 1)) as f64 };
            let hi = ((1u64 << i) as f64).min(h.max_micros.max(1) as f64).max(lo);
            let frac = (rank - below as f64) / n as f64;
            return (lo + (hi - lo) * frac) / 1000.0;
        }
        below += n;
    }
    h.max_micros as f64 / 1000.0
}

/// Sums two histograms bucket by bucket (one per backend).
pub fn merge(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = *a;
    for (o, x) in out.buckets.iter_mut().zip(b.buckets.iter()) {
        *o += x;
    }
    out.count += b.count;
    out.sum_micros += b.sum_micros;
    out.max_micros = out.max_micros.max(b.max_micros);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_take_the_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(quantile(&v, 0.9), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_median_lands_in_its_bucket() {
        let mut h = HistogramSnapshot::default();
        for us in [100, 110, 120, 3000] {
            h.observe_micros(us);
        }
        let p50 = histogram_quantile_ms(&h, 0.5);
        assert!((0.064..=0.128).contains(&p50), "{p50}");
    }
}
