//! Order statistics of the latency windows and the run-level medians.

/// Median of `values`, averaging the middle two for an even count;
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u32], q: f64) -> u32 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Latency summary of one measurement window.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Median latency, ns.
    pub p50: u32,
    /// 99th-percentile latency, ns.
    pub p99: u32,
    /// Samples strictly above `p99`.
    pub beyond_p99: u64,
}

/// Summarises one window's latencies, sorting them in place; `None`
/// when the window is empty.
pub fn window_stats(latencies: &mut [u32]) -> Option<WindowStats> {
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_unstable();
    let p99 = percentile(latencies, 0.99);
    let beyond = latencies.len() - latencies.partition_point(|&x| x <= p99);
    Some(WindowStats {
        p50: percentile(latencies, 0.50),
        p99,
        beyond_p99: beyond as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        let s = window_stats(&mut v).expect("non-empty");
        assert_eq!((s.p50, s.p99, s.beyond_p99), (50, 99, 1));
        assert_eq!(percentile(&[7], 0.99), 7);
        assert!(window_stats(&mut []).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
