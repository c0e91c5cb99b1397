//! Zipf-distributed rank sampling by inverse CDF.

use simnet::rng::DetRng;

/// Samples ranks `0..n` with probability proportional to `1 / (rank + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero ranks");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_zero_is_most_frequent_and_all_ranks_are_reachable() {
        let z = Zipf::new(8, 1.0);
        let mut rng = DetRng::new(7);
        let mut counts = [0u32; 8];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
    }
}
