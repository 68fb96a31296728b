//! Cost accounting in the paper's model (element moves per operation).
//!
//! [`CostSeries`] keeps every operation's cost in order: exact tails and
//! window sums are read off it, and so are a run's total, amortized and
//! worst-operation costs (`lll_bench::RunResult`).

/// A recorded per-operation cost series, for offline analysis
/// (light-amortization window checks, tail plots, crossover detection).
#[derive(Clone, Debug, Default)]
pub struct CostSeries {
    costs: Vec<u32>,
}

impl CostSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one cost (saturating at u32::MAX).
    #[inline]
    pub fn push(&mut self, cost: u64) {
        self.costs.push(cost.min(u32::MAX as u64) as u32);
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True if nothing recorded.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Raw costs.
    pub fn costs(&self) -> &[u32] {
        &self.costs
    }

    /// Total cost over `[a, b)`.
    pub fn window_total(&self, a: usize, b: usize) -> u64 {
        self.costs[a..b].iter().map(|&c| c as u64).sum()
    }

    /// The maximum total cost over any window of length `w`, used to verify
    /// light amortization: a structure with lightly-amortized cost C must
    /// satisfy `max_window_total(w) = O(w·C + n)` for every w.
    pub fn max_window_total(&self, w: usize) -> u64 {
        if self.costs.is_empty() || w == 0 {
            return 0;
        }
        let w = w.min(self.costs.len());
        let mut sum: u64 = self.costs[..w].iter().map(|&c| c as u64).sum();
        let mut best = sum;
        for i in w..self.costs.len() {
            sum += self.costs[i] as u64;
            sum -= self.costs[i - w] as u64;
            best = best.max(sum);
        }
        best
    }

    /// Fraction of operations with cost > threshold (exact).
    pub fn tail_fraction(&self, threshold: u32) -> f64 {
        if self.costs.is_empty() {
            return 0.0;
        }
        let above = self.costs.iter().filter(|&&c| c > threshold).count();
        above as f64 / self.costs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_windows() {
        let mut s = CostSeries::new();
        for c in [1u64, 10, 1, 1, 10, 1] {
            s.push(c);
        }
        assert_eq!(s.window_total(0, 3), 12);
        assert_eq!(s.max_window_total(2), 11);
        assert_eq!(s.max_window_total(100), 24);
        assert!((s.tail_fraction(5) - 2.0 / 6.0).abs() < 1e-9);
    }
}
