//! Workload execution and measurement.

use lll_core::cost::CostSeries;
use lll_core::ids::IdGen;
use lll_core::traits::ListLabeling;
use lll_workloads::Workload;
use std::time::Instant;

/// The measured outcome of running one workload on one structure.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Structure name.
    pub structure: String,
    /// Workload name.
    pub workload: String,
    /// Every operation's cost in element moves, in order.
    pub series: CostSeries,
    /// Wall-clock seconds for the whole run.
    pub seconds: f64,
}

impl RunResult {
    /// Operations run.
    pub fn ops(&self) -> usize {
        self.series.len()
    }

    /// Total element moves.
    pub fn total(&self) -> u64 {
        self.series.costs().iter().map(|&c| u64::from(c)).sum()
    }

    /// Amortized element moves per operation.
    pub fn amortized(&self) -> f64 {
        if self.ops() == 0 {
            0.0
        } else {
            self.total() as f64 / self.ops() as f64
        }
    }

    /// Worst single-operation cost.
    pub fn max_op(&self) -> u64 {
        self.series.costs().iter().max().map_or(0, |&c| c.into())
    }

    /// Operations per second (wall clock).
    pub fn ops_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops() as f64 / self.seconds
        } else {
            f64::INFINITY
        }
    }

    /// Verify the light-amortization shape: for every window length `w` in
    /// `windows`, check `max_window_total(w) ≤ c·(w·C + n)` and return the
    /// worst ratio `max_window_total / (w·C + n)` observed.
    pub fn light_amortization_ratio(&self, per_op: f64, n: usize, windows: &[usize]) -> f64 {
        windows
            .iter()
            .map(|&w| {
                let bound = w as f64 * per_op + n as f64;
                self.series.max_window_total(w) as f64 / bound
            })
            .fold(0.0, f64::max)
    }
}

/// Run `workload` on `structure`, recording per-operation costs.
pub fn run_workload<L: ListLabeling>(structure: &mut L, workload: &Workload) -> RunResult {
    assert!(
        structure.capacity() >= workload.peak,
        "structure capacity {} < workload peak {}",
        structure.capacity(),
        workload.peak
    );
    let mut series = CostSeries::new();
    let mut ids = IdGen::new();
    let start = Instant::now();
    for &op in &workload.ops {
        series.push(structure.apply(op, &mut ids).cost());
    }
    RunResult {
        structure: structure.name().to_string(),
        workload: workload.name.clone(),
        series,
        seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_classic::ClassicBuilder;
    use lll_core::traits::LabelingBuilder;
    use lll_workloads::uniform_random_inserts;

    #[test]
    fn run_collects_costs() {
        let w = uniform_random_inserts(200, 1);
        let mut pma = ClassicBuilder.build(w.peak, w.peak * 13 / 10);
        let r = run_workload(&mut pma, &w);
        assert_eq!(r.ops(), 200);
        assert!(r.amortized() >= 1.0);
        assert!(r.max_op() >= 1);
    }

    #[test]
    fn light_amortization_ratio_is_finite() {
        let w = uniform_random_inserts(300, 2);
        let mut pma = ClassicBuilder.build(w.peak, w.peak * 13 / 10);
        let r = run_workload(&mut pma, &w);
        let ratio = r.light_amortization_ratio(10.0, w.peak, &[10, 50, 100]);
        assert!(ratio.is_finite() && ratio >= 0.0);
    }
}
