//! Order statistics.

/// Nearest-rank percentile (`p` in `[0, 1]`) of an unsorted sample;
/// 0 for an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples grouped by the step (iteration, phase, cycle) they came from,
/// so that a run's percentile can be taken per window of consecutive
/// steps and the windows' median reported: one stalled step then moves
/// one window, not the run's figure.
#[derive(Debug, Default, Clone)]
pub struct Windowed {
    steps: Vec<Vec<f64>>,
}

impl Windowed {
    /// Start a new step.
    pub fn begin_step(&mut self) {
        self.steps.push(Vec::new());
    }

    /// Record one sample in the current step.
    pub fn push(&mut self, v: f64) {
        if self.steps.is_empty() {
            self.begin_step();
        }
        self.steps.last_mut().expect("a step").push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The median over `windows` equal runs of consecutive steps of each
    /// window's `p` percentile (fewer windows when there are fewer
    /// steps).
    pub fn windowed_percentile(&self, p: f64, windows: usize) -> f64 {
        let steps: Vec<&Vec<f64>> = self.steps.iter().filter(|s| !s.is_empty()).collect();
        if steps.is_empty() {
            return 0.0;
        }
        let w = windows.clamp(1, steps.len());
        let per_window: Vec<f64> = (0..w)
            .map(|i| {
                let lo = i * steps.len() / w;
                let hi = (i + 1) * steps.len() / w;
                let pooled: Vec<f64> = steps[lo..hi]
                    .iter()
                    .flat_map(|s| s.iter().copied())
                    .collect();
                percentile(&pooled, p)
            })
            .collect();
        median(&per_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_median_ignores_one_bad_window() {
        let mut w = Windowed::default();
        for step in 0..10 {
            w.begin_step();
            for i in 0..100 {
                w.push(if step == 3 { 1e6 } else { f64::from(i) });
            }
        }
        assert_eq!(w.windowed_percentile(0.99, 10), 98.0);
        assert_eq!(w.len(), 1000);
    }
}
