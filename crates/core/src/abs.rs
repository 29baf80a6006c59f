//! The Adaptive Batch Sensor (§4.4): profiles Maximum Revisit Endurance
//! statistics at the preset small batch size and decays `Max_r`
//! logarithmically when training stops converging (Equations 5–7).

use cascade_tgraph::DetRng;

use crate::dependency::DependencyTable;

/// Endurance statistics gathered by Maximum Endurance Profiling
/// (Figure 9).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnduranceStats {
    /// Largest per-batch Max Endurance observed (`mr_max`).
    pub max: usize,
    /// Mean per-batch Max Endurance (`mr_mean`).
    pub mean: f64,
    /// Smallest per-batch Max Endurance (`mr_min`).
    pub min: usize,
    /// Number of batches under the preset batch size (`B`).
    pub batch_count: usize,
}

/// Profiles the input and adaptively tunes `Max_r` for the TG-Diffuser.
///
/// # Profiling
///
/// The stream is segmented at the preset small batch size; for a random
/// sample of batches, each node's *relevant-event count* (its
/// dependency-table entries falling inside the batch) is computed, and the
/// batch's Max Endurance is the largest such count. `mr_max`, `mr_mean`,
/// `mr_min` summarize the sample.
///
/// # Decay schedule
///
/// `Max_r` starts at `2·mr_mean` (clamped into `[mr_min, mr_max]` — the
/// paper's Equation 7 has min/max transposed; the evident intent is an
/// interval clamp). When the training loss has not improved for
/// `patience` batches, checked every `decay_period` batches, `Max_r`
/// decays following Equation 5:
///
/// ```text
/// Max_r(i) = 2·mr_mean − α·log(i/β + 1),   α = mr_min²/mr_max,  β = B/α
/// ```
#[derive(Clone, Debug)]
pub struct Abs {
    stats: EnduranceStats,
    patience: usize,
    decay_period: usize,
    best_loss: f32,
    batches_since_improvement: usize,
}

impl Abs {
    /// Number of batches sampled during profiling (the paper samples 50).
    pub const PROFILE_SAMPLES: usize = 50;

    /// Profiles `table` over `num_events` training events at the preset
    /// `batch_size` and constructs the sensor.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `num_events == 0`.
    pub fn profile(
        table: &DependencyTable,
        num_events: usize,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        let stats = max_endurance_profiling(table, num_events, batch_size, seed);
        Abs {
            stats,
            patience: 10,
            decay_period: 20,
            best_loss: f32::INFINITY,
            batches_since_improvement: 0,
        }
    }

    /// Builds a sensor from precomputed statistics (tests, ablations).
    pub fn from_stats(stats: EnduranceStats) -> Self {
        Abs {
            stats,
            patience: 10,
            decay_period: 20,
            best_loss: f32::INFINITY,
            batches_since_improvement: 0,
        }
    }

    /// The profiled endurance statistics.
    pub fn stats(&self) -> EnduranceStats {
        self.stats
    }

    /// The initial `Max_r`: `2·mr_mean`, clamped (Equation 5 at `i = 0`).
    pub fn initial_max_r(&self) -> usize {
        self.clamp(2.0 * self.stats.mean)
    }

    /// Observes a batch's training loss; returns a new `Max_r` when the
    /// logarithmic decay triggers (loss stalled for `patience` batches and
    /// `batch_idx` is a `decay_period` boundary), else `None`.
    pub fn on_batch(&mut self, batch_idx: usize, train_loss: f32) -> Option<usize> {
        if train_loss < self.best_loss - 1e-6 {
            self.best_loss = train_loss;
            self.batches_since_improvement = 0;
            return None;
        }
        self.batches_since_improvement = self.batches_since_improvement.saturating_add(1);
        let at_checkpoint = batch_idx > 0 && batch_idx.is_multiple_of(self.decay_period);
        if at_checkpoint && self.batches_since_improvement >= self.patience {
            self.batches_since_improvement = 0;
            Some(self.decayed_max_r(batch_idx))
        } else {
            None
        }
    }

    /// Equation 5 evaluated at batch `i`, clamped by Equation 7.
    pub fn decayed_max_r(&self, i: usize) -> usize {
        let alpha =
            (self.stats.min as f64 * self.stats.min as f64) / (self.stats.max as f64).max(1.0);
        let beta = self.stats.batch_count as f64 / alpha.max(1e-9);
        let raw = 2.0 * self.stats.mean - alpha * ((i as f64 / beta.max(1e-9)) + 1.0).ln();
        self.clamp(raw)
    }

    /// Resets the convergence monitor (epoch start).
    pub fn reset_epoch(&mut self) {
        self.best_loss = f32::INFINITY;
        self.batches_since_improvement = 0;
    }

    /// Snapshot of the convergence monitor, for mid-stream checkpoints:
    /// `(best_loss, batches_since_improvement)`.
    pub fn convergence_state(&self) -> (f32, usize) {
        (self.best_loss, self.batches_since_improvement)
    }

    /// Restores a snapshot captured by
    /// [`convergence_state`](Abs::convergence_state).
    pub fn restore_convergence_state(&mut self, best_loss: f32, batches_since_improvement: usize) {
        self.best_loss = best_loss;
        self.batches_since_improvement = batches_since_improvement;
    }

    fn clamp(&self, raw: f64) -> usize {
        let lo = self.stats.min.max(1);
        // Equation 7 as printed (`max(mr_max, min(mr_min, Max_r))`) is
        // self-contradictory: it would immediately discard the paper's own
        // initial value of 2·mr_mean whenever that exceeds mr_max. The
        // evident intent is that the initial value is always admissible
        // and the decay moves within [mr_min, max(mr_max, 2·mr_mean)].
        let hi = self
            .stats
            .max
            .max((2.0 * self.stats.mean).ceil() as usize)
            .max(lo);
        (raw.round() as i64).clamp(lo as i64, hi as i64) as usize
    }
}

/// Maximum Endurance Profiling (Figure 9): segments the stream into
/// `batch_size` windows, samples up to [`Abs::PROFILE_SAMPLES`] of them,
/// and summarizes the per-batch maxima of per-node relevant-event counts.
///
/// # Panics
///
/// Panics if `batch_size == 0` or `num_events == 0`.
pub fn max_endurance_profiling(
    table: &DependencyTable,
    num_events: usize,
    batch_size: usize,
    seed: u64,
) -> EnduranceStats {
    assert!(batch_size > 0, "batch_size must be positive");
    assert!(num_events > 0, "cannot profile an empty stream");
    let batch_count = num_events.div_ceil(batch_size);
    let mut rng = DetRng::new(seed);

    // Sample batch indices without replacement (or all, if few).
    let mut indices: Vec<usize> = (0..batch_count).collect();
    if batch_count > Abs::PROFILE_SAMPLES {
        // Partial Fisher–Yates.
        for i in 0..Abs::PROFILE_SAMPLES {
            let j = i + rng.index(batch_count - i);
            indices.swap(i, j);
        }
        indices.truncate(Abs::PROFILE_SAMPLES);
    }

    let mut maxima = Vec::with_capacity(indices.len());
    for &b in &indices {
        let lo = table.base() + b * batch_size;
        let hi = (lo + batch_size).min(table.base() + num_events);
        let mut batch_max = 0usize;
        for n in 0..table.num_nodes() {
            let from = table.entry_lower_bound(n, lo);
            let to = table.entry_lower_bound(n, hi);
            batch_max = batch_max.max(to - from);
        }
        maxima.push(batch_max.max(1));
    }

    let max = maxima.iter().copied().max().unwrap_or(1);
    let min = maxima.iter().copied().min().unwrap_or(1);
    let mean = maxima.iter().sum::<usize>() as f64 / maxima.len() as f64;
    EnduranceStats {
        max,
        mean,
        min,
        batch_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_tgraph::Event;

    fn figure9_table() -> DependencyTable {
        // Figure 9 reuses the Figure 7 event list.
        let pairs = [
            (1, 2),
            (1, 7),
            (1, 8),
            (1, 9),
            (10, 11),
            (10, 12),
            (10, 13),
            (10, 4),
            (1, 3),
            (1, 5),
            (1, 6),
            (3, 4),
        ];
        let events: Vec<Event> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| Event::new(s as u32, d as u32, i as f64))
            .collect();
        DependencyTable::build(&events, 14)
    }

    #[test]
    fn figure9_profile_matches_paper() {
        // With batch size 4 over 12 events, every batch has Max
        // Endurance 4, so mean = 4 and batch count = 3.
        let stats = max_endurance_profiling(&figure9_table(), 12, 4, 0);
        assert_eq!(stats.batch_count, 3);
        assert_eq!(stats.max, 4);
        assert_eq!(stats.min, 4);
        assert!((stats.mean - 4.0).abs() < 1e-9);
    }

    #[test]
    fn initial_max_r_is_twice_mean_clamped() {
        let abs = Abs::from_stats(EnduranceStats {
            max: 20,
            mean: 6.0,
            min: 2,
            batch_count: 100,
        });
        assert_eq!(abs.initial_max_r(), 12);

        // The initial value 2·mean is admissible even above mr_max (the
        // paper's Equation 7 as printed would contradict its own initial
        // value; see the clamp's comment).
        let abs = Abs::from_stats(EnduranceStats {
            max: 10,
            mean: 8.0,
            min: 2,
            batch_count: 100,
        });
        assert_eq!(abs.initial_max_r(), 16);
    }

    #[test]
    fn decay_is_monotone_and_bounded() {
        let abs = Abs::from_stats(EnduranceStats {
            max: 30,
            mean: 10.0,
            min: 3,
            batch_count: 50,
        });
        let mut last = usize::MAX;
        for i in [0, 10, 100, 1000, 100000] {
            let r = abs.decayed_max_r(i);
            assert!(r <= last, "decay increased at {}", i);
            assert!((3..=30).contains(&r), "out of clamp range: {}", r);
            last = r;
        }
    }

    #[test]
    fn improving_loss_never_triggers_decay() {
        let mut abs = Abs::from_stats(EnduranceStats {
            max: 30,
            mean: 10.0,
            min: 3,
            batch_count: 50,
        });
        let mut loss = 10.0;
        for i in 1..200 {
            loss *= 0.99;
            assert_eq!(abs.on_batch(i, loss), None);
        }
    }

    #[test]
    fn stalled_loss_triggers_decay_at_period() {
        let mut abs = Abs::from_stats(EnduranceStats {
            max: 30,
            mean: 10.0,
            min: 3,
            batch_count: 50,
        });
        abs.on_batch(0, 1.0); // establish best loss
        let mut triggered_at = None;
        for i in 1..100 {
            if abs.on_batch(i, 1.0).is_some() {
                triggered_at = Some(i);
                break;
            }
        }
        // Stall begins at batch 1; patience 10 is exceeded by batch 11,
        // and the next decay-period boundary is batch 20.
        assert_eq!(triggered_at, Some(20));
    }

    #[test]
    fn decayed_value_applied_is_less_than_initial() {
        // α = mr_min²/mr_max is large when min approaches max, making the
        // decay visible within a few thousand batches.
        let abs = Abs::from_stats(EnduranceStats {
            max: 10,
            mean: 5.0,
            min: 6,
            batch_count: 30,
        });
        assert!(abs.decayed_max_r(10_000) < abs.initial_max_r());
    }

    #[test]
    fn profiling_deterministic() {
        let t = figure9_table();
        let a = max_endurance_profiling(&t, 12, 3, 7);
        let b = max_endurance_profiling(&t, 12, 3, 7);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn rejects_empty_profile() {
        let t = DependencyTable::build(&[], 2);
        let _ = max_endurance_profiling(&t, 0, 4, 0);
    }
}
