//! The Similarity-Aware Graph Filter (§4.3): marks nodes whose memories
//! have stabilized so the TG-Diffuser can ignore their temporal
//! dependencies.

use cascade_models::MemoryDelta;
use cascade_tensor::cosine_similarity;

/// Tracks per-node stable flags from memory-update similarities.
///
/// After each batch's memory updates, the filter compares every updated
/// node's memory before and after the update; cosine similarity at or
/// above `theta` marks the node stable, below clears the flag (Figure 8a).
/// Flags reset to all-false at every epoch start (§4.1).
///
/// # Examples
///
/// ```
/// use cascade_core::SgFilter;
/// use cascade_models::MemoryDelta;
/// use cascade_tgraph::NodeId;
///
/// let mut filter = SgFilter::new(4, 0.9);
/// filter.observe(&[MemoryDelta {
///     node: NodeId(2),
///     pre: vec![1.0, 0.0],
///     post: vec![1.0, 0.01],
/// }]);
/// assert!(filter.flags()[2]);
/// ```
#[derive(Clone, Debug)]
pub struct SgFilter {
    flags: Vec<bool>,
    theta: f32,
    epoch_updates: usize,
    epoch_stable: usize,
}

impl SgFilter {
    /// Creates a filter for `num_nodes` nodes with similarity threshold
    /// `theta` (the paper's default is 0.9).
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not in `[0, 1]`.
    pub fn new(num_nodes: usize, theta: f32) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
        SgFilter {
            flags: vec![false; num_nodes],
            theta,
            epoch_updates: 0,
            epoch_stable: 0,
        }
    }

    /// The similarity threshold θ_sim.
    pub fn theta(&self) -> f32 {
        self.theta
    }

    /// Current stable flags, one per node.
    pub fn flags(&self) -> &[bool] {
        &self.flags
    }

    /// Number of nodes currently flagged stable.
    pub fn stable_count(&self) -> usize {
        self.flags.iter().filter(|&&f| f).count()
    }

    /// Updates flags from a batch's memory transitions (Figure 8a):
    /// `sim(s⁻, s⁺) > θ` sets the flag, otherwise clears it.
    pub fn observe(&mut self, deltas: &[MemoryDelta]) {
        for d in deltas {
            let sim = cosine_similarity(&d.pre, &d.post);
            let stable = sim >= self.theta;
            self.flags[d.node.index()] = stable;
            self.epoch_updates = self.epoch_updates.saturating_add(1);
            if stable {
                self.epoch_stable = self.epoch_stable.saturating_add(1);
            }
        }
    }

    /// Fraction of this epoch's memory updates that were stable — the
    /// quantity Figure 5 plots per epoch.
    pub fn epoch_stable_ratio(&self) -> f64 {
        if self.epoch_updates == 0 {
            return 0.0;
        }
        self.epoch_stable as f64 / self.epoch_updates as f64
    }

    /// Resets flags and epoch counters (start of each epoch, §4.1).
    pub fn reset(&mut self) {
        self.flags.fill(false);
        self.epoch_updates = 0;
        self.epoch_stable = 0;
    }

    /// Bytes held by the stable flags (the "SF" bar of Figure 13(c)).
    pub fn size_bytes(&self) -> usize {
        self.flags.len()
    }

    /// Epoch counters behind
    /// [`epoch_stable_ratio`](SgFilter::epoch_stable_ratio):
    /// `(epoch_updates, epoch_stable)`.
    pub fn epoch_counters(&self) -> (usize, usize) {
        (self.epoch_updates, self.epoch_stable)
    }

    /// Restores flags and epoch counters from a mid-stream checkpoint.
    ///
    /// # Errors
    ///
    /// Returns a description when `flags` has the wrong node count.
    pub fn restore(
        &mut self,
        flags: &[bool],
        epoch_updates: usize,
        epoch_stable: usize,
    ) -> Result<(), String> {
        if flags.len() != self.flags.len() {
            return Err(format!(
                "stable-flag count mismatch: checkpoint has {}, filter has {}",
                flags.len(),
                self.flags.len()
            ));
        }
        self.flags.copy_from_slice(flags);
        self.epoch_updates = epoch_updates;
        self.epoch_stable = epoch_stable;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_tgraph::NodeId;

    fn delta(node: u32, pre: Vec<f32>, post: Vec<f32>) -> MemoryDelta {
        MemoryDelta {
            node: NodeId(node),
            pre,
            post,
        }
    }

    #[test]
    fn similar_update_sets_flag() {
        let mut f = SgFilter::new(3, 0.9);
        f.observe(&[delta(1, vec![1.0, 0.0], vec![0.99, 0.05])]);
        assert!(f.flags()[1]);
        assert!(!f.flags()[0]);
    }

    #[test]
    fn dissimilar_update_clears_flag() {
        let mut f = SgFilter::new(2, 0.9);
        f.observe(&[delta(0, vec![1.0, 0.0], vec![1.0, 0.0])]);
        assert!(f.flags()[0]);
        f.observe(&[delta(0, vec![1.0, 0.0], vec![0.0, 1.0])]);
        assert!(!f.flags()[0], "orthogonal update must clear the flag");
    }

    #[test]
    fn threshold_zero_marks_everything() {
        let mut f = SgFilter::new(2, 0.0);
        f.observe(&[delta(0, vec![1.0, 0.0], vec![0.0, 1.0])]);
        assert!(f.flags()[0]);
    }

    #[test]
    fn threshold_one_requires_identical_direction() {
        let mut f = SgFilter::new(2, 1.0);
        f.observe(&[delta(0, vec![1.0, 0.0], vec![2.0, 0.0])]);
        assert!(f.flags()[0]); // same direction, sim = 1
        f.observe(&[delta(0, vec![1.0, 0.0], vec![1.0, 0.2])]);
        assert!(!f.flags()[0]);
    }

    #[test]
    fn epoch_ratio_counts_updates_not_nodes() {
        let mut f = SgFilter::new(3, 0.9);
        f.observe(&[
            delta(0, vec![1.0, 0.0], vec![1.0, 0.0]), // stable
            delta(0, vec![1.0, 0.0], vec![0.0, 1.0]), // unstable (same node)
            delta(1, vec![1.0, 0.0], vec![1.0, 0.0]), // stable
            delta(2, vec![0.0, 1.0], vec![1.0, 0.0]), // unstable
        ]);
        assert!((f.epoch_stable_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_flags_and_counters() {
        let mut f = SgFilter::new(2, 0.9);
        f.observe(&[delta(0, vec![1.0], vec![1.0])]);
        f.reset();
        assert_eq!(f.stable_count(), 0);
        assert_eq!(f.epoch_stable_ratio(), 0.0);
    }

    #[test]
    fn zero_memory_counts_stable() {
        // A node whose memory stayed at zero is by definition unchanged.
        let mut f = SgFilter::new(1, 0.9);
        f.observe(&[delta(0, vec![0.0, 0.0], vec![0.0, 0.0])]);
        assert!(f.flags()[0]);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn rejects_bad_theta() {
        let _ = SgFilter::new(1, 1.5);
    }
}
