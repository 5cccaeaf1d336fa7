//! Dynamic batch sizing (§3.7).
//!
//! > "We wish to define batch sizes that are large enough so that the
//! > processor hosting the scheduler is utilized fully (and to achieve low
//! > makespans), but not too large that any processors become idle before
//! > the schedule has been fully computed. … After the pth batch has been
//! > scheduled, the first processor will become idle after
//! > s_p = minⱼ (δⱼ / Pⱼ) … We choose H_{p+1} = ⌊(Γ_{s_p} + 1)^{1/2}⌋ as a
//! > simple approximation of the optimal size for batch p+1."
//!
//! The tension the rule balances: the GA takes Θ(H²) time, so doubling the
//! batch quadruples scheduling latency while the shortest queue only grows
//! linearly. Taking the square root of the (smoothed) idle horizon keeps
//! the two in step. We add a configurable linear `scale` on top of the
//! paper's rule (ARCHITECTURE.md, "Deviations from the paper") because the
//! raw `⌊√(Γs+1)⌋` produces single-digit batches for second-scale horizons.

use dts_model::Smoother;

/// Tracks the smoothed idle-horizon signal and produces the next batch
/// size.
#[derive(Debug, Clone)]
pub struct BatchSizer {
    smoother: Smoother,
    scale: f64,
    initial: usize,
    max: usize,
}

impl BatchSizer {
    /// Creates a sizer.
    ///
    /// * `nu` — smoothing factor for Γ(s_p);
    /// * `scale` — linear multiplier on the √ rule;
    /// * `initial` — batch size used before any signal exists;
    /// * `max` — hard cap.
    pub fn new(nu: f64, scale: f64, initial: usize, max: usize) -> Self {
        assert!(initial >= 1 && max >= 1 && scale > 0.0);
        Self {
            smoother: Smoother::new(nu),
            scale,
            initial: initial.min(max),
            max,
        }
    }

    /// Records the post-assignment idle horizon `s_p = minⱼ(δⱼ/Pⱼ)` of the
    /// batch just planned.
    pub fn observe_idle_horizon(&mut self, s_p: f64) {
        self.smoother.observe(s_p.max(0.0));
    }

    /// The size for the next batch: `⌊ scale · √(Γ(s) + 1) ⌋`, clamped to
    /// `[1, max]`; the configured `initial` before any observation.
    pub fn next_batch_size(&self) -> usize {
        match self.smoother.value() {
            None => self.initial,
            Some(gamma) => {
                let h = (self.scale * (gamma + 1.0).sqrt()).floor() as usize;
                h.clamp(1, self.max)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_size_before_signal() {
        let b = BatchSizer::new(0.5, 40.0, 200, 1000);
        assert_eq!(b.next_batch_size(), 200);
    }

    #[test]
    fn paper_rule_with_unit_scale() {
        // With scale = 1 the rule is exactly ⌊√(Γs+1)⌋; a constant signal
        // of 99 seconds gives ⌊√100⌋ = 10.
        let mut b = BatchSizer::new(1.0, 1.0, 200, 1000);
        b.observe_idle_horizon(99.0);
        assert_eq!(b.next_batch_size(), 10);
    }

    #[test]
    fn batch_grows_with_idle_horizon() {
        let mut b = BatchSizer::new(1.0, 40.0, 200, 100_000);
        b.observe_idle_horizon(1.0);
        let small = b.next_batch_size();
        b.observe_idle_horizon(400.0);
        let large = b.next_batch_size();
        assert!(large > small, "{large} should exceed {small}");
    }

    #[test]
    fn clamped_to_max_and_min() {
        let mut b = BatchSizer::new(1.0, 40.0, 200, 500);
        b.observe_idle_horizon(1e9);
        assert_eq!(b.next_batch_size(), 500);
        let mut tiny = BatchSizer::new(1.0, 0.001, 200, 500);
        tiny.observe_idle_horizon(0.0);
        assert_eq!(tiny.next_batch_size(), 1);
    }

    #[test]
    fn smoothing_damps_spikes() {
        let mut b = BatchSizer::new(0.1, 1.0, 200, 100_000);
        b.observe_idle_horizon(100.0);
        let baseline = b.next_batch_size();
        // One huge spike, ν = 0.1: the smoothed value barely moves.
        b.observe_idle_horizon(10_000.0);
        let after_spike = b.next_batch_size();
        assert!(after_spike < baseline * 4, "{after_spike} vs {baseline}");
    }

    #[test]
    fn negative_horizons_are_clamped() {
        let mut b = BatchSizer::new(1.0, 1.0, 200, 500);
        b.observe_idle_horizon(-5.0);
        assert_eq!(b.next_batch_size(), 1); // ⌊√1⌋
    }

    #[test]
    fn initial_respects_max() {
        let b = BatchSizer::new(0.5, 40.0, 200, 50);
        assert_eq!(b.next_batch_size(), 50);
    }
}
