//! The smoothing function Γ of §3.6.
//!
//! > "A smoothing function is defined that finds a single representative
//! > value for a sequence of values. As each new value is added to the
//! > sequence, this representative value is updated. For the first *i*
//! > values of a sequence a₁, a₂, …, this representative value would be
//! > denoted Γ_{aᵢ}, and defined recursively as
//! > Γ_{aᵢ} = Γ_{aᵢ₋₁} + ν(aᵢ − Γ_{aᵢ₋₁}) … where we let Γ_{a₀} = a₁."
//!
//! This is exponential smoothing with factor ν ∈ [0, 1]: ν = 0 freezes the
//! first observation, ν = 1 tracks the latest observation exactly. The PN
//! scheduler applies it to per-link communication costs, per-processor
//! execution-rate reports, and the batch-size signal s_p (§3.7).

/// Exponentially smoothed representative value of a scalar sequence.
///
/// ```
/// use dts_model::Smoother;
/// let mut s = Smoother::new(0.5);
/// assert_eq!(s.observe(10.0), 10.0); // Γ_{a0} = a1
/// assert_eq!(s.observe(20.0), 15.0);
/// assert_eq!(s.observe(15.0), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Smoother {
    nu: f64,
    value: Option<f64>,
}

impl Smoother {
    /// Creates a smoother with factor `nu`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ nu ≤ 1` (the paper defines ν on `[0, 1]`).
    pub fn new(nu: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&nu),
            "smoothing factor {nu} not in [0,1]"
        );
        Self { nu, value: None }
    }

    /// Feeds one observation and returns the updated representative value.
    ///
    /// The first observation initialises the smoother (Γ_{a₀} = a₁).
    pub fn observe(&mut self, a: f64) -> f64 {
        let v = match self.value {
            None => a,
            Some(prev) => prev + self.nu * (a - prev),
        };
        self.value = Some(v);
        v
    }

    /// The current representative value, if any observation has been made.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The current value, or `default` before the first observation.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_initialises() {
        let mut s = Smoother::new(0.3);
        assert_eq!(s.value(), None);
        assert_eq!(s.observe(42.0), 42.0);
        assert_eq!(s.value(), Some(42.0));
    }

    #[test]
    fn nu_zero_freezes_first_value() {
        let mut s = Smoother::new(0.0);
        s.observe(5.0);
        s.observe(100.0);
        s.observe(-7.0);
        assert_eq!(s.value(), Some(5.0));
    }

    #[test]
    fn nu_one_tracks_latest() {
        let mut s = Smoother::new(1.0);
        s.observe(5.0);
        s.observe(100.0);
        assert_eq!(s.value(), Some(100.0));
    }

    #[test]
    fn stays_within_observation_hull() {
        // Smoothed value is a convex combination, so it never escapes the
        // [min, max] hull of the observations.
        let mut s = Smoother::new(0.25);
        let xs = [3.0, 9.0, 4.5, 8.0, 1.0, 7.0];
        let (lo, hi) = (1.0, 9.0);
        for x in xs {
            let v = s.observe(x);
            assert!((lo..=hi).contains(&v), "{v} escaped [{lo}, {hi}]");
        }
    }

    #[test]
    fn converges_to_constant_input() {
        let mut s = Smoother::new(0.5);
        s.observe(0.0);
        for _ in 0..64 {
            s.observe(10.0);
        }
        assert!((s.value().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn value_or_default() {
        let s = Smoother::new(0.5);
        assert_eq!(s.value_or(7.0), 7.0);
        let mut s2 = s;
        s2.observe(1.0);
        assert_eq!(s2.value_or(7.0), 1.0);
    }

    #[test]
    #[should_panic]
    fn invalid_nu_rejected() {
        let _ = Smoother::new(1.5);
    }
}
