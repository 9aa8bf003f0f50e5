//! Density-driven interest-grid resolution auto-tuning.
//!
//! The spatial-hash grid's `cells_per_axis` is a classic static knob:
//! too coarse and every query scans a crowd, too fine and per-move
//! bookkeeping plus empty-cell walks dominate. The right value depends
//! on the *observed* subscriber count, which changes by orders of
//! magnitude over a region's life (a freshly split child starts near
//! empty; a flash crowd packs thousands in). [`AutoTuner`] closes that
//! loop: it watches the subscriber count and re-picks the resolution so
//! the average cell holds roughly [`AutoTuner::TARGET_PER_CELL`]
//! subscribers. The only switch is `grid_autotune`; the guard constants
//! below are fixed.
//!
//! Two guards keep it from thrashing, mirroring the middleware's own
//! anti-oscillation heuristics (§3.2.3 of the paper):
//!
//! * **ratio hysteresis** — a retune is only *proposed* when the ideal
//!   resolution differs from the current one by at least
//!   [`AutoTuner::HYSTERESIS`] (1.5×). Resolutions are quantised to powers of
//!   two, and the proposal threshold sits strictly inside the
//!   quantisation band (√2 ≈ 1.41 < 1.5), so density jitter around a
//!   rounding boundary can never flip the choice;
//! * **streak** — the proposal must repeat on [`AutoTuner::STREAK`] consecutive
//!   observations before the grid is actually rebuilt (rebuilds
//!   re-index every subscriber, so they are rare by design).
//!
//! The tuner's state is two integers, exported via
//! [`AutoTuner::state`] and restored with [`AutoTuner::restore`] — the
//! region-snapshot path ships them to the warm standby so a promoted
//! server inherits the tuned grid instead of re-learning the density
//! from the configured default.

/// The observation loop: feed it subscriber counts, rebuild the grid
/// when it says so.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoTuner {
    enabled: bool,
    current: u32,
    /// The resolution the in-flight streak agrees on (`0` = none).
    pending: u32,
    streak: u32,
}

impl AutoTuner {
    /// Desired average subscribers per grid cell at uniform density.
    pub const TARGET_PER_CELL: f64 = 4.0;
    /// Lower bound on `cells_per_axis`.
    pub const MIN_CELLS: u32 = 8;
    /// Upper bound on `cells_per_axis`.
    pub const MAX_CELLS: u32 = 256;
    /// Minimum ratio between the ideal and current resolution before a
    /// retune is proposed (it exceeds √2, the power-of-two rounding
    /// half-band, so the hysteresis is real).
    pub const HYSTERESIS: f64 = 1.5;
    /// Consecutive agreeing observations required before retuning.
    pub const STREAK: u32 = 3;

    /// A tuner starting from the configured static resolution; a
    /// disabled one only observes.
    pub fn new(enabled: bool, initial_cells: u32) -> AutoTuner {
        AutoTuner {
            enabled,
            current: initial_cells.max(1),
            pending: 0,
            streak: 0,
        }
    }

    /// The ideal (unquantised) cells-per-axis for a subscriber count:
    /// the axis resolution at which the average cell holds
    /// [`AutoTuner::TARGET_PER_CELL`] subscribers.
    fn ideal(subscribers: usize) -> f64 {
        (subscribers as f64 / Self::TARGET_PER_CELL).sqrt().max(1.0)
    }

    /// The resolution the tuner would steady-state at for a subscriber
    /// count: the ideal axis quantised to the nearest power of two and
    /// clamped to [`AutoTuner::MIN_CELLS`]..=[`AutoTuner::MAX_CELLS`].
    /// Pure — benchmarks use it to build "as-tuned" grids without
    /// running the observation loop.
    pub fn cells_for(subscribers: usize) -> u32 {
        let exp = Self::ideal(subscribers).log2().round().clamp(0.0, 30.0);
        (1u32 << (exp as u32)).clamp(Self::MIN_CELLS, Self::MAX_CELLS)
    }

    /// The resolution the tuner currently stands behind.
    pub fn current(&self) -> u32 {
        self.current
    }

    /// Whether retuning is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Feeds one density observation. Returns `Some(new_cells)` when the
    /// caller should rebuild the grid at the new resolution — i.e. when
    /// [`AutoTuner::STREAK`] consecutive observations were decisive (ideal outside
    /// the hysteresis band) **and agreed on the same target**. An
    /// observation proposing a different target restarts the streak at
    /// it, so density oscillating between two regimes keeps resetting
    /// the count instead of accumulating towards alternating rebuilds.
    pub fn observe(&mut self, subscribers: usize) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let ideal = Self::ideal(subscribers);
        let current = self.current as f64;
        let decisive = ideal >= current * Self::HYSTERESIS || ideal <= current / Self::HYSTERESIS;
        let want = Self::cells_for(subscribers);
        if !decisive || want == self.current {
            self.pending = 0;
            self.streak = 0;
            return None;
        }
        if want == self.pending {
            self.streak += 1;
        } else {
            self.pending = want;
            self.streak = 1;
        }
        if self.streak < Self::STREAK {
            return None;
        }
        self.pending = 0;
        self.streak = 0;
        self.current = want;
        Some(want)
    }

    /// Exports the tuner state as `(current_cells, streak, pending)` —
    /// the region-snapshot form shipped to warm standbys.
    pub fn state(&self) -> (u32, u32, u32) {
        (self.current, self.streak, self.pending)
    }

    /// Restores previously exported state (the promoted-standby path).
    /// The enable switch stays the local one; only the learned
    /// resolution and the in-flight streak/target are adopted.
    pub fn restore(&mut self, current: u32, streak: u32, pending: u32) {
        self.current = current.max(1);
        self.streak = streak;
        self.pending = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuner(initial: u32) -> AutoTuner {
        AutoTuner::new(true, initial)
    }

    #[test]
    fn disabled_tuner_never_retunes() {
        let mut t = AutoTuner::new(false, 32);
        for n in [0usize, 10, 10_000, 1_000_000] {
            assert_eq!(t.observe(n), None);
        }
        assert_eq!(t.current(), 32);
    }

    #[test]
    fn sustained_density_growth_retunes_upward() {
        let mut t = tuner(8);
        // 10_000 subscribers at 4/cell want a 64-cell axis wall to wall.
        let mut changed = None;
        for _ in 0..AutoTuner::STREAK {
            changed = t.observe(10_000);
        }
        assert_eq!(changed, Some(64));
        assert_eq!(t.current(), 64);
        // Steady state: no further change at the same density.
        for _ in 0..10 {
            assert_eq!(t.observe(10_000), None);
        }
    }

    #[test]
    fn emptying_region_retunes_downward_to_the_floor() {
        let mut t = tuner(128);
        let mut changed = None;
        for _ in 0..3 {
            changed = t.observe(0);
        }
        assert_eq!(changed, Some(AutoTuner::MIN_CELLS));
    }

    #[test]
    fn one_spike_is_not_enough() {
        let mut t = tuner(8);
        assert_eq!(t.observe(100_000), None, "first observation only streaks");
        assert_eq!(t.observe(50), None, "the streak broke");
        assert_eq!(t.observe(100_000), None);
        assert_eq!(t.current(), 8);
    }

    #[test]
    fn jitter_inside_the_hysteresis_band_never_retunes() {
        // 4_096 subscribers at 4/cell → ideal axis 32. ±30% subscriber
        // jitter moves the ideal by ±14%, well inside the 1.5× band.
        let mut t = tuner(32);
        for i in 0..100 {
            let n = if i % 2 == 0 { 2_900 } else { 5_300 };
            assert_eq!(t.observe(n), None, "observation {i}");
        }
        assert_eq!(t.current(), 32);
    }

    #[test]
    fn bounds_are_respected() {
        assert_eq!(AutoTuner::cells_for(0), AutoTuner::MIN_CELLS);
        assert_eq!(AutoTuner::cells_for(usize::MAX / 4), AutoTuner::MAX_CELLS);
        let mid = AutoTuner::cells_for(4_096);
        assert!((AutoTuner::MIN_CELLS..=AutoTuner::MAX_CELLS).contains(&mid));
        assert_eq!(mid, 32);
    }

    #[test]
    fn restored_state_reproduces_decisions() {
        let mut a = tuner(8);
        a.observe(10_000);
        let (cells, streak, pending) = a.state();
        assert_eq!((streak, pending), (1, 64), "mid-streak state exported");
        let mut b = tuner(8);
        b.restore(cells, streak, pending);
        for _ in 0..5 {
            assert_eq!(a.observe(10_000), b.observe(10_000));
            assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    fn oscillating_density_never_accumulates_a_streak() {
        // Regression: alternating decisive observations in opposite
        // directions must not count toward one streak — each proposal
        // change restarts it, so the tuner holds still instead of
        // thrashing between resolutions every `streak` ticks.
        let mut t = tuner(32);
        for i in 0..30 {
            let n = if i % 2 == 0 { 10 } else { 100_000 };
            assert_eq!(t.observe(n), None, "observation {i}");
        }
        assert_eq!(t.current(), 32, "oscillation must not retune");
    }
}
