//! The dissemination knobs, declared once.
//!
//! A game developer tunes how updates reach clients through one set of
//! parameters: the area of interest, the grid, the per-flush budgets,
//! delta encoding and dead reckoning. [`DisseminationConfig`] holds all
//! of them. `GameServerConfig` and `GameSpec` embed it by value, and
//! [`DisseminationPipeline::new`](crate::DisseminationPipeline::new)
//! reads it directly, so a new knob touches this struct and one row of
//! `docs/CONFIG.md`.

use crate::policy::FlushPolicy;
use crate::rings::{RingSet, MAX_RINGS};

/// Every per-game dissemination knob, with the game-server defaults.
///
/// Prediction's error budget is an exact bound on the receiver's
/// extrapolation error *at admission*: suppression simulates the
/// receiver with the receiver's own arithmetic, so a suppressed event
/// is one the receiver provably reconstructs within budget. Downstream
/// the ordinary batching semantics apply — an admitted rebase waits out
/// the batch interval like any item, and under count/byte cap pressure
/// ([`FlushPolicy`]) it can be deferred to a later flush. The
/// configurations whose end-to-end error bound is verified (E15, the
/// property suites) therefore run per-event flushes with the caps off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisseminationConfig {
    /// Per-client area-of-interest radius for update fan-out. `0.0`
    /// inherits the game's registered radius of visibility. Distinct
    /// from the consistency-set radius: routing between servers must
    /// stay conservative, but what each *client* renders can be
    /// narrower.
    pub vision_radius: f64,
    /// Resolution of the interest grid: cells along each axis of the
    /// server's range. Larger values cut per-query candidates but raise
    /// per-move bookkeeping slightly. With `grid_autotune` on this is
    /// only the starting point.
    pub cells_per_axis: u32,
    /// Density-driven grid resolution auto-tuning: re-pick
    /// `cells_per_axis` from the observed client count (ratio
    /// hysteresis and an observation streak guard against thrash; the
    /// tuned value replicates to warm standbys inside region snapshots).
    pub grid_autotune: bool,
    /// Concentric vision rings with per-ring sampling rates. When set,
    /// the rings *replace* the binary `vision_radius`: the outermost
    /// ring is the effective area of interest and each receiver is
    /// graded into the innermost ring containing its distance to the
    /// event. `None` (the default) keeps the single binary radius.
    pub rings: Option<RingSet>,
    /// Per-client cap on items per flush (`0` = unlimited). Over the
    /// cap, the least relevant (farthest) items are merged or dropped
    /// first, so crowded clients see a staler periphery instead of an
    /// unbounded queue.
    pub max_updates_per_flush: u32,
    /// Per-client byte budget per flush (`0` = unlimited), estimated
    /// against the absolute item wire size. Enforced in relevance order
    /// like `max_updates_per_flush`; at least one item always ships.
    pub client_budget_bytes: u32,
    /// Delta-compression keyframe interval: force an absolute-origin
    /// item at least every this many flushes per client. `0` disables
    /// delta encoding; `1` keyframes every flush but still
    /// delta-encodes items within a batch.
    pub keyframe_every: u32,
    /// Dead-reckoning suppression: model each entity's velocity, ship
    /// it on batch items, and skip updates for receivers whose
    /// extrapolation stays within the ring's `error_budgets` entry. Off
    /// (the default) keeps the wire byte-identical to the
    /// prediction-free pipeline.
    pub predict: bool,
    /// Per-ring receiver error budgets in world units, parallel to the
    /// rings (`0.0` = never suppress in that ring). The near ring is
    /// pinned to `0.0` regardless — near means every event. Only read
    /// with `predict` on.
    pub error_budgets: [f64; MAX_RINGS],
    /// Sliding-window length (observations) of the per-entity velocity
    /// estimator feeding prediction; clamped to ≥ 2.
    pub motion_window: u32,
    /// Fixed-point lattice shipped velocities snap to, in world units
    /// per second (`0.0` = the origin lattice). A quantization error of
    /// `q/2` per axis drifts the receiver by at most `q/√2 · t` over a
    /// basis lifetime `t`, far inside any usable ring budget. Keep it a
    /// power-of-two multiple of the origin quantum so the codec's
    /// fixed-point velocity field carries the snapped value exactly.
    pub velocity_quantum: f64,
    /// Ring index from which batch items ship position-only (payload
    /// stripped, origin and velocity kept); `0` disables payload
    /// degradation. A far-ring entity's whereabouts matter for
    /// rendering, its full state rarely does.
    pub position_only_ring: u8,
}

impl Default for DisseminationConfig {
    fn default() -> Self {
        DisseminationConfig {
            vision_radius: 0.0,
            cells_per_axis: 32,
            grid_autotune: false,
            rings: None,
            max_updates_per_flush: 128,
            client_budget_bytes: 0,
            keyframe_every: 8,
            predict: false,
            error_budgets: [0.0; MAX_RINGS],
            motion_window: 4,
            velocity_quantum: 0.125,
            position_only_ring: 0,
        }
    }
}

impl DisseminationConfig {
    /// This config with concentric ring tiers from parallel slices, as
    /// [`RingSet::from_tiers`] builds them: sorted, truncated to
    /// [`MAX_RINGS`], missing rates every-event. Tiers with no positive
    /// radius clear the rings back to the binary `vision_radius`.
    pub fn with_rings(mut self, radii: &[f64], rates: &[u32]) -> DisseminationConfig {
        self.rings = radii
            .iter()
            .any(|r| *r > 0.0)
            .then(|| RingSet::from_tiers(radii, rates));
        self
    }

    /// This config with dead reckoning on at the given per-ring error
    /// budgets (negative entries clamp to `0.0`; missing entries stay
    /// `0.0`, never suppress).
    pub fn with_predict(mut self, budgets: &[f64]) -> DisseminationConfig {
        self.predict = true;
        self.error_budgets = [0.0; MAX_RINGS];
        for (slot, b) in self.error_budgets.iter_mut().zip(budgets) {
            *slot = b.max(0.0);
        }
        self
    }

    /// The area-of-interest tiers for a game registered at
    /// `registered_radius`: the configured rings, or else one ring at
    /// `vision_radius` (falling back to the registered radius when that
    /// is `0.0`). Its [`RingSet::outer_radius`] is the effective AOI.
    pub fn ring_set(&self, registered_radius: f64) -> RingSet {
        self.rings.unwrap_or_else(|| {
            RingSet::single(if self.vision_radius > 0.0 {
                self.vision_radius
            } else {
                registered_radius
            })
        })
    }

    /// The per-flush delivery budgets.
    pub fn policy(&self) -> FlushPolicy {
        FlushPolicy {
            max_items: self.max_updates_per_flush as usize,
            budget_bytes: self.client_budget_bytes as usize,
        }
    }

    /// The effective error budget for a ring: the entry clamped into
    /// the array, with the near ring pinned to 0 (every event).
    pub fn budget_for(&self, ring: u8) -> f64 {
        if ring == 0 {
            return 0.0;
        }
        self.error_budgets[(ring as usize).min(MAX_RINGS - 1)]
    }
}
