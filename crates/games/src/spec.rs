//! Per-game workload parameterisations.
//!
//! The paper validated Matrix with three real games — BzFlag (tank
//! shooter), Quake 2 (FPS) and Daimonin (RPG). We cannot link the real
//! games, but the middleware only observes their *traffic shape*: world
//! size, visibility radius, update rates, packet sizes, movement speed and
//! server work per packet. Each [`GameSpec`] captures that shape; the
//! values are drawn from the games' public documentation and typical
//! gameplay, and the experiments sweep around them.

use matrix_geometry::{Metric, Point, Rect};
use serde::{Deserialize, Serialize};

/// Traffic-shape parameters of one game title.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GameSpec {
    /// Human-readable title.
    pub name: String,
    /// The game world rectangle.
    pub world: Rect,
    /// Radius of visibility (the `R` of Equation 1).
    pub radius: f64,
    /// Per-client area-of-interest radius for update fan-out. Routing
    /// between servers stays conservative at `radius`; what each client
    /// actually renders can be narrower. `0.0` means "same as `radius`".
    pub vision_radius: f64,
    /// Concentric vision-ring boundaries (ascending, world units; empty
    /// = single binary `vision_radius`). When set, the outermost ring is
    /// the effective AOI and outer tiers are sampled per
    /// `ring_sample_rates`.
    pub ring_radii: Vec<f64>,
    /// Per-ring sampling rates parallel to `ring_radii` (1 = every
    /// event; the innermost ring always delivers in full).
    pub ring_sample_rates: Vec<u32>,
    /// Density-driven interest-grid resolution auto-tuning.
    pub grid_autotune: bool,
    /// Dead-reckoning suppression: ship per-entity velocities and skip
    /// updates while receivers can extrapolate within `error_budgets`.
    pub predict: bool,
    /// Per-ring receiver error budgets (world units) parallel to
    /// `ring_radii`; `0.0` = never suppress in that ring. The near ring
    /// is always pinned to 0 (every event).
    pub error_budgets: Vec<f64>,
    /// Sliding-window length of the velocity estimator feeding
    /// prediction.
    pub motion_window: u32,
    /// Ring index from which updates ship position-only (`0` = full
    /// payloads everywhere).
    pub position_only_ring: u8,
    /// Number of shards the dissemination flush is partitioned into
    /// (1 = the sequential path). Purely a throughput knob — the flush
    /// output is byte-identical for any value.
    pub flush_workers: u32,
    /// In-game distance metric.
    pub metric: Metric,
    /// Player movement speed, world units per second.
    pub move_speed: f64,
    /// Client position-update rate, packets per second.
    pub update_rate_hz: f64,
    /// Client action rate (shots, spells, chat), packets per second.
    pub action_rate_hz: f64,
    /// Movement packet payload, bytes.
    pub move_bytes: usize,
    /// Action packet payload, bytes.
    pub action_bytes: usize,
    /// Per-client cap on items per update-batch flush (`0` = unlimited):
    /// how many events the game is willing to describe to one client per
    /// flush interval before degrading the periphery.
    pub max_updates_per_flush: u32,
    /// Per-client downlink budget in bytes per flush (`0` = unlimited).
    pub client_budget_bytes: u32,
    /// Per-client session state carried across a server switch, bytes.
    pub client_state_bytes: u64,
    /// Dynamic global state shipped to a freshly split server, bytes.
    pub global_state_bytes: u64,
    /// Game-server processing capacity, work units per second.
    pub server_capacity: f64,
    /// Work units charged per processed client packet.
    pub packet_work: f64,
    /// Work units charged per consistency update arriving from a peer
    /// server (applying a remote state delta is much cheaper than
    /// servicing a client connection).
    pub remote_work: f64,
    /// Extra work units per local client that must receive the resulting
    /// update (the fan-out term that makes hotspots superlinear).
    pub fanout_work: f64,
}

impl GameSpec {
    /// BzFlag: the paper's Figure-2 game. Open 2-D battlefield, fast
    /// tanks, moderate tick rate, every tank sees a large slice of the
    /// field.
    pub fn bzflag() -> GameSpec {
        GameSpec {
            name: "bzflag".into(),
            world: Rect::from_coords(0.0, 0.0, 800.0, 800.0),
            radius: 100.0,
            vision_radius: 100.0,
            ring_radii: Vec::new(),
            ring_sample_rates: Vec::new(),
            grid_autotune: false,
            predict: false,
            error_budgets: Vec::new(),
            motion_window: 4,
            position_only_ring: 0,
            flush_workers: 1,
            metric: Metric::Euclidean,
            move_speed: 25.0,
            update_rate_hz: 5.0,
            action_rate_hz: 1.0,
            move_bytes: 32,
            action_bytes: 90,
            max_updates_per_flush: 64,
            client_budget_bytes: 0,
            client_state_bytes: 1_500,
            global_state_bytes: 2_000_000,
            server_capacity: 3_000.0,
            packet_work: 1.0,
            remote_work: 0.08,
            fanout_work: 0.004,
        }
    }

    /// Quake 2: small arenas, very fast movement, high tick rate, short
    /// visibility.
    pub fn quake2() -> GameSpec {
        GameSpec {
            name: "quake2".into(),
            world: Rect::from_coords(0.0, 0.0, 2_000.0, 2_000.0),
            radius: 250.0,
            vision_radius: 250.0,
            ring_radii: Vec::new(),
            ring_sample_rates: Vec::new(),
            grid_autotune: false,
            predict: false,
            error_budgets: Vec::new(),
            motion_window: 4,
            position_only_ring: 0,
            flush_workers: 1,
            metric: Metric::Euclidean,
            move_speed: 300.0,
            update_rate_hz: 10.0,
            action_rate_hz: 2.0,
            move_bytes: 40,
            action_bytes: 60,
            max_updates_per_flush: 128,
            client_budget_bytes: 0,
            client_state_bytes: 900,
            global_state_bytes: 1_000_000,
            server_capacity: 4_500.0,
            packet_work: 1.0,
            remote_work: 0.06,
            fanout_work: 0.003,
        }
    }

    /// Daimonin: tile-based open-world RPG. Huge world, slow movement,
    /// low update rate, lots of per-client state.
    pub fn daimonin() -> GameSpec {
        GameSpec {
            name: "daimonin".into(),
            world: Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0),
            radius: 350.0,
            vision_radius: 350.0,
            ring_radii: Vec::new(),
            ring_sample_rates: Vec::new(),
            grid_autotune: false,
            predict: false,
            error_budgets: Vec::new(),
            motion_window: 4,
            position_only_ring: 0,
            flush_workers: 1,
            metric: Metric::Chebyshev, // tile-based visibility
            move_speed: 40.0,
            update_rate_hz: 2.0,
            action_rate_hz: 0.5,
            move_bytes: 24,
            action_bytes: 200,
            max_updates_per_flush: 32,
            client_budget_bytes: 0,
            client_state_bytes: 8_000,
            global_state_bytes: 12_000_000,
            server_capacity: 1_200.0,
            packet_work: 1.0,
            remote_work: 0.15,
            fanout_work: 0.006,
        }
    }

    /// Racer: a synthetic high-velocity workload that stresses the
    /// motion model — fast vehicles on long straight runs (waypoint
    /// movement at speed), high update rate, compact world so everyone
    /// is inside everyone's outer ring. Not one of the paper's games;
    /// it exists because dead reckoning's payoff is proportional to how
    /// *predictable* motion is, and racing traffic is the canonical
    /// best case the E15 experiment measures against.
    pub fn racer() -> GameSpec {
        GameSpec {
            name: "racer".into(),
            world: Rect::from_coords(0.0, 0.0, 600.0, 600.0),
            radius: 150.0,
            vision_radius: 150.0,
            ring_radii: Vec::new(),
            ring_sample_rates: Vec::new(),
            grid_autotune: false,
            predict: false,
            error_budgets: Vec::new(),
            motion_window: 4,
            position_only_ring: 0,
            flush_workers: 1,
            metric: Metric::Euclidean,
            move_speed: 120.0,
            update_rate_hz: 10.0,
            action_rate_hz: 0.2,
            move_bytes: 24,
            action_bytes: 40,
            max_updates_per_flush: 128,
            client_budget_bytes: 0,
            client_state_bytes: 600,
            global_state_bytes: 500_000,
            server_capacity: 6_000.0,
            packet_work: 1.0,
            remote_work: 0.05,
            fanout_work: 0.002,
        }
    }

    /// All three paper games, for per-game sweeps (the synthetic racer
    /// stays out: it models no real title).
    pub fn all() -> Vec<GameSpec> {
        vec![GameSpec::bzflag(), GameSpec::quake2(), GameSpec::daimonin()]
    }

    /// The effective client vision radius (falls back to `radius`).
    /// With rings configured, the outermost ring takes this role.
    pub fn effective_vision_radius(&self) -> f64 {
        if let Some(outer) = self.ring_radii.last() {
            return *outer;
        }
        if self.vision_radius > 0.0 {
            self.vision_radius
        } else {
            self.radius
        }
    }

    /// The recommended ring tiers for this game: near (full fidelity) at
    /// 35% of the vision radius, mid at 65% sampled 1-in-2, far at the
    /// full radius sampled 1-in-4. The receiver set is identical to the
    /// binary radius — only the outer tiers' update *rate* drops, which
    /// is where a dense crowd's periphery bytes go.
    pub fn ring_tiers(&self) -> (Vec<f64>, Vec<u32>) {
        let vision = if self.vision_radius > 0.0 {
            self.vision_radius
        } else {
            self.radius
        };
        (vec![vision * 0.35, vision * 0.65, vision], vec![1, 2, 4])
    }

    /// This spec with the recommended ring tiers enabled (used by the
    /// `rings` experiment; presets default to the binary radius).
    pub fn with_rings(mut self) -> GameSpec {
        let (radii, rates) = self.ring_tiers();
        self.ring_radii = radii;
        self.ring_sample_rates = rates;
        self
    }

    /// This spec with density-driven grid auto-tuning enabled.
    pub fn with_grid_autotune(mut self) -> GameSpec {
        self.grid_autotune = true;
        self
    }

    /// This spec with the dissemination flush sharded across `workers`
    /// shards (clamped to ≥ 1). Output is byte-identical for any
    /// value — this only changes how the flush work is partitioned
    /// (and, under the async runtime, parallelised).
    pub fn with_flush_workers(mut self, workers: u32) -> GameSpec {
        self.flush_workers = workers.max(1);
        self
    }

    /// The recommended wire lattice for dead-reckoning velocities:
    /// the largest power of two at or below ~1.5% of the game's
    /// nominal movement speed (floored at the default origin lattice,
    /// `1/256`). Relative precision is what matters — a racer at
    /// 120 u/s is served by a 1 u/s lattice exactly as a walker at
    /// 1.5 u/s is by 1/64. The quantization
    /// drift this admits (`q/√2` per second) stays a small fraction of
    /// [`GameSpec::recommended_error_budgets`] over any realistic
    /// basis lifetime, and the sender's receiver model admits the
    /// snapped value, so the per-ring budgets remain hard bounds
    /// regardless.
    pub fn velocity_quantum(&self) -> f64 {
        let target: f64 = self.move_speed / 64.0;
        let floor = 1.0 / 256.0;
        if !target.is_finite() || target <= floor {
            return floor;
        }
        // Largest power of two ≤ target: exact in f64 for any
        // representable magnitude.
        f64::powi(2.0, target.log2().floor() as i32).max(floor)
    }

    /// The recommended per-ring error budgets for this game's ring
    /// tiers: 0 for the near ring (every event), and 5% of each outer
    /// ring's radius beyond it — an error far below what that ring's
    /// own sampling rate already tolerates, scaled to how closely the
    /// player scrutinises each tier.
    pub fn recommended_error_budgets(&self) -> Vec<f64> {
        let (radii, _) = self.ring_tiers();
        radii
            .iter()
            .enumerate()
            .map(|(i, r)| if i == 0 { 0.0 } else { r * 0.05 })
            .collect()
    }

    /// This spec with predictive dissemination enabled on the
    /// recommended ring tiers and error budgets (used by the `predict`
    /// experiment; presets default to prediction off). Rings are
    /// enabled too if they were not already — prediction's budgets are
    /// per ring.
    pub fn with_predict(mut self) -> GameSpec {
        if self.ring_radii.is_empty() {
            self = self.with_rings();
        }
        self.predict = true;
        self.error_budgets = self.recommended_error_budgets();
        self
    }

    /// Interval between a client's position updates.
    pub fn update_interval_secs(&self) -> f64 {
        1.0 / self.update_rate_hz
    }

    /// Probability that a given update is accompanied by an action.
    pub fn action_probability(&self) -> f64 {
        (self.action_rate_hz / self.update_rate_hz).clamp(0.0, 1.0)
    }

    /// The work one client packet costs a server hosting
    /// `local_receivers` clients within visibility range.
    pub fn work_for_packet(&self, local_receivers: usize) -> f64 {
        self.packet_work + self.fanout_work * local_receivers as f64
    }

    /// The work one peer-delivered consistency update costs.
    pub fn work_for_remote(&self, local_receivers: usize) -> f64 {
        self.remote_work + self.fanout_work * local_receivers as f64
    }

    /// A deterministic hotspot location for experiments: offset from the
    /// world centre so the paper's split-to-left sequence leaves the
    /// hotspot on the retained (right) side first, as in Figure 2.
    pub fn hotspot_a(&self) -> Point {
        let w = self.world;
        Point::new(w.min().x + w.width() * 0.6, w.min().y + w.height() * 0.5)
    }

    /// The second hotspot position ("reintroduced at a different position
    /// in the world", §4.1).
    pub fn hotspot_b(&self) -> Point {
        let w = self.world;
        Point::new(w.min().x + w.width() * 0.2, w.min().y + w.height() * 0.3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_shapes() {
        for spec in GameSpec::all() {
            assert!(spec.radius > 0.0, "{}", spec.name);
            assert!(
                spec.effective_vision_radius() <= spec.radius,
                "{}: clients must not see beyond the consistency radius",
                spec.name
            );
            assert!(
                spec.radius < spec.world.width() / 2.0,
                "{}: radius dominates world",
                spec.name
            );
            assert!(spec.move_speed > 0.0);
            assert!(spec.update_rate_hz > 0.0);
            assert!(spec.server_capacity > 0.0);
            assert!(spec.world.contains(spec.hotspot_a()));
            assert!(spec.world.contains(spec.hotspot_b()));
        }
    }

    #[test]
    fn presets_bound_per_client_dissemination() {
        for spec in GameSpec::all() {
            assert!(
                spec.max_updates_per_flush > 0,
                "{}: dense crowds need a per-flush cap to degrade gracefully",
                spec.name
            );
        }
        // Faster-paced games tolerate more items per flush.
        assert!(
            GameSpec::quake2().max_updates_per_flush > GameSpec::daimonin().max_updates_per_flush
        );
    }

    #[test]
    fn ring_tiers_are_ascending_and_preserve_the_aoi() {
        for spec in GameSpec::all() {
            let binary_vision = spec.effective_vision_radius();
            let ringed = spec.clone().with_rings();
            let (radii, rates) = (ringed.ring_radii.clone(), ringed.ring_sample_rates.clone());
            assert_eq!(radii.len(), rates.len(), "{}", spec.name);
            assert!(
                radii.windows(2).all(|w| w[0] < w[1]),
                "{}: tiers ascend",
                spec.name
            );
            assert_eq!(
                ringed.effective_vision_radius(),
                binary_vision,
                "{}: the outermost ring preserves the AOI, so the \
                 receiver set is unchanged — only fidelity tiers",
                spec.name
            );
            assert_eq!(rates[0], 1, "{}: near ring delivers in full", spec.name);
            assert!(
                rates.windows(2).all(|w| w[0] <= w[1]),
                "{}: farther rings sample at least as hard",
                spec.name
            );
        }
    }

    #[test]
    fn presets_default_to_the_binary_radius() {
        for spec in GameSpec::all() {
            assert!(spec.ring_radii.is_empty(), "{}", spec.name);
            assert!(!spec.grid_autotune, "{}", spec.name);
            assert!(!spec.predict, "{}: prediction is opt-in", spec.name);
            assert_eq!(spec.flush_workers, 1, "{}: sharding is opt-in", spec.name);
        }
        assert_eq!(
            GameSpec::bzflag().with_flush_workers(0).flush_workers,
            1,
            "worker counts clamp to at least one shard"
        );
        assert_eq!(GameSpec::bzflag().with_flush_workers(4).flush_workers, 4);
    }

    #[test]
    fn racer_is_a_sane_high_velocity_workload() {
        let spec = GameSpec::racer();
        assert!(
            spec.move_speed > GameSpec::bzflag().move_speed * 2.0,
            "racers must be fast enough to stress the motion model"
        );
        assert!(spec.update_rate_hz >= 10.0);
        assert!(spec.world.contains(spec.hotspot_a()));
        assert!(spec.effective_vision_radius() <= spec.radius);
        assert!(!GameSpec::all().iter().any(|s| s.name == "racer"));
    }

    #[test]
    fn with_predict_enables_rings_and_pins_the_near_budget() {
        let spec = GameSpec::racer().with_predict();
        assert!(spec.predict);
        assert_eq!(spec.error_budgets.len(), spec.ring_radii.len());
        assert_eq!(spec.error_budgets[0], 0.0, "near ring: every event");
        assert!(
            spec.error_budgets[1..].iter().all(|b| *b > 0.0),
            "outer rings get real budgets: {:?}",
            spec.error_budgets
        );
        // Budgets stay far below the ring radii they grade.
        for (b, r) in spec.error_budgets.iter().zip(&spec.ring_radii) {
            assert!(b < r, "budget {b} must be small against ring {r}");
        }
        // Rings already configured are kept.
        let custom = GameSpec::bzflag().with_rings().with_predict();
        assert_eq!(
            custom.ring_radii,
            GameSpec::bzflag().with_rings().ring_radii
        );
    }

    #[test]
    fn hotspots_are_distinct() {
        let spec = GameSpec::bzflag();
        assert!(spec.hotspot_a().distance(spec.hotspot_b()) > spec.radius);
    }

    #[test]
    fn hotspot_a_is_right_of_centre() {
        // Figure 2's narrative requires the first split (left half handed
        // off) to miss the hotspot.
        let spec = GameSpec::bzflag();
        assert!(spec.hotspot_a().x > spec.world.center().x);
    }

    #[test]
    fn action_probability_is_a_probability() {
        for spec in GameSpec::all() {
            let p = spec.action_probability();
            assert!((0.0..=1.0).contains(&p), "{}: {p}", spec.name);
        }
    }

    #[test]
    fn fanout_work_makes_hotspots_superlinear() {
        let spec = GameSpec::bzflag();
        let sparse = spec.work_for_packet(5);
        let dense = spec.work_for_packet(600);
        assert!(dense > 2.0 * sparse);
    }

    #[test]
    fn overload_calibration_brackets_300_clients() {
        // The Figure-2 threshold: ~300 co-located clients must exceed one
        // server's capacity, while ~150 dispersed clients must not.
        let spec = GameSpec::bzflag();
        let rate_300 = 300.0 * spec.update_rate_hz * spec.work_for_packet(300);
        assert!(
            rate_300 > spec.server_capacity,
            "300 hotspot clients must overload: {rate_300} vs {}",
            spec.server_capacity
        );
        let rate_150 = 150.0 * spec.update_rate_hz * spec.work_for_packet(20);
        assert!(
            rate_150 < spec.server_capacity,
            "150 dispersed clients must fit: {rate_150} vs {}",
            spec.server_capacity
        );
    }
}
