//! Per-game workload parameterisations.
//!
//! The paper validated Matrix with three real games — BzFlag (tank
//! shooter), Quake 2 (FPS) and Daimonin (RPG). We cannot link the real
//! games, but the middleware only observes their *traffic shape*: world
//! size, visibility radius, update rates, packet sizes, movement speed and
//! server work per packet. Each [`GameSpec`] captures that shape; the
//! values are drawn from the games' public documentation and typical
//! gameplay, and the experiments sweep around them.

use matrix_core::DisseminationConfig;
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
    /// The game's dissemination knobs, copied whole into
    /// `GameServerConfig::dissemination`. Presets set a binary
    /// `vision_radius` equal to `radius` and a per-flush item cap;
    /// everything else keeps the game-server defaults.
    pub dissemination: DisseminationConfig,
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
            dissemination: DisseminationConfig {
                vision_radius: 100.0,
                max_updates_per_flush: 64,
                ..DisseminationConfig::default()
            },
            metric: Metric::Euclidean,
            move_speed: 25.0,
            update_rate_hz: 5.0,
            action_rate_hz: 1.0,
            move_bytes: 32,
            action_bytes: 90,
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
            dissemination: DisseminationConfig {
                vision_radius: 250.0,
                max_updates_per_flush: 128,
                ..DisseminationConfig::default()
            },
            metric: Metric::Euclidean,
            move_speed: 300.0,
            update_rate_hz: 10.0,
            action_rate_hz: 2.0,
            move_bytes: 40,
            action_bytes: 60,
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
            dissemination: DisseminationConfig {
                vision_radius: 350.0,
                max_updates_per_flush: 32,
                ..DisseminationConfig::default()
            },
            metric: Metric::Chebyshev, // tile-based visibility
            move_speed: 40.0,
            update_rate_hz: 2.0,
            action_rate_hz: 0.5,
            move_bytes: 24,
            action_bytes: 200,
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
            dissemination: DisseminationConfig {
                vision_radius: 150.0,
                max_updates_per_flush: 128,
                ..DisseminationConfig::default()
            },
            metric: Metric::Euclidean,
            move_speed: 120.0,
            update_rate_hz: 10.0,
            action_rate_hz: 0.2,
            move_bytes: 24,
            action_bytes: 40,
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

    /// The recommended ring tiers for this game: near (full fidelity) at
    /// 35% of the effective AOI radius
    /// ([`DisseminationConfig::ring_set`]), mid at 65% sampled 1-in-2, far at the
    /// full radius sampled 1-in-4. The receiver set is identical to the
    /// binary radius — only the outer tiers' update *rate* drops, which
    /// is where a dense crowd's periphery bytes go. Feed them to
    /// [`DisseminationConfig::with_rings`].
    pub fn ring_tiers(&self) -> (Vec<f64>, Vec<u32>) {
        let vision = self.dissemination.ring_set(self.radius).outer_radius();
        (vec![vision * 0.35, vision * 0.65, vision], vec![1, 2, 4])
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
    /// player scrutinises each tier. Feed them to
    /// [`DisseminationConfig::with_predict`].
    pub fn recommended_error_budgets(&self) -> Vec<f64> {
        let (radii, _) = self.ring_tiers();
        radii
            .iter()
            .enumerate()
            .map(|(i, r)| if i == 0 { 0.0 } else { r * 0.05 })
            .collect()
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

    /// The effective client AOI radius the game server will use.
    fn aoi(spec: &GameSpec) -> f64 {
        spec.dissemination.ring_set(spec.radius).outer_radius()
    }

    #[test]
    fn presets_have_sane_shapes() {
        for spec in GameSpec::all() {
            assert!(spec.radius > 0.0, "{}", spec.name);
            assert!(
                aoi(&spec) <= spec.radius,
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
                spec.dissemination.max_updates_per_flush > 0,
                "{}: dense crowds need a per-flush cap to degrade gracefully",
                spec.name
            );
        }
        // Faster-paced games tolerate more items per flush.
        assert!(
            GameSpec::quake2().dissemination.max_updates_per_flush
                > GameSpec::daimonin().dissemination.max_updates_per_flush
        );
    }

    #[test]
    fn ring_tiers_are_ascending_and_preserve_the_aoi() {
        for spec in GameSpec::all() {
            let (radii, rates) = spec.ring_tiers();
            assert_eq!(radii.len(), rates.len(), "{}", spec.name);
            assert!(
                radii.windows(2).all(|w| w[0] < w[1]),
                "{}: tiers ascend",
                spec.name
            );
            let mut ringed = spec.clone();
            ringed.dissemination = spec.dissemination.with_rings(&radii, &rates);
            assert_eq!(
                aoi(&ringed),
                aoi(&spec),
                "{}: the outermost ring preserves the AOI, so the \
                 receiver set is unchanged — only fidelity tiers",
                spec.name
            );
            assert_eq!(
                ringed.ring_tiers(),
                (radii, rates.clone()),
                "{}: tiers derive from the effective AOI",
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
            let d = spec.dissemination;
            assert_eq!(d.rings, None, "{}", spec.name);
            assert_eq!(d.vision_radius, spec.radius, "{}", spec.name);
            assert!(!d.grid_autotune, "{}", spec.name);
            assert!(!d.predict, "{}: prediction is opt-in", spec.name);
        }
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
        assert!(aoi(&spec) <= spec.radius);
        assert!(!GameSpec::all().iter().any(|s| s.name == "racer"));
    }

    #[test]
    fn with_predict_enables_rings_and_pins_the_near_budget() {
        let spec = GameSpec::racer();
        let (radii, _) = spec.ring_tiers();
        let budgets = spec.recommended_error_budgets();
        let d = spec
            .dissemination
            .with_rings(&radii, &[])
            .with_predict(&budgets);
        assert!(d.predict);
        assert_eq!(d.ring_set(spec.radius).len(), radii.len());
        assert_eq!(budgets.len(), radii.len());
        assert_eq!(d.budget_for(0), 0.0, "near ring: every event");
        assert!(
            budgets[1..].iter().all(|b| *b > 0.0),
            "outer rings get real budgets: {budgets:?}"
        );
        assert_eq!(d.error_budgets[..budgets.len()], budgets[..]);
        // Budgets stay far below the ring radii they grade.
        for (b, r) in budgets.iter().zip(&radii) {
            assert!(b < r, "budget {b} must be small against ring {r}");
        }
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
