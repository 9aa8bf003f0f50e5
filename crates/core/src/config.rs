//! Tunable parameters for the middleware components.

use matrix_geometry::{Metric, SplitStrategy};
use matrix_interest::DisseminationConfig;
use matrix_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// The wire codec a TCP game client speaks.
///
/// Wire protocol v2 (`matrix_core::codec_v2`) is the only encoding, so
/// this has one variant. It remains because
/// `matrix_rt::wire::TcpGameClient::connect_with` and
/// `matrix_experiments::predict::server_config` take it, and external
/// callers (the benchmark harness) name those signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WireCodec {
    /// Wire protocol v2: length-prefixed binary frames.
    #[default]
    BinaryV2,
}

/// Configuration of a Matrix server's adaptive behaviour.
///
/// Defaults reproduce the paper's Figure-2 deployment: overload at 300
/// clients, underload below 150, with short hysteresis streaks as the
/// "simple heuristics to prevent oscillations" (§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixConfig {
    /// Whether the server may split and reclaim at all. Disabling this
    /// turns the identical machinery into the static-partitioning baseline.
    pub adaptive: bool,
    /// Client count at which a game server counts as overloaded
    /// (Figure 2: "a server is overloaded when it has 300+ clients").
    pub overload_clients: u32,
    /// Client count below which a server counts as underloaded
    /// (Figure 2: "underloaded (< 150 clients)").
    pub underload_clients: u32,
    /// Consecutive overloaded load reports required before splitting.
    pub overload_streak: u32,
    /// Consecutive underloaded reports required before reclaiming a child.
    pub underload_streak: u32,
    /// A child is only reclaimed when the merged client count stays below
    /// `overload_clients * reclaim_headroom`, so a reclaim cannot
    /// immediately bounce back into a split (anti-oscillation heuristic,
    /// §3.2.3).
    pub reclaim_headroom: f64,
    /// Minimum time between adaptive actions on one server; prevents a
    /// freshly split server from immediately splitting or being reclaimed.
    pub cooldown: SimDuration,
    /// How the map is cut on a split.
    pub split_strategy: SplitStrategy,
    /// Interval between heartbeats to the coordinator.
    pub heartbeat_every: SimDuration,
    /// When true, every active server pairs with a warm standby drawn
    /// from the resource pool and streams region state to it (see
    /// `GameServerConfig::replica_interval`); on the primary's liveness
    /// expiry the coordinator promotes the standby instead of handing
    /// the orphaned range to a neighbour.
    pub standby_replication: bool,
    /// Distance metric for range verification and exact-set fallbacks.
    pub metric: Metric,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            adaptive: true,
            overload_clients: 300,
            underload_clients: 150,
            overload_streak: 2,
            underload_streak: 3,
            reclaim_headroom: 0.7,
            cooldown: SimDuration::from_secs(5),
            split_strategy: SplitStrategy::SplitToLeft,
            heartbeat_every: SimDuration::from_secs(1),
            standby_replication: false,
            metric: Metric::Euclidean,
        }
    }
}

impl MatrixConfig {
    /// The static-partitioning baseline: identical routing, no adaptation.
    pub fn static_baseline() -> MatrixConfig {
        MatrixConfig {
            adaptive: false,
            ..MatrixConfig::default()
        }
    }
}

/// Configuration of a game-server node (the developer-provided side,
/// emulated here).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameServerConfig {
    /// Game tick interval (load reports and redirect sweeps run on ticks).
    pub tick: SimDuration,
    /// Load report sent to Matrix every `report_every_ticks` ticks
    /// (§3.2.2 "periodically reports its current load").
    pub report_every_ticks: u32,
    /// Per-client state transferred on a handoff (position, inventory,
    /// session), in bytes. The paper calls this "minimal".
    pub client_state_bytes: u64,
    /// Dynamic global state transferred to a newly split server (map
    /// objects such as trees and buildings), in bytes.
    pub global_state_bytes: u64,
    /// Roaming hysteresis: a client is only handed off once it strays
    /// further than this outside the server's range, so crowds jittering
    /// on a partition boundary do not thrash between servers.
    pub handoff_margin: f64,
    /// Metric for in-game distances.
    pub metric: Metric,
    /// The per-game dissemination knobs: area of interest, grid,
    /// per-flush caps, delta keyframes and dead reckoning.
    pub dissemination: DisseminationConfig,
    /// How long client-bound updates may coalesce before a
    /// `GameToClient::UpdateBatch` flush. Zero flushes on every event
    /// (one-item batches).
    pub batch_interval: SimDuration,
    /// Whether client-bound update fan-out is emitted as real messages
    /// (true under the runtime, where clients are live connections) or
    /// only counted (discrete-event runs that model fan-out as load).
    pub emit_updates: bool,
    /// Fixed-point resolution batch origins are snapped to before
    /// dissemination (`0.0` = no quantisation). Offsets between lattice
    /// origins are exact multiples of the quantum, so they genuinely fit
    /// the compact delta wire frame the byte accounting models; `1/256`
    /// of a world unit is far below any rendering-relevant precision.
    /// Use a power of two so the snapping arithmetic is exact in `f64`,
    /// and keep `quantum × keyframe threshold` within the 3-byte offset
    /// field (the defaults use 2²¹ of its ±2²³ range). The delta
    /// encoder's lattice check uses this same value.
    pub origin_quantum: f64,
    /// How often region state ships to the warm standby once one is
    /// assigned (splits the difference between replication overhead and
    /// how much session state a failover can lose). The first batch —
    /// and any batch after a standby resync — is a full
    /// `RegionSnapshot`; subsequent batches carry incremental ops.
    /// Replication itself is armed per server by
    /// `MatrixConfig::standby_replication`.
    pub replica_interval: SimDuration,
    /// Master telemetry switch: per-stage pipeline span timers, tick and
    /// flush latency histograms, the per-node flight recorder, and the
    /// telemetry snapshot attached to load reports (which then rides the
    /// heartbeat to the coordinator — snapshot cadence is therefore
    /// `report_every_ticks`). Off (the default), every instrumentation
    /// point is a branch-only no-op: no clock reads, no recording.
    pub telemetry: bool,
    /// Number of shards the dissemination flush is partitioned into
    /// (clamped to ≥ 1). Per-client send-path state (delta streams,
    /// sampling phase, prediction mirrors, queued batches) lives in
    /// `flush_workers` independent shards keyed by a stable client-id
    /// hash; above one shard, each flushes on its own scoped worker
    /// thread. The flush output is byte-identical for any value
    /// — this is purely a throughput knob. `1` (the default) is the
    /// sequential single-shard path.
    pub flush_workers: u32,
    /// Causal trace sampling: every `trace_sample_rate`-th ingested
    /// event (by the node's event sequence number, deterministically) is
    /// stamped with a [`matrix_telemetry::TraceTag`] that rides the
    /// pipeline and the wire; receiving clients echo per-item delivery
    /// latency and staleness-at-apply back as trace acks. `0` (the
    /// default) disables the trace plane entirely — no stamping, no
    /// suppression charging, untagged wire frames stay byte-identical.
    /// Independent of the `telemetry` master switch so traced runs can
    /// skip span clocks, but the ack histograms only surface through
    /// telemetry snapshots, so end-to-end runs enable both.
    pub trace_sample_rate: u32,
}

impl Default for GameServerConfig {
    fn default() -> Self {
        GameServerConfig {
            tick: SimDuration::from_millis(100),
            report_every_ticks: 10,
            client_state_bytes: 2_048,
            global_state_bytes: 4_000_000,
            handoff_margin: 0.0,
            metric: Metric::Euclidean,
            dissemination: DisseminationConfig::default(),
            batch_interval: SimDuration::from_millis(50),
            emit_updates: false,
            origin_quantum: 1.0 / 256.0,
            replica_interval: SimDuration::from_millis(200),
            telemetry: false,
            flush_workers: 1,
            trace_sample_rate: 0,
        }
    }
}

/// Configuration of the Matrix Coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoordinatorConfig {
    /// A server missing heartbeats for this long is declared dead and its
    /// partition reassigned.
    pub heartbeat_timeout: SimDuration,
    /// Distance metric used when building overlap tables.
    pub metric: Metric,
    /// Per-ring freshness SLO targets and error budget
    /// ([`matrix_telemetry::SloTargets`]). Fed by the per-ring
    /// staleness histograms riding node heartbeats (which exist only
    /// when nodes run with `telemetry` on and a non-zero
    /// `trace_sample_rate`); all-zero targets (the default) disable the
    /// tracker.
    pub slo: matrix_telemetry::SloTargets,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            heartbeat_timeout: SimDuration::from_secs(5),
            metric: Metric::Euclidean,
            slo: matrix_telemetry::SloTargets::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_figure_2_thresholds() {
        let c = MatrixConfig::default();
        assert_eq!(c.overload_clients, 300);
        assert_eq!(c.underload_clients, 150);
        assert!(c.adaptive);
    }

    #[test]
    fn static_baseline_disables_adaptation_only() {
        let c = MatrixConfig::static_baseline();
        assert!(!c.adaptive);
        assert_eq!(c.overload_clients, MatrixConfig::default().overload_clients);
    }

    #[test]
    fn rings_default_off_and_copy_from_slices() {
        let d = GameServerConfig::default().dissemination;
        assert_eq!(d.rings, None, "binary radius by default");
        let ringed = d.with_rings(&[35.0, 65.0, 100.0], &[1, 2]);
        assert_eq!(
            ringed.rings,
            Some(matrix_interest::RingSet::from_tiers(
                &[35.0, 65.0, 100.0],
                &[1, 2, 1]
            )),
            "missing rates default to every-event"
        );
        assert_eq!(ringed.ring_set(250.0).outer_radius(), 100.0);
        assert_eq!(
            ringed.with_rings(&[0.0], &[]).rings,
            None,
            "clearing restores the binary path"
        );
        // The binary radius inherits the registered radius at 0.0.
        assert_eq!(d.ring_set(250.0), matrix_interest::RingSet::single(250.0));
        let narrow = DisseminationConfig {
            vision_radius: 80.0,
            ..d
        };
        assert_eq!(
            narrow.ring_set(250.0),
            matrix_interest::RingSet::single(80.0)
        );
    }

    #[test]
    fn predict_defaults_off_and_budgets_copy_from_slices() {
        let d = GameServerConfig::default().dissemination;
        assert!(!d.predict, "prediction is opt-in");
        assert_eq!(d.error_budgets, [0.0; matrix_interest::MAX_RINGS]);
        assert_eq!(d.position_only_ring, 0, "payload degradation is opt-in");
        let on = d.with_predict(&[0.0, 2.0, 4.0]);
        assert!(on.predict);
        assert_eq!(on.error_budgets[..3], [0.0, 2.0, 4.0]);
        let pinned = d.with_predict(&[5.0, 1.0, 2.0, 3.0]);
        assert_eq!(pinned.budget_for(0), 0.0, "near means every event");
        assert_eq!(pinned.budget_for(9), 3.0, "far indices clamp");
        assert_eq!(
            on.with_predict(&[-1.0]).error_budgets,
            [0.0; matrix_interest::MAX_RINGS],
            "negative budgets clamp to never-suppress and the rest clears"
        );
    }

    /// Destructures a config struct with no `..` and yields its field
    /// names: a field missing from the list fails to compile.
    macro_rules! fields {
        ($ty:ident { $($field:ident),* $(,)? }) => {{
            let $ty { $($field: _),* } = $ty::default();
            [$(stringify!($field)),*]
        }};
    }

    /// A new field on any of the four config structs fails to compile
    /// here until it is listed, and then fails the test until
    /// `docs/CONFIG.md` has a row for it. The check runs both ways: a
    /// row naming no live field (a deleted knob's) fails too.
    #[test]
    fn every_config_field_has_a_docs_row() {
        let dissemination = fields!(DisseminationConfig {
            vision_radius,
            cells_per_axis,
            grid_autotune,
            rings,
            max_updates_per_flush,
            client_budget_bytes,
            keyframe_every,
            predict,
            error_budgets,
            motion_window,
            velocity_quantum,
            position_only_ring,
        });
        let game = fields!(GameServerConfig {
            tick,
            report_every_ticks,
            client_state_bytes,
            global_state_bytes,
            handoff_margin,
            metric,
            dissemination,
            batch_interval,
            emit_updates,
            origin_quantum,
            replica_interval,
            telemetry,
            flush_workers,
            trace_sample_rate,
        });
        let matrix = fields!(MatrixConfig {
            adaptive,
            overload_clients,
            underload_clients,
            overload_streak,
            underload_streak,
            reclaim_headroom,
            cooldown,
            split_strategy,
            heartbeat_every,
            standby_replication,
            metric,
        });
        let coordinator = fields!(CoordinatorConfig {
            heartbeat_timeout,
            metric,
            slo,
        });
        let docs = include_str!("../../../docs/CONFIG.md");
        for (name, fields) in [
            ("DisseminationConfig", &dissemination[..]),
            ("GameServerConfig", &game[..]),
            ("MatrixConfig", &matrix[..]),
            ("CoordinatorConfig", &coordinator[..]),
        ] {
            let start = docs
                .find(&format!("## `{name}`"))
                .unwrap_or_else(|| panic!("docs/CONFIG.md has no `{name}` section"));
            let section = &docs[start..];
            let section = section[1..]
                .find("\n## ")
                .map_or(section, |end| &section[..end + 1]);
            for field in fields {
                assert!(
                    section.contains(&format!("| `{field}` |")),
                    "docs/CONFIG.md has no `{name}` row for `{field}`"
                );
            }
            for row in section.lines().filter_map(|l| l.strip_prefix("| `")) {
                let knob = row.split_once("` |").map_or(row, |(knob, _)| knob);
                assert!(
                    fields.contains(&knob),
                    "docs/CONFIG.md `{name}` row `{knob}` names no field of `{name}`"
                );
            }
        }
    }

    #[test]
    fn hysteresis_requires_multiple_reports() {
        let c = MatrixConfig::default();
        assert!(
            c.overload_streak >= 2,
            "splits must not fire on a single spike"
        );
        assert!(
            c.underload_streak >= 2,
            "reclaims must not fire on a single dip"
        );
    }
}
