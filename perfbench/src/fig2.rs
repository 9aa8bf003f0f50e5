//! `fig2_adapt`: the paper's Figure-2 scenario through the
//! discrete-event harness. BzFlag, 100 background clients, a
//! 600-client hotspot that drains, then a second hotspot, over 300
//! simulated seconds, with the adaptive config and the harness default
//! (`emit_updates` off). The simulation kernel, Matrix-server routing,
//! peer forwarding, the coordinator and splits, reclaims and handoffs
//! do the work; the flush and the codec do none.
//!
//! Each pass replays the same seeded scenario, so every pass must
//! produce the same report; the timed figures cover every pass.

use crate::stats::hist_quantile;
use crate::trace::Tracer;
use crate::{median, Outcome, RunCfg};
use matrix_experiments::harness::{Cluster, ClusterConfig, ClusterReport};
use matrix_games::{GameSpec, WorkloadSchedule};
use matrix_sim::SimTime;
use std::time::Instant;

/// Warm-up runs per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Simulated length of a warm-up run: the background joins and the
/// first hotspot's arrival.
const WARMUP_S: u64 = 20;
const TICK_S: f64 = 0.1;

fn scenario(seed: u64, traced: bool) -> (ClusterConfig, WorkloadSchedule) {
    let spec = GameSpec::bzflag();
    let schedule = WorkloadSchedule::figure2(&spec, 100);
    let mut cfg = ClusterConfig::adaptive(spec);
    cfg.seed = seed;
    cfg.game.flush_workers = 1;
    cfg.game.telemetry = traced;
    (cfg, schedule)
}

/// The seconds of simulated time one pass covers.
fn horizon_s() -> f64 {
    let (_, schedule) = scenario(0, false);
    schedule.horizon.as_secs_f64()
}

/// The report fields a replay of the same seed must reproduce.
fn fingerprint(r: &ClusterReport) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.events,
        r.switches,
        r.splits,
        r.reclaims,
        r.updates_processed,
        r.response_latency_us.count(),
        r.late_fraction.to_bits(),
    )
}

/// Passes of the scenario for at least `seconds` (at least one).
struct Passes {
    reports: Vec<ClusterReport>,
    wall_s: f64,
    cpu_s: f64,
}

impl Passes {
    fn run(seed: u64, traced: bool, seconds: f64, tr: &mut Tracer) -> Passes {
        let start = Instant::now();
        let cpu0 = crate::host::cpu_seconds();
        let mut reports = Vec::new();
        while reports.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let (cfg, schedule) = scenario(seed, traced);
            let t0 = Instant::now();
            reports.push(Cluster::new(cfg, schedule).run());
            tr.record("sim.pass", t0, Instant::now(), None, reports.len() as u64);
        }
        Passes {
            reports,
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: crate::host::cpu_seconds() - cpu0,
        }
    }

    fn game_s(&self) -> f64 {
        self.reports.len() as f64 * horizon_s()
    }

    fn cpu_ms_per_game_s(&self) -> f64 {
        self.cpu_s * 1e3 / self.game_s()
    }

    /// Simulated response latency, ms.
    fn latency_ms(&self, q: f64) -> Option<f64> {
        hist_quantile(&self.reports[0].response_latency_us, q).map(|us| us / 1e3)
    }

    /// Work counts and failures: dropped work and tolerated directory
    /// divergences count against processed updates, and every pass
    /// must reproduce the first.
    fn check(&self, out: &mut Outcome) {
        let first = fingerprint(&self.reports[0]);
        for r in &self.reports {
            out.attempted += r.updates_processed;
            out.failed += r.dropped_work.ceil() as u64 + r.coordinator.divergences;
            if fingerprint(r) != first {
                out.failed += 1;
                out.problems
                    .push("a replay of the same seed produced a different report".into());
            }
        }
        if self.reports[0].response_latency_us.count() < 1000 {
            out.problems.push("fewer than 1000 response samples".into());
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(Instant::now(), false);
    if cfg.trace {
        let base = Passes::run(cfg.seed, false, cfg.seconds / 2.0, &mut off);
        let mut tr = Tracer::new(Instant::now(), true);
        let traced = Passes::run(cfg.seed, true, cfg.seconds / 2.0, &mut tr);
        base.check(&mut out);
        traced.check(&mut out);
        layers(&mut out, &traced);
        let p50 = |p: &Passes| p.latency_ms(0.5).unwrap_or(f64::NAN);
        out.metric("trace.overhead_latency_ms_p50", p50(&traced) - p50(&base));
        out.metric(
            "trace.overhead_cpu_ms_per_game_s",
            traced.cpu_ms_per_game_s() - base.cpu_ms_per_game_s(),
        );
        out.spans = Some(tr);
        return out;
    }

    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            let (cfg_, mut schedule) = scenario(cfg.seed, false);
            schedule.horizon = SimTime::from_secs(WARMUP_S);
            Cluster::new(cfg_, schedule).run();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let passes = Passes::run(cfg.seed, false, cfg.seconds, &mut off);
    out.metric("peak_rss_mb", crate::host::peak_rss_mb());
    passes.check(&mut out);
    let r = &passes.reports[0];
    out.metric("setup_s", median(&setups));
    out.metric("latency_ms_p50", passes.latency_ms(0.5).unwrap_or(f64::NAN));
    out.metric(
        "latency_ms_p99",
        passes.latency_ms(0.99).unwrap_or(f64::NAN),
    );
    out.metric("cpu_ms_per_game_s", passes.cpu_ms_per_game_s());
    out.report("passes", passes.reports.len() as f64, "count");
    out.report("sim_speed", passes.game_s() / passes.wall_s, "s/s");
    out.report(
        "latency_samples",
        r.response_latency_us.count() as f64,
        "count",
    );
    out.report("late_frac", r.late_fraction, "frac");
    let switch_ms = hist_quantile(&r.switch_latency_us, 0.99).map_or(f64::NAN, |us| us / 1e3);
    out.report("switch_ms_p99", switch_ms, "ms");
    out.report(
        "switch_samples",
        r.switch_latency_us.count() as f64,
        "count",
    );
    out.report("splits", r.splits as f64, "count");
    out.report("reclaims", r.reclaims as f64, "count");
    out.report("switches", r.switches as f64, "count");
    out.report("sim_events", r.events as f64, "count");
    out
}

/// The per-layer metrics of the traced passes.
fn layers(out: &mut Outcome, p: &Passes) {
    let r = &p.reports[0];
    let game_s = horizon_s();
    let ticks = game_s / TICK_S;
    let per_s = |v: u64| v as f64 / game_s;
    out.metric("interest.fanned", r.updates_fanned as f64 / ticks);
    out.metric(
        "interest.rate_limited",
        r.updates_rate_limited as f64 / ticks,
    );
    out.metric("interest.sampled_out", r.updates_sampled_out as f64 / ticks);
    if r.updates_fanned > 0 {
        let delivered = r.batched_updates_delivered as f64;
        out.metric("interest.useful_frac", delivered / r.updates_fanned as f64);
    }
    out.metric("predict.suppressed", per_s(r.updates_suppressed));
    out.metric("server.peer_bytes", per_s(r.inter_server_bytes));
    out.metric("server.switches", per_s(r.switches));
    out.metric("coord.recomputes", per_s(r.coordinator.recomputes));
    out.metric("coord.tables_sent", per_s(r.coordinator.tables_sent));
    out.metric("pool.grants", per_s(r.pool.grants));
    out.metric("sim.events", r.events as f64);
    let events: u64 = p.reports.iter().map(|r| r.events).sum();
    out.metric("sim.events_per_s", events as f64 / p.wall_s);
    crate::telemetry_layers(out, None, Some(&r.telemetry));
}
