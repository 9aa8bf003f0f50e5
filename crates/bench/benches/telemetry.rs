//! Telemetry overhead gate (ISSUE 6, extended by ISSUE 10): the
//! instrumented hot path must cost at most 2% more flush CPU than the
//! telemetry-off build, and sampled causal tracing (1/64) at most 5%.
//!
//! With `GameServerConfig::telemetry` off, the spans/histograms are
//! no-op sinks — one branch, zero clock reads. This bench proves that
//! claim on the real dissemination hot path: a dense hotspot crowd
//! (2000 clients on one server) moving every tick, with batching and
//! the full pipeline (query → tier → predict → policy → delta) flushing
//! on the tick cadence. It runs the identical workload with telemetry
//! off, telemetry on, and telemetry on + trace sampling in rotating
//! rounds, takes the best round of each (the usual min-of-N noise
//! filter), and **exits non-zero** when `(arm - off) / off` exceeds the
//! arm's budget — so CI fails the build on an overhead regression, not
//! a human reading a report.
//!
//! Pass `--flush-workers N` to run the whole gate on the sharded flush,
//! which above one worker runs each shard on its own thread as
//! `matrix-rt` does (CI runs 1 and 4): the budgets must hold at any
//! worker count.
//!
//! Not a criterion bench on purpose: the verdict needs a process exit
//! code, and the arms must interleave in one process to share
//! thermal/cache conditions.

use matrix_core::{ClientId, ClientToGame, GameServerConfig, GameServerNode};
use matrix_geometry::{Point, Rect, ServerId};
use matrix_sim::{SimRng, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

const WORLD: f64 = 800.0;
const RADIUS: f64 = 100.0;
/// Hotspot crowd spread (σ), same shape as the fanout bench.
const SPREAD: f64 = 150.0;
const CLIENTS: usize = 2000;
const TICKS: usize = 20;
/// Rounds always run, even on a quiet machine.
const MIN_ROUNDS: usize = 4;
/// Extra rounds allowed before a breach is final: scheduler noise on a
/// busy host inflates single rounds by more than the budget, and
/// min-of-N only converges to the true floor with enough N. A real
/// regression stays over budget no matter how many rounds run.
const MAX_ROUNDS: usize = 12;
/// The hard budget: telemetry-on flush CPU within 2% of telemetry-off.
const BUDGET: f64 = 0.02;
/// The tracing budget: telemetry on + 1/64 trace sampling within 5%.
const TRACE_BUDGET: f64 = 0.05;
/// The sample rate the tracing arm runs (and E16 declares).
const TRACE_SAMPLE_RATE: u32 = 64;

fn config(telemetry: bool, trace_sample_rate: u32, flush_workers: u32) -> GameServerConfig {
    GameServerConfig {
        telemetry,
        trace_sample_rate,
        flush_workers,
        emit_updates: true,
        ..GameServerConfig::default()
    }
}

fn hotspot_positions(n: usize) -> Vec<Point> {
    let mut rng = SimRng::seed_from_u64(0x7E1E);
    let center = Point::new(WORLD * 0.6, WORLD * 0.5);
    (0..n)
        .map(|_| {
            Point::new(
                rng.normal(center.x, SPREAD).clamp(0.0, WORLD),
                rng.normal(center.y, SPREAD).clamp(0.0, WORLD),
            )
        })
        .collect()
}

/// One timed round: every client moves each tick, the server ticks (and
/// flushes) after. Join/build cost stays outside the timed section.
fn run_round(
    telemetry: bool,
    trace_sample_rate: u32,
    flush_workers: u32,
    positions: &[Point],
) -> Duration {
    let world = Rect::from_coords(0.0, 0.0, WORLD, WORLD);
    let cfg = config(telemetry, trace_sample_rate, flush_workers);
    let tick = cfg.tick;
    let mut game = GameServerNode::new(ServerId(1), cfg);
    game.register(world, RADIUS);
    for (k, p) in positions.iter().enumerate() {
        game.on_client(
            SimTime::ZERO,
            ClientId(k as u64),
            ClientToGame::Join {
                pos: *p,
                state_bytes: 256,
            },
        );
    }
    // One untimed warm-up tick settles grids and batch state.
    let mut now = SimTime::ZERO + tick;
    black_box(game.on_tick(now, 0.0));

    let t0 = Instant::now();
    let mut sink = 0usize;
    for step in 0..TICKS {
        for (k, p) in positions.iter().enumerate() {
            let jitter = ((step + k) % 7) as f64 - 3.0;
            let pos = Point::new(
                (p.x + jitter).clamp(0.0, WORLD),
                (p.y - jitter).clamp(0.0, WORLD),
            );
            sink += game
                .on_client(now, ClientId(k as u64), ClientToGame::Move { pos })
                .len();
        }
        now += tick;
        sink += game.on_tick(now, 0.0).len();
    }
    black_box(sink);
    t0.elapsed()
}

fn main() {
    let mut flush_workers = 1u32;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // Harness flags (e.g. --bench from `cargo bench`) pass through.
        if arg == "--flush-workers" {
            flush_workers = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--flush-workers needs an integer");
                std::process::exit(2)
            });
        }
    }
    let positions = hotspot_positions(CLIENTS);
    // Rotate the arms so drift (thermal, cache, scheduler) hits all of
    // them alike.
    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    let mut best_traced = Duration::MAX;
    let mut overhead = f64::INFINITY;
    let mut trace_overhead = f64::INFINITY;
    for round in 0..MAX_ROUNDS {
        let off = run_round(false, 0, flush_workers, &positions);
        let on = run_round(true, 0, flush_workers, &positions);
        let traced = run_round(true, TRACE_SAMPLE_RATE, flush_workers, &positions);
        best_off = best_off.min(off);
        best_on = best_on.min(on);
        best_traced = best_traced.min(traced);
        println!(
            "round {round}: off {:>8.3} ms   on {:>8.3} ms   traced {:>8.3} ms",
            off.as_secs_f64() * 1e3,
            on.as_secs_f64() * 1e3,
            traced.as_secs_f64() * 1e3
        );
        overhead = (best_on.as_secs_f64() - best_off.as_secs_f64()) / best_off.as_secs_f64();
        trace_overhead =
            (best_traced.as_secs_f64() - best_off.as_secs_f64()) / best_off.as_secs_f64();
        if round + 1 >= MIN_ROUNDS && overhead <= BUDGET && trace_overhead <= TRACE_BUDGET {
            break;
        }
    }
    let off = best_off.as_secs_f64();
    println!(
        "telemetry overhead ({flush_workers} flush worker(s)): best-off {:.3} ms, \
         best-on {:.3} ms => {:+.2}% (budget {:.0}%), \
         best-traced {:.3} ms => {:+.2}% (budget {:.0}%)",
        off * 1e3,
        best_on.as_secs_f64() * 1e3,
        overhead * 100.0,
        BUDGET * 100.0,
        best_traced.as_secs_f64() * 1e3,
        trace_overhead * 100.0,
        TRACE_BUDGET * 100.0
    );
    if overhead > BUDGET || trace_overhead > TRACE_BUDGET {
        matrix_core::emit_diag(
            "bench",
            "telemetry_overhead_exceeded",
            &[
                ("overhead", &format!("{:.4}", overhead)),
                ("budget", &format!("{:.4}", BUDGET)),
                ("trace_overhead", &format!("{:.4}", trace_overhead)),
                ("trace_budget", &format!("{:.4}", TRACE_BUDGET)),
                ("flush_workers", &flush_workers.to_string()),
            ],
        );
        std::process::exit(1);
    }
    println!("telemetry overhead within budget");
}
