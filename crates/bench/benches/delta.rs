//! E14 — adaptive dissemination: bytes-on-wire and flush CPU of the
//! per-client delta/priority pipeline vs the absolute-origin baseline.
//!
//! PR 1 made fan-out *cheap to compute*; the v2 dissemination pipeline
//! makes it *cheap to ship*. This bench replays a dense-crowd workload
//! (the E12 shape: one hotspot crowd, every client moving every flush
//! interval) through three `GameServerNode` configurations that differ
//! only in the dissemination layer:
//!
//! * `absolute` — the v1 wire format: every batch item carries absolute
//!   origins, no per-client caps (`keyframe_every = 0`, limits off);
//! * `delta` — per-client delta compression alone (keyframe interval 8,
//!   limits off);
//! * `pipeline` — delta compression plus priority-aware rate limiting at
//!   the bzflag preset's `max_updates_per_flush = 64`.
//!
//! Identical inputs (same seeded crowd, same movement trace) drive all
//! three; the difference in `GameStats::batch_bytes` is the wire saving.
//! Recorded on the PR-2 machine, 800 hotspot clients × 160 movers/flush
//! × 30 flushes:
//!
//! | encoding  | batch MB | vs absolute | items shipped | delta share |
//! |-----------|---------:|------------:|--------------:|------------:|
//! | absolute  |    128.5 |           — |     2_460_129 |           — |
//! | delta     |     99.0 |      -22.9% |     2_460_129 |       99.9% |
//! | pipeline  |     59.4 |      -53.7% |     1_470_717 |       99.8% |
//!
//! Keyframes appear only on stream starts and the periodic interval
//! (delta share ≈ 99.8%), and the acceptance target — ≥ 40%
//! `UpdateBatch` bytes-on-wire reduction on the dense-crowd workload —
//! is met by the pipeline with room to spare (the delta encoding alone
//! contributes ~23%, the relevance-ordered rate limiter the rest by
//! deferring ~40% of peak-crowd items to later flushes). The criterion
//! groups below time the flush-side CPU of the same three
//! configurations (grid query, batching, priority sort and encoding
//! included): 265 ms (absolute) vs 291 ms (delta) vs 281 ms (pipeline)
//! per full replay on the recording machine, i.e. ~108–118 ns per
//! fanned item — the pipeline costs ~6% flush CPU while the bytes
//! halve.
//!
//! Run with `cargo bench -p matrix-bench --bench delta`; the byte
//! comparison prints before the timing groups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use matrix_core::{
    ClientId, ClientToGame, DisseminationConfig, GameServerConfig, GameServerNode, GameStats,
    ServerId,
};
use matrix_geometry::{Point, Rect};
use matrix_sim::{SimDuration, SimRng, SimTime};

const WORLD: f64 = 800.0;
/// bzflag's radius of visibility (every crowd member sees the hotspot).
const RADIUS: f64 = 100.0;
/// Crowd spread around the hotspot, as in E12 (`radius * 0.5`).
const SPREAD: f64 = 50.0;
const CLIENTS: usize = 800;
const MOVERS_PER_FLUSH: usize = 160;
const FLUSHES: usize = 30;

fn world() -> Rect {
    Rect::from_coords(0.0, 0.0, WORLD, WORLD)
}

/// The dense-crowd placement: gaussian pack around the E12 hotspot.
fn crowd(n: usize, rng: &mut SimRng) -> Vec<Point> {
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

/// Pre-generated movement trace so every configuration replays byte-for-
/// byte identical inputs: per flush round, `MOVERS_PER_FLUSH` clients
/// take a small random-walk step.
fn movement_trace(positions: &[Point], rng: &mut SimRng) -> Vec<Vec<(u64, Point)>> {
    let mut current = positions.to_vec();
    (0..FLUSHES)
        .map(|_| {
            (0..MOVERS_PER_FLUSH)
                .map(|_| {
                    let id = rng.uniform_u64(0, current.len() as u64);
                    let p = current[id as usize];
                    let next = Point::new(
                        (p.x + rng.uniform(-2.0, 2.0)).clamp(0.0, WORLD),
                        (p.y + rng.uniform(-2.0, 2.0)).clamp(0.0, WORLD),
                    );
                    current[id as usize] = next;
                    (id, next)
                })
                .collect()
        })
        .collect()
}

/// The three dissemination configurations under test.
fn configs() -> [(&'static str, GameServerConfig); 3] {
    let with = |keyframe_every, max_updates_per_flush| GameServerConfig {
        emit_updates: true,
        batch_interval: SimDuration::from_millis(50),
        dissemination: DisseminationConfig {
            keyframe_every,
            max_updates_per_flush,
            client_budget_bytes: 0,
            ..DisseminationConfig::default()
        },
        ..GameServerConfig::default()
    };
    [
        ("absolute", with(0, 0)),
        ("delta", with(8, 0)),
        ("pipeline", with(8, 64)),
    ]
}

/// Replays the workload through one configuration, returning the node's
/// dissemination counters.
fn run_workload(
    cfg: GameServerConfig,
    positions: &[Point],
    trace: &[Vec<(u64, Point)>],
) -> GameStats {
    let mut node = GameServerNode::new(ServerId(1), cfg).with_fanout();
    node.register(world(), RADIUS);
    for (i, &pos) in positions.iter().enumerate() {
        node.on_client(
            SimTime::ZERO,
            ClientId(i as u64),
            ClientToGame::Join {
                pos,
                state_bytes: 0,
            },
        );
    }
    let mut now = SimTime::ZERO;
    for round in trace {
        for &(id, pos) in round {
            node.on_client(now, ClientId(id), ClientToGame::Move { pos });
        }
        now += SimDuration::from_millis(50);
        node.on_tick(now, 0.0);
    }
    *node.stats()
}

fn print_byte_comparison(positions: &[Point], trace: &[Vec<(u64, Point)>]) {
    let mut absolute_bytes = 0u64;
    println!("delta bench — dense crowd: {CLIENTS} clients, {MOVERS_PER_FLUSH} movers/flush, {FLUSHES} flushes");
    for (name, cfg) in configs() {
        let stats = run_workload(cfg, positions, trace);
        if name == "absolute" {
            absolute_bytes = stats.batch_bytes;
        }
        let reduction = if absolute_bytes == 0 {
            0.0
        } else {
            100.0 * (1.0 - stats.batch_bytes as f64 / absolute_bytes as f64)
        };
        let items = stats.keyframe_items + stats.delta_items;
        let delta_share = if items == 0 {
            0.0
        } else {
            100.0 * stats.delta_items as f64 / items as f64
        };
        println!(
            "  {name:<9} batch_bytes={:>11} ({reduction:5.1}% vs absolute)  items={items:>8}  \
             delta%={delta_share:5.1}  rate_limited={}  saved={}",
            stats.batch_bytes, stats.updates_rate_limited, stats.delta_bytes_saved
        );
    }
}

fn bench_delta(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(0xDE17A);
    let positions = crowd(CLIENTS, &mut rng);
    let trace = movement_trace(&positions, &mut rng);

    // Bytes-on-wire comparison (the acceptance number) prints once.
    print_byte_comparison(&positions, &trace);

    // Flush CPU: one full workload replay per configuration. The replay
    // includes grid queries, batching, the priority sort and encoding —
    // the end-to-end flush-side cost a server actually pays.
    let mut group = c.benchmark_group("delta_flush_cpu");
    group.sample_size(10);
    for (name, cfg) in configs() {
        group.bench_with_input(BenchmarkId::new("workload", name), &cfg, |b, cfg| {
            b.iter(|| run_workload(*cfg, &positions, &trace));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_delta);
criterion_main!(benches);
