//! Wire-codec gate: for a dense-crowd `UpdateBatch` stream, the v2
//! encoder's output size is pinned by two deterministic checks.
//!
//! The workload is the dissemination hot path's output shape: per-flush
//! batches of mostly delta items (lattice-snapped sub-unit moves, ~1/8
//! keyframes, entity + ring tags, some velocity tags), framed exactly
//! as the gateway puts them on a socket (header + CRC trailer). The
//! process **exits non-zero** when
//!
//! * the encoded bytes differ from `Σ update_batch_frame_len`, the
//!   arithmetic mirror the byte accounting charges without encoding, or
//! * the encoded bytes differ from [`PINNED_BYTES`], the total this
//!   seeded fixture produced when the gate was set: any change to the
//!   wire layout shows up here and must be a deliberate re-pin.
//!
//! Encode time (best of [`ROUNDS`]) is printed for the record only; it
//! depends on the host and gates nothing.

use matrix_core::codec_v2::{self, FrameMeta};
use matrix_core::{BatchItem, DeltaItem, GameToClient, UpdateItem};
use matrix_geometry::Point;
use matrix_sim::SimRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Flushed batches per round — one per client per tick in a crowd.
const BATCHES: usize = 2000;
/// Visible neighbours per client in the dense hotspot.
const ITEMS_PER_BATCH: usize = 48;
/// Timed encode rounds (report only).
const ROUNDS: usize = 5;
/// Total encoded bytes of the fixture stream, CRC trailers included.
const PINNED_BYTES: usize = 1_435_674;

/// Lattice-snapped value with 1/256 granularity, like every coordinate
/// the pipeline emits after `quantize`.
fn lattice(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    (rng.uniform(lo, hi) * 256.0).round() / 256.0
}

/// One flush's worth of updates, shaped like the delta encoder's
/// output for a dense crowd: mostly sub-unit deltas, a keyframe every
/// ~8 items (the stream resync cadence), outer-ring items velocity
/// tagged as the predictor would.
fn dense_batches() -> Vec<GameToClient> {
    let mut rng = SimRng::seed_from_u64(0xBA7C);
    (0..BATCHES)
        .map(|_| {
            let updates = (0..ITEMS_PER_BATCH)
                .map(|i| {
                    let entity = rng.uniform_u64(1, 4000);
                    let ring = rng.uniform_u64(0, 3) as u8;
                    let (vx, vy) = if ring > 0 && rng.chance(0.3) {
                        (lattice(&mut rng, -8.0, 8.0), lattice(&mut rng, -8.0, 8.0))
                    } else {
                        (0.0, 0.0)
                    };
                    if i % 8 == 0 {
                        BatchItem::Absolute(UpdateItem {
                            origin: Point::new(
                                lattice(&mut rng, 0.0, 800.0),
                                lattice(&mut rng, 0.0, 800.0),
                            ),
                            payload_bytes: 64,
                            entity,
                            ring,
                            vx,
                            vy,
                            trace: None,
                        })
                    } else {
                        BatchItem::Delta(DeltaItem {
                            dx: lattice(&mut rng, -2.0, 2.0),
                            dy: lattice(&mut rng, -2.0, 2.0),
                            payload_bytes: 64,
                            entity,
                            ring,
                            vx,
                            vy,
                            trace: None,
                        })
                    }
                })
                .collect();
            GameToClient::UpdateBatch { updates }
        })
        .collect()
}

/// Encodes the whole stream once; returns (elapsed, bytes on the wire).
fn run_round(batches: &[GameToClient]) -> (Duration, usize) {
    let t0 = Instant::now();
    let mut bytes = 0usize;
    let mut meta = FrameMeta::default();
    for msg in batches {
        let frame = codec_v2::encode_server_frame(msg, meta, true);
        bytes += frame.len();
        black_box(&frame);
        meta.seq += 1;
    }
    (t0.elapsed(), bytes)
}

fn main() {
    let batches = dense_batches();
    let predicted: usize = batches
        .iter()
        .map(|msg| match msg {
            GameToClient::UpdateBatch { updates } => {
                codec_v2::update_batch_frame_len(updates, true)
            }
            _ => unreachable!("the fixture holds batches only"),
        })
        .sum();
    let mut best = Duration::MAX;
    let mut encoded = 0;
    for _ in 0..ROUNDS {
        let (t, bytes) = run_round(&batches);
        best = best.min(t);
        encoded = bytes;
    }
    println!(
        "v2 encode: best {:.3} ms over {ROUNDS} rounds (report only)",
        best.as_secs_f64() * 1e3
    );
    println!("bytes on wire: encoded {encoded}, predicted {predicted}, pinned {PINNED_BYTES}");
    let mut failed = false;
    for (check, expected) in [
        ("codec_bytes_vs_frame_len", predicted),
        ("codec_bytes_vs_pin", PINNED_BYTES),
    ] {
        if encoded != expected {
            matrix_core::emit_diag(
                "bench",
                check,
                &[
                    ("encoded", &encoded.to_string()),
                    ("expected", &expected.to_string()),
                ],
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("v2 codec bytes match the frame-length mirror and the pin");
}
