//! Dead-reckoning property suites.
//!
//! **Extrapolation determinism**: the sender's suppression decisions
//! simulate the receiver with the same arithmetic the receiver runs, so
//! for any random stream of bases, velocities and timestamps, the
//! sender-simulated prediction error equals the receiver's real
//! extrapolation error **bit-for-bit** — the property that turns the
//! per-ring error budget from a heuristic into a hard bound.
//!
//! **Budget bound, end-to-end**: random movement scripts through a
//! predicting `GameServerNode` with per-event flushes, every receiver
//! mirrored by a real `Extrapolator` fed from the emitted batches. At
//! every movement event, every in-AOI receiver's extrapolation error is
//! within its ring's configured budget (delivered events rebase to the
//! exact wire position; suppressed events were only suppressed because
//! the — identical — simulation stayed within budget).
//!
//! **Velocity codec round-trips**: velocity-tagged batch items survive
//! encode/decode exactly, and an item's velocity bit (item header bit 3)
//! is set exactly when it carries a velocity pair.
//!
//! **Byte-identical when off**: with `predict` off, a ringed node's
//! wire frames stay inside the PR 4 grammar — no item sets the velocity
//! bit, nothing is suppressed — so switching the feature off really
//! does restore the previous deployment's bytes. (The untiered half of this pin lives in
//! `tests/interest_properties.rs`:
//! `pipeline_is_byte_identical_to_the_hand_wired_flush_path`.)
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible).

use matrix_middleware::core::codec_v2::{self, Frame, FrameMeta, FrameStatus};
use matrix_middleware::core::{
    quantize, reconstruct_updates, ClientId, ClientToGame, DisseminationConfig, Extrapolator,
    GameAction, GameServerConfig, GameServerNode, GameToClient, RingSet, ServerId,
};
use matrix_middleware::geometry::{Point, Rect};
use matrix_middleware::predict::{extrapolate, Admission, PredictedStream};
use matrix_middleware::sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

/// Velocity bit of a v2 batch-item header byte (`docs/WIRE.md`).
const ITEM_VEL: u8 = 0x08;

/// Walks an encoded, untraced `UpdateBatch` frame and returns each
/// item's header byte, using the item layout in `docs/WIRE.md`.
fn item_headers(frame: &[u8]) -> Vec<u8> {
    use matrix_middleware::core::codec_v2::{CRC_BYTES, HEADER_BYTES};
    assert_eq!(frame[3] & 0x40, 0, "trace section not expected");
    let end = frame.len() - if frame[3] & 0x80 != 0 { CRC_BYTES } else { 0 };
    let mut at = HEADER_BYTES;
    let mut headers = Vec::new();
    while at < end {
        let h = frame[at];
        headers.push(h);
        let entity = if h & 0x10 != 0 { 8 } else { 3 };
        let len = if h & 0x80 != 0 { 8 } else { 2 };
        let coords = if h & 0x01 == 0 || h & 0x20 != 0 {
            16
        } else {
            6
        };
        let vel = match (h & ITEM_VEL != 0, h & 0x40 != 0) {
            (false, _) => 0,
            (true, false) => 6,
            (true, true) => 16,
        };
        at += 1 + entity + len + coords + vel;
    }
    assert_eq!(at, end, "items must tile the frame body");
    headers
}

// ---------------------------------------------------------------------------
// Extrapolation determinism
// ---------------------------------------------------------------------------

/// For random event streams, the sender's simulated receiver error and
/// the real receiver's extrapolation error are the same f64, bit for
/// bit, and suppression alone never lets the receiver drift past the
/// budget at event instants.
#[test]
fn sender_simulated_error_equals_receiver_error_bitwise() {
    let mut rng = SimRng::seed_from_u64(0xDEAD_0EC0);
    for case in 0..40 {
        let budget = rng.uniform(0.1, 20.0);
        let mut sender: PredictedStream<u32> = PredictedStream::new();
        let mut receiver = Extrapolator::new();
        let mut time = 0.0f64;
        let mut pos = Point::new(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0));
        let mut vel = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0));
        for step in 0..200 {
            time += rng.uniform(0.01, 0.5);
            // Mostly inertial motion with occasional swerves and
            // teleports, so both branches (suppress and rebase) fire.
            match rng.uniform_u64(0, 10) {
                0..=6 => {
                    pos = extrapolate(pos, vel, 0.1);
                }
                7..=8 => {
                    vel = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0));
                    pos = extrapolate(pos, vel, 0.1);
                }
                _ => {
                    pos = Point::new(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0));
                }
            }
            let receiver_err = receiver.predict(7, time).map(|p| p.distance(pos));
            match sender.admit(1, 7, pos, vel, time, budget) {
                Admission::Suppress { error } => {
                    let real = receiver_err.unwrap_or_else(|| {
                        panic!("case {case}: suppression requires a receiver-side basis")
                    });
                    assert_eq!(
                        error.to_bits(),
                        real.to_bits(),
                        "case {case} step {step}: simulated and real error must be \
                         the same f64"
                    );
                    assert!(
                        real <= budget,
                        "case {case} step {step}: suppressed at error {real} > {budget}"
                    );
                }
                Admission::Send => {
                    // The receiver hears about it and rebases — from
                    // here both sides hold the identical basis again.
                    receiver.update(7, pos, vel, time);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Budget bound, end-to-end through the game server
// ---------------------------------------------------------------------------

/// Random crowds and movement scripts through a predicting node: at
/// every movement event, every in-AOI receiver's mirrored extrapolation
/// is within its ring's error budget (up to the wire lattice quantum
/// for freshly delivered items).
#[test]
fn suppression_never_exceeds_the_ring_budget_end_to_end() {
    let mut rng = SimRng::seed_from_u64(0xB0D9E7);
    for case in 0..8 {
        let world = Rect::from_coords(0.0, 0.0, 800.0, 800.0);
        let radii = [rng.uniform(20.0, 60.0), rng.uniform(120.0, 300.0)];
        let budgets = [0.0, rng.uniform(0.5, 8.0)];
        let cfg = GameServerConfig {
            dissemination: DisseminationConfig {
                motion_window: rng.uniform_u64(2, 7) as u32,
                ..DisseminationConfig::default()
            }
            .with_rings(&radii, &[1, 1])
            .with_predict(&budgets),
            emit_updates: true,
            batch_interval: SimDuration::from_millis(0),
            ..GameServerConfig::default()
        };
        let rings = RingSet::from_tiers(&radii, &[1, 1]);
        let mut node = GameServerNode::new(ServerId(1), cfg).with_fanout();
        node.register(world, radii[1]);

        let clients = rng.uniform_u64(4, 10);
        let mut positions: BTreeMap<ClientId, Point> = BTreeMap::new();
        let mut mirrors: BTreeMap<ClientId, (Extrapolator, Option<Point>)> = BTreeMap::new();
        let mut velocities: BTreeMap<ClientId, (f64, f64)> = BTreeMap::new();
        for id in 0..clients {
            let pos = Point::new(rng.uniform(100.0, 700.0), rng.uniform(100.0, 700.0));
            positions.insert(ClientId(id), pos);
            mirrors.insert(ClientId(id), (Extrapolator::new(), None));
            velocities.insert(
                ClientId(id),
                (rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)),
            );
            node.on_client(
                SimTime::ZERO,
                ClientId(id),
                ClientToGame::Join {
                    pos,
                    state_bytes: 0,
                },
            );
        }

        let mut now = SimTime::ZERO;
        for step in 0..120u64 {
            now += SimDuration::from_millis(100);
            let id = ClientId(rng.uniform_u64(0, clients));
            // Mostly straight motion, occasional swerves — and full
            // stops, which exercise the zero-velocity rebase path: a
            // stopped entity's rebase omits the velocity pair on the
            // wire, and the receiver must pin it rather than keep
            // drifting at the old velocity.
            if rng.chance(0.15) {
                velocities.insert(id, (rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)));
            } else if rng.chance(0.1) {
                velocities.insert(id, (0.0, 0.0));
            }
            let v = velocities[&id];
            let pos = world.clamp(extrapolate(positions[&id], v, 0.1));
            positions.insert(id, pos);
            let wire = quantize(pos, GameServerConfig::default().origin_quantum);
            let actions = node.on_client(now, id, ClientToGame::Move { pos });
            for a in actions {
                let GameAction::ToClient(cid, GameToClient::UpdateBatch { updates }) = a else {
                    continue;
                };
                let (extrap, base) = mirrors.get_mut(&cid).expect("known receiver");
                let items = reconstruct_updates(base, &updates)
                    .expect("delta streams stay decodable in order");
                for u in items {
                    extrap.update(u.entity, u.origin, (u.vx, u.vy), now.as_secs_f64());
                }
            }
            for (&rid, (extrap, _)) in &mirrors {
                if rid == id {
                    continue;
                }
                let Some(predicted) = extrap.predict(id.0, now.as_secs_f64()) else {
                    continue;
                };
                let d = positions[&rid].distance(pos);
                let Some(ring) = rings.ring_of(d) else {
                    continue; // left the AOI: no delivery promise there
                };
                let err = predicted.distance(wire);
                let bound = if budgets[ring as usize] > 0.0 {
                    budgets[ring as usize]
                } else {
                    // Budget-0 rings deliver every event: the mirror just
                    // rebased onto the exact wire position.
                    1e-9
                };
                assert!(
                    err <= bound + 1e-9,
                    "case {case} step {step}: receiver {rid:?} sees entity {id:?} at \
                     error {err} > ring {ring} bound {bound}"
                );
            }
        }
        assert!(
            node.stats().updates_suppressed > 0,
            "case {case}: the scripts must actually exercise suppression"
        );
    }
}

// ---------------------------------------------------------------------------
// Velocity codec
// ---------------------------------------------------------------------------

/// Random velocity-tagged batches round-trip exactly, and each item's
/// velocity bit is set exactly when it carries a velocity pair.
#[test]
fn velocity_fields_round_trip_and_set_the_item_velocity_bit() {
    use matrix_middleware::core::{BatchItem, DeltaItem, UpdateItem};
    let mut rng = SimRng::seed_from_u64(0x7E10C17);
    for case in 0..200 {
        let mut updates = Vec::new();
        for _ in 0..rng.uniform_u64(1, 8) {
            let vel = if rng.chance(0.5) {
                (rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0))
            } else {
                (0.0, 0.0)
            };
            let item = if rng.chance(0.5) {
                BatchItem::Absolute(UpdateItem {
                    origin: Point::new(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)),
                    payload_bytes: rng.uniform_u64(0, 512) as usize,
                    entity: rng.uniform_u64(0, 50),
                    ring: rng.uniform_u64(0, 4) as u8,
                    vx: vel.0,
                    vy: vel.1,
                    trace: None,
                })
            } else {
                BatchItem::Delta(DeltaItem {
                    dx: rng.uniform(-100.0, 100.0),
                    dy: rng.uniform(-100.0, 100.0),
                    payload_bytes: rng.uniform_u64(0, 512) as usize,
                    entity: rng.uniform_u64(0, 50),
                    ring: rng.uniform_u64(0, 4) as u8,
                    vx: vel.0,
                    vy: vel.1,
                    trace: None,
                })
            };
            updates.push(item);
        }
        let msg = GameToClient::UpdateBatch {
            updates: updates.clone(),
        };
        let bytes = codec_v2::encode_server_frame(&msg, FrameMeta::default(), true);
        match codec_v2::decode_frame(&bytes) {
            Ok(FrameStatus::Complete {
                frame: Frame::Server(decoded),
                ..
            }) => assert_eq!(decoded, msg, "case {case}"),
            other => panic!("case {case}: {other:?}"),
        }
        for (u, h) in updates.iter().zip(item_headers(&bytes)) {
            assert_eq!(
                h & ITEM_VEL != 0,
                u.has_velocity(),
                "case {case}: velocity bit must match {u:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-identical when off
// ---------------------------------------------------------------------------

/// With `predict` off, a ringed node emits frames from the PR 4
/// grammar: nothing is suppressed and no item carries a velocity — the
/// feature leaves no trace on the wire when disabled.
#[test]
fn predict_off_leaves_the_wire_in_the_pr4_grammar() {
    let mut rng = SimRng::seed_from_u64(0x0FF0FF);
    for case in 0..10 {
        let world = Rect::from_coords(0.0, 0.0, 800.0, 800.0);
        let batch_interval = if rng.chance(0.3) {
            SimDuration::from_millis(0)
        } else {
            SimDuration::from_millis(50)
        };
        // Deliberately poisoned predictor knobs: they must be inert
        // while `predict` stays false.
        let mut dissemination = DisseminationConfig {
            motion_window: rng.uniform_u64(2, 9) as u32,
            ..DisseminationConfig::default()
        }
        .with_rings(
            &[rng.uniform(20.0, 60.0), rng.uniform(100.0, 200.0)],
            &[1, rng.uniform_u64(1, 4) as u32],
        );
        dissemination.error_budgets[1] = rng.uniform(1.0, 50.0);
        let cfg = GameServerConfig {
            dissemination,
            emit_updates: true,
            batch_interval,
            ..GameServerConfig::default()
        };
        assert!(!cfg.dissemination.predict);
        let mut node = GameServerNode::new(ServerId(1), cfg).with_fanout();
        node.register(world, 200.0);
        for id in 0..8u64 {
            node.on_client(
                SimTime::ZERO,
                ClientId(id),
                ClientToGame::Join {
                    pos: Point::new(rng.uniform(200.0, 600.0), rng.uniform(200.0, 600.0)),
                    state_bytes: 0,
                },
            );
        }
        for step in 0..60u64 {
            let actions = node.on_client(
                SimTime::from_millis(step * 40),
                ClientId(step % 8),
                ClientToGame::Move {
                    pos: Point::new(rng.uniform(200.0, 600.0), rng.uniform(200.0, 600.0)),
                },
            );
            for a in actions {
                let GameAction::ToClient(_, msg @ GameToClient::UpdateBatch { .. }) = a else {
                    continue;
                };
                let GameToClient::UpdateBatch { ref updates } = msg else {
                    unreachable!()
                };
                assert!(
                    updates.iter().all(|u| !u.has_velocity()),
                    "case {case}: velocity leaked onto a predict-off wire"
                );
                let bytes = codec_v2::encode_server_frame(&msg, FrameMeta::default(), true);
                assert!(
                    item_headers(&bytes).iter().all(|h| h & ITEM_VEL == 0),
                    "case {case}: velocity bit set on a predict-off wire"
                );
            }
        }
        assert_eq!(node.stats().updates_suppressed, 0, "case {case}");
        assert_eq!(node.prediction_receivers(), 0, "case {case}");
    }
}
