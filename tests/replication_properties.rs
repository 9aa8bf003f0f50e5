//! Replication-layer property suites.
//!
//! **Snapshot/restore equivalence**: for any randomly driven game
//! server, `restore(snapshot(node))` must reproduce the region
//! *observably* — the same client set, the same receiver sets, and
//! byte-identical future output: feeding both nodes an identical event
//! stream (including the next flush of whatever was pending at snapshot
//! time) must produce identical action lists, keyframe/delta decisions
//! included.
//!
//! **Codec transparency**: a snapshot that crosses the versioned wire
//! format (`matrix_core::codec`) must restore exactly like one that
//! never left the process.
//!
//! **Op-maintained convergence**: a standby fed the primary's replica
//! stream (one full snapshot, then incremental ops, with the log's
//! interval/lag/ack machinery in the loop) must hold the primary's
//! session state whenever the stream is drained.
//!
//! The companion *failover regression* — a killed node's clients keep
//! receiving updates with zero reconnects — lives next to the harness
//! it drives (`matrix-experiments`, `harness::tests::
//! failover_keeps_clients_connected_without_reconnects`) and in the rt
//! suite (`rt_cluster::killed_node_fails_over_to_its_warm_standby`).
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible).

use matrix_middleware::core::codec_v2::{self, Frame, FrameMeta, FrameStatus};
use matrix_middleware::core::{
    ClientId, ClientToGame, GameAction, GameServerConfig, GameServerNode, ReplicaBatch, ReplicaOp,
    ReplicaPayload,
};
use matrix_middleware::geometry::{Point, Rect, ServerId};
use matrix_middleware::replication::{ReplicaLog, ReplicaReceiver};
use matrix_middleware::sim::{SimDuration, SimRng, SimTime};

fn world() -> Rect {
    Rect::from_coords(0.0, 0.0, 1000.0, 1000.0)
}

fn node(id: u32) -> GameServerNode {
    let mut g = GameServerNode::new(ServerId(id), GameServerConfig::default()).with_fanout();
    g.register(world(), 80.0);
    g
}

fn random_pos(rng: &mut SimRng) -> Point {
    // Interior positions only: the equivalence drive must not trip the
    // roaming path, whose in-flight `resolving` flag is deliberately
    // not part of a snapshot (an owner query is re-asked after restore).
    Point::new(rng.uniform(50.0, 950.0), rng.uniform(50.0, 950.0))
}

/// One random client event applied to a node, returning the actions.
fn random_event(
    g: &mut GameServerNode,
    rng: &mut SimRng,
    now: SimTime,
    population: &mut Vec<u64>,
    next_id: &mut u64,
) -> Vec<GameAction> {
    let roll = rng.uniform_u64(0, 100);
    if population.is_empty() || roll < 20 {
        let id = *next_id;
        *next_id += 1;
        population.push(id);
        g.on_client(
            now,
            ClientId(id),
            ClientToGame::Join {
                pos: random_pos(rng),
                state_bytes: rng.uniform_u64(0, 4096),
            },
        )
    } else if roll < 30 && population.len() > 1 {
        let idx = rng.uniform_u64(0, population.len() as u64) as usize;
        let id = population.swap_remove(idx);
        g.on_client(now, ClientId(id), ClientToGame::Leave)
    } else {
        let idx = rng.uniform_u64(0, population.len() as u64) as usize;
        let id = population[idx];
        let pos = random_pos(rng);
        if rng.chance(0.5) {
            g.on_client(now, ClientId(id), ClientToGame::Move { pos })
        } else {
            g.on_client(
                now,
                ClientId(id),
                ClientToGame::Action {
                    pos,
                    payload_bytes: rng.uniform_u64(0, 256) as usize,
                },
            )
        }
    }
}

/// Drives a node through a random history of joins/moves/actions/leaves
/// with interleaved flushes, leaving some updates pending.
fn random_drive(g: &mut GameServerNode, rng: &mut SimRng, steps: u32) -> Vec<u64> {
    let mut population = Vec::new();
    let mut next_id = 1u64;
    let mut now = SimTime::ZERO;
    for _ in 0..steps {
        now += SimDuration::from_millis(rng.uniform_u64(1, 40));
        random_event(g, rng, now, &mut population, &mut next_id);
        if rng.chance(0.3) {
            g.on_tick(now, 0.0);
        }
    }
    population
}

/// Feeds both nodes the same post-snapshot script and asserts identical
/// observable output, starting with the flush of pending updates.
fn assert_future_equivalence(
    original: &mut GameServerNode,
    restored: &mut GameServerNode,
    population: &mut Vec<u64>,
    case: usize,
) {
    assert_eq!(
        restored.client_ids(),
        original.client_ids(),
        "case {case}: client set"
    );
    assert_eq!(
        restored.client_positions(),
        original.client_positions(),
        "case {case}: positions"
    );
    assert_eq!(
        restored.delta_streams(),
        original.delta_streams(),
        "case {case}: delta-stream table"
    );
    // The pending flush: same receiver sets, same items, same bytes.
    let now = SimTime::from_secs(100);
    assert_eq!(
        original.flush_updates(now),
        restored.flush_updates(now),
        "case {case}: next flush"
    );
    // And the future stays identical: same events in, same actions out.
    let mut next_id = 100_000;
    for step in 0..40 {
        let now = SimTime::from_secs(101) + SimDuration::from_millis(step * 37);
        let mut rng_a = SimRng::seed_from_u64(case as u64 * 1000 + step);
        let mut rng_b = SimRng::seed_from_u64(case as u64 * 1000 + step);
        let id_before = next_id;
        let mut pop_b = population.clone();
        let a = random_event(original, &mut rng_a, now, population, &mut next_id);
        let mut next_id_b = id_before;
        let b = random_event(restored, &mut rng_b, now, &mut pop_b, &mut next_id_b);
        assert_eq!(a, b, "case {case} step {step}: diverging actions");
        assert_eq!(next_id, next_id_b, "case {case} step {step}: id drift");
        *population = pop_b;
    }
    let flush_a = original.flush_updates(SimTime::from_secs(200));
    let flush_b = restored.flush_updates(SimTime::from_secs(200));
    assert_eq!(flush_a, flush_b, "case {case}: final flush");
}

#[test]
fn restore_of_snapshot_is_observably_equivalent() {
    let mut rng = SimRng::seed_from_u64(0xFA11_0E57);
    for case in 0..25 {
        let mut g = node(1);
        let mut population = random_drive(&mut g, &mut rng, 120);
        let snap = g.snapshot();
        let mut restored =
            GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
        restored.restore(snap);
        assert_future_equivalence(&mut g, &mut restored, &mut population, case);
    }
}

#[test]
fn snapshot_survives_the_versioned_wire_format() {
    let mut rng = SimRng::seed_from_u64(0x57AB_1E57);
    for case in 0..25 {
        let mut g = node(1);
        let mut population = random_drive(&mut g, &mut rng, 100);
        let batch = ReplicaBatch {
            seq: case as u64,
            payload: ReplicaPayload::Full(g.snapshot()),
        };
        let bytes = codec_v2::encode_replica_batch_frame(&batch, FrameMeta::default(), true);
        let decoded = match codec_v2::decode_frame(&bytes) {
            Ok(FrameStatus::Complete {
                frame: Frame::Replica(got),
                ..
            }) => *got,
            other => panic!("case {case}: expected a replica frame, got {other:?}"),
        };
        assert_eq!(decoded, batch, "case {case}: codec must be transparent");
        let ReplicaPayload::Full(decoded) = decoded.payload else {
            unreachable!("a full snapshot went in");
        };
        let mut restored =
            GameServerNode::new(ServerId(1), GameServerConfig::default()).with_fanout();
        restored.restore(decoded);
        assert_future_equivalence(&mut g, &mut restored, &mut population, case);
    }
}

#[test]
fn op_maintained_standby_converges_on_the_primary() {
    let mut rng = SimRng::seed_from_u64(0x5EA_F00D);
    for case in 0..25 {
        let mut g = node(1);
        let mut log: ReplicaLog<ClientId> =
            ReplicaLog::new(SimDuration::from_millis(200), rng.uniform_u64(0, 16) as u32);
        let mut receiver: ReplicaReceiver<ClientId> = ReplicaReceiver::new();
        let mut population = Vec::new();
        let mut next_id = 1u64;
        let mut now = SimTime::ZERO;
        for _ in 0..150 {
            now += SimDuration::from_millis(rng.uniform_u64(1, 60));
            // Mirror the node's own op recording: session events only.
            let before: Vec<u64> = g.client_ids().iter().map(|c| c.0).collect();
            random_event(&mut g, &mut rng, now, &mut population, &mut next_id);
            let after: Vec<u64> = g.client_ids().iter().map(|c| c.0).collect();
            for id in after.iter().filter(|id| !before.contains(id)) {
                log.record(ReplicaOp::Join {
                    client: ClientId(*id),
                    pos: position_of(&g, ClientId(*id)),
                    state_bytes: 0,
                });
            }
            for id in before.iter().filter(|id| !after.contains(id)) {
                log.record(ReplicaOp::Leave {
                    client: ClientId(*id),
                });
            }
            for id in after.iter().filter(|id| before.contains(id)) {
                log.record(ReplicaOp::Move {
                    client: ClientId(*id),
                    pos: position_of(&g, ClientId(*id)),
                });
            }
            // Ship on the log's own schedule, acks looped straight back.
            if log.due(now) {
                let batch = if log.needs_full() {
                    Some(log.ship_full(now, g.snapshot()))
                } else {
                    log.ship_ops(now)
                };
                if let Some(batch) = batch {
                    let ack = receiver.apply(batch);
                    log.ack(ack.seq, ack.resync);
                }
            }
        }
        // Drain the stream, then the standby must hold the primary's
        // session state exactly.
        now += SimDuration::from_secs(10);
        let batch = if log.needs_full() {
            Some(log.ship_full(now, g.snapshot()))
        } else {
            log.ship_ops(now)
        };
        if let Some(batch) = batch {
            let ack = receiver.apply(batch);
            log.ack(ack.seq, ack.resync);
        }
        let mirrored = receiver.snapshot().expect("warm after a full snapshot");
        let truth = g.snapshot();
        // The mirror carries every session at its current position (the
        // manual op feed above does not know join-time state sizes, so
        // only identity and position are compared; the real primary
        // records full Join ops).
        let mirror_sessions: Vec<(ClientId, Point)> =
            mirrored.clients.iter().map(|(c, s)| (*c, s.pos)).collect();
        let truth_sessions: Vec<(ClientId, Point)> =
            truth.clients.iter().map(|(c, s)| (*c, s.pos)).collect();
        assert_eq!(
            mirror_sessions, truth_sessions,
            "case {case}: standby session state diverged"
        );
    }
}

fn position_of(g: &GameServerNode, id: ClientId) -> Point {
    let ids = g.client_ids();
    let positions = g.client_positions();
    ids.iter()
        .position(|c| *c == id)
        .map(|i| positions[i])
        .expect("client present")
}
