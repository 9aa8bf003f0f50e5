//! Property tests of wire protocol v2 (`docs/WIRE.md`): for every frame
//! type, the round-trip of random messages is the identity, header
//! metadata included. Also pins the interest layer's `WIRE_BYTES`
//! constants to the *measured* encoded lengths of the corresponding
//! items.
//!
//! Randomization is driven by the workspace's own seeded [`SimRng`]
//! (fixed seeds, so failures are reproducible) instead of an external
//! property-testing framework, keeping the build offline-friendly.

use matrix_middleware::core::codec_v2::{self, Frame, FrameMeta, FrameStatus};
use matrix_middleware::core::{
    BatchItem, ClientId, ClientToGame, DeltaItem, GameToClient, LoadReport, RegionSnapshot,
    ReplicaBatch, ReplicaOp, UpdateItem, MAX_RINGS,
};
use matrix_middleware::geometry::{Point, Rect, ServerId};
use matrix_middleware::replication::{
    PendingUpdate, PredictBasis, ReplicaPayload, SessionState, StreamBase, TunerState,
};
use matrix_middleware::sim::{SimRng, SimTime};
use matrix_middleware::telemetry::{HistSnapshot, TelemetrySnapshot};

const CASES: usize = 64;

/// A coordinate on the v2 codec's 1/256 lattice (canonical narrow
/// encoding); the wide-escape path is exercised by `raw_point`.
fn lattice_coord(rng: &mut SimRng) -> f64 {
    (rng.uniform(-30_000.0, 30_000.0) * 256.0).round() / 256.0
}

fn lattice_point(rng: &mut SimRng) -> Point {
    Point::new(lattice_coord(rng), lattice_coord(rng))
}

/// An arbitrary finite point: almost never lattice-representable, so
/// items carrying it take the wide (full f64) escape hatch.
fn raw_point(rng: &mut SimRng) -> Point {
    Point::new(rng.uniform(-1.0e7, 1.0e7), rng.uniform(-1.0e7, 1.0e7))
}

fn any_point(rng: &mut SimRng) -> Point {
    if rng.chance(0.25) {
        raw_point(rng)
    } else {
        lattice_point(rng)
    }
}

/// Entity ids: mostly small (narrow u24), sometimes huge (wide u64),
/// sometimes zero (anonymous — the presence bit stays clear).
fn entity(rng: &mut SimRng) -> u64 {
    match rng.uniform_u64(0, 4) {
        0 => 0,
        1 => rng.uniform_u64(1, 1 << 24),
        2 => rng.uniform_u64(1 << 24, u64::MAX),
        _ => rng.uniform_u64(1, 500),
    }
}

/// Payload sizes: mostly narrow (u16), sometimes wide.
fn payload(rng: &mut SimRng) -> usize {
    if rng.chance(0.15) {
        rng.uniform_u64(1 << 16, 1 << 40) as usize
    } else {
        rng.uniform_u64(0, 1 << 16) as usize
    }
}

/// A velocity pair — `(0, 0)` means "absent" on the wire, so the
/// generator covers present and absent explicitly.
fn velocity(rng: &mut SimRng) -> (f64, f64) {
    if rng.chance(0.4) {
        (0.0, 0.0)
    } else if rng.chance(0.2) {
        (rng.uniform(-900.0, 900.0), rng.uniform(-900.0, 900.0))
    } else {
        (lattice_coord(rng) / 100.0, lattice_coord(rng) / 100.0)
    }
}

fn ring(rng: &mut SimRng) -> u8 {
    rng.uniform_u64(0, MAX_RINGS as u64) as u8
}

/// A causal trace tag — absent most of the time (sampling is sparse by
/// design), charged (`stale_us > 0`) sometimes, so both the plain and
/// the suppression-charged shapes round-trip.
fn trace(rng: &mut SimRng) -> Option<matrix_middleware::telemetry::TraceTag> {
    if rng.chance(0.7) {
        return None;
    }
    Some(matrix_middleware::telemetry::TraceTag {
        origin: rng.uniform_u64(0, 1 << 20) as u32,
        seq: rng.uniform_u64(0, u32::MAX as u64) as u32,
        ingest_us: rng.uniform_u64(0, 1 << 50),
        stale_us: if rng.chance(0.5) {
            rng.uniform_u64(0, 1 << 30)
        } else {
            0
        },
    })
}

/// One batch item hitting a random cell of the optional-field matrix:
/// absolute/delta × entity present/absent × ring × velocity × narrow/
/// wide encodings.
fn batch_item(rng: &mut SimRng) -> BatchItem {
    let (vx, vy) = velocity(rng);
    if rng.chance(0.5) {
        BatchItem::Absolute(UpdateItem {
            origin: any_point(rng),
            payload_bytes: payload(rng),
            entity: entity(rng),
            ring: ring(rng),
            vx,
            vy,
            trace: trace(rng),
        })
    } else {
        BatchItem::Delta(DeltaItem {
            dx: lattice_coord(rng) / 100.0,
            dy: lattice_coord(rng) / 100.0,
            payload_bytes: payload(rng),
            entity: entity(rng),
            ring: ring(rng),
            vx,
            vy,
            trace: trace(rng),
        })
    }
}

fn client_msg(rng: &mut SimRng) -> ClientToGame {
    match rng.uniform_u64(0, 5) {
        0 => ClientToGame::Join {
            pos: any_point(rng),
            state_bytes: rng.uniform_u64(0, 1 << 32),
        },
        1 => ClientToGame::Move {
            pos: any_point(rng),
        },
        2 => ClientToGame::Action {
            pos: any_point(rng),
            payload_bytes: payload(rng),
        },
        3 => ClientToGame::TraceAck {
            ring: ring(rng),
            latency_us: rng.uniform_u64(0, 1 << 40),
            staleness_us: rng.uniform_u64(0, 1 << 40),
        },
        _ => ClientToGame::Leave,
    }
}

fn server_msg(rng: &mut SimRng) -> GameToClient {
    match rng.uniform_u64(0, 5) {
        0 => GameToClient::Joined {
            server: ServerId(rng.uniform_u64(1, 1 << 20) as u32),
        },
        1 => GameToClient::Ack {
            seq: rng.uniform_u64(0, u64::MAX),
        },
        2 => GameToClient::Update {
            origin: any_point(rng),
            payload_bytes: payload(rng),
        },
        3 => GameToClient::SwitchServer {
            to: ServerId(rng.uniform_u64(1, 1 << 20) as u32),
        },
        _ => GameToClient::UpdateBatch {
            updates: (0..rng.uniform_u64(0, 12))
                .map(|_| batch_item(rng))
                .collect(),
        },
    }
}

fn telemetry(rng: &mut SimRng) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::new();
    for i in 0..rng.uniform_u64(0, 5) {
        snap.counter(format!("c{i}"), rng.uniform_u64(0, 1 << 40));
    }
    for i in 0..rng.uniform_u64(0, 3) {
        snap.hists.push(HistSnapshot {
            name: format!("h{i}"),
            count: rng.uniform_u64(0, 1 << 20),
            sum: rng.uniform(0.0, 1.0e9),
            min: rng.uniform(0.0, 10.0),
            max: rng.uniform(10.0, 1.0e6),
            buckets: (0..rng.uniform_u64(0, 6))
                .map(|b| (b as u32 * 3, rng.uniform_u64(1, 1 << 30)))
                .collect(),
        });
    }
    snap.events_dropped = rng.uniform_u64(0, 1 << 30);
    snap.events_seen = rng.uniform_u64(0, 1 << 40);
    snap
}

fn snapshot(rng: &mut SimRng) -> RegionSnapshot {
    let mut snap = RegionSnapshot {
        range: if rng.chance(0.8) {
            let a = raw_point(rng);
            Some(Rect::from_coords(
                a.x,
                a.y,
                a.x + rng.uniform(1.0, 1000.0),
                a.y + rng.uniform(1.0, 1000.0),
            ))
        } else {
            None
        },
        radius: rng.uniform(0.0, 500.0),
        ready: rng.chance(0.5),
        seq: rng.uniform_u64(0, u64::MAX),
        last_flush: SimTime::from_micros(rng.uniform_u64(0, 1 << 50)),
        tuner: if rng.chance(0.5) {
            Some(TunerState {
                cells: rng.uniform_u64(1, 512) as u32,
                streak: rng.uniform_u64(0, 10) as u32,
                pending: rng.uniform_u64(0, 512) as u32,
            })
        } else {
            None
        },
        ..RegionSnapshot::default()
    };
    for _ in 0..rng.uniform_u64(0, 6) {
        let id = ClientId(rng.uniform_u64(1, 1 << 30));
        snap.clients.insert(
            id,
            SessionState {
                pos: any_point(rng),
                state_bytes: rng.uniform_u64(0, 1 << 32),
            },
        );
        if rng.chance(0.6) {
            snap.streams.insert(
                id,
                StreamBase {
                    base: any_point(rng),
                    countdown: rng.uniform_u64(0, 64) as u32,
                },
            );
        }
        if rng.chance(0.4) {
            let (vx, vy) = velocity(rng);
            snap.pending.insert(
                id,
                (0..rng.uniform_u64(1, 4))
                    .map(|_| PendingUpdate {
                        origin: any_point(rng),
                        payload_bytes: payload(rng),
                        entity: entity(rng),
                        ring: ring(rng),
                        vx,
                        vy,
                        trace: trace(rng),
                    })
                    .collect(),
            );
        }
        if rng.chance(0.3) {
            snap.bases.insert(
                id,
                (0..rng.uniform_u64(1, 3))
                    .map(|_| PredictBasis {
                        entity: entity(rng),
                        pos: any_point(rng),
                        vx: rng.uniform(-50.0, 50.0),
                        vy: rng.uniform(-50.0, 50.0),
                        time_secs: rng.uniform(0.0, 1.0e6),
                    })
                    .collect(),
            );
        }
    }
    snap
}

fn replica_batch(rng: &mut SimRng) -> ReplicaBatch {
    let payload = if rng.chance(0.5) {
        ReplicaPayload::Full(snapshot(rng))
    } else {
        ReplicaPayload::Ops(
            (0..rng.uniform_u64(0, 8))
                .map(|_| match rng.uniform_u64(0, 4) {
                    0 => ReplicaOp::Join {
                        client: ClientId(rng.uniform_u64(1, 1 << 30)),
                        pos: any_point(rng),
                        state_bytes: rng.uniform_u64(0, 1 << 32),
                    },
                    1 => ReplicaOp::Move {
                        client: ClientId(rng.uniform_u64(1, 1 << 30)),
                        pos: any_point(rng),
                    },
                    2 => ReplicaOp::Leave {
                        client: ClientId(rng.uniform_u64(1, 1 << 30)),
                    },
                    _ => {
                        let a = raw_point(rng);
                        ReplicaOp::Range {
                            range: Rect::from_coords(a.x, a.y, a.x + 100.0, a.y + 50.0),
                            radius: rng.uniform(0.0, 500.0),
                        }
                    }
                })
                .collect(),
        )
    };
    ReplicaBatch {
        seq: rng.uniform_u64(0, u64::MAX),
        payload,
    }
}

fn load_report(rng: &mut SimRng) -> LoadReport {
    LoadReport {
        clients: rng.uniform_u64(0, 1 << 20) as u32,
        queue_backlog: rng.uniform(0.0, 1.0e4),
        positions: (0..rng.uniform_u64(0, 10))
            .map(|_| any_point(rng))
            .collect(),
        telemetry: if rng.chance(0.5) {
            Some(Box::new(telemetry(rng)))
        } else {
            None
        },
    }
}

fn meta(rng: &mut SimRng) -> FrameMeta {
    FrameMeta {
        seq: rng.uniform_u64(0, u64::MAX),
        stamp_ms: rng.uniform_u64(0, 1 << 32) as u32,
    }
}

/// Binary round-trip must be the identity, byte count must be exact,
/// and the transport metadata must survive. Returns the decoded frame.
fn assert_binary_roundtrip(case: usize, frame: &Frame, m: FrameMeta, crc: bool) -> Frame {
    let bytes = codec_v2::encode_frame(frame, m, crc);
    match codec_v2::decode_frame(&bytes) {
        Ok(FrameStatus::Complete {
            frame: decoded,
            meta: dm,
            consumed,
        }) => {
            assert_eq!(&decoded, frame, "case {case}: binary round-trip drifted");
            assert_eq!(dm, m, "case {case}: header metadata drifted");
            assert_eq!(consumed, bytes.len(), "case {case}: length accounting");
            decoded
        }
        other => panic!("case {case}: expected a complete frame, got {other:?}"),
    }
}

#[test]
fn client_frames_round_trip() {
    let mut rng = SimRng::seed_from_u64(0xC0DE_C001);
    for case in 0..CASES {
        let msg = client_msg(&mut rng);
        let m = meta(&mut rng);
        let crc = rng.chance(0.5);
        assert_binary_roundtrip(case, &Frame::Client(msg), m, crc);
    }
}

#[test]
fn server_frames_round_trip() {
    let mut rng = SimRng::seed_from_u64(0xC0DE_C002);
    for case in 0..CASES {
        let msg = server_msg(&mut rng);
        let m = meta(&mut rng);
        let crc = rng.chance(0.5);
        assert_binary_roundtrip(case, &Frame::Server(msg), m, crc);
    }
}

#[test]
fn every_batch_item_shape_round_trips() {
    // The full optional-field matrix, deliberately: absolute and delta
    // items, entity/ring/velocity present and absent, narrow lattice
    // and wide-escape encodings — one batch per cell combination.
    let mut rng = SimRng::seed_from_u64(0xC0DE_C003);
    for case in 0..CASES * 4 {
        let updates: Vec<BatchItem> = (0..rng.uniform_u64(1, 8))
            .map(|_| batch_item(&mut rng))
            .collect();
        let msg = GameToClient::UpdateBatch { updates };
        assert_binary_roundtrip(case, &Frame::Server(msg), meta(&mut rng), true);
    }
}

#[test]
fn replica_frames_round_trip() {
    let mut rng = SimRng::seed_from_u64(0xC0DE_C004);
    for case in 0..CASES {
        let batch = replica_batch(&mut rng);
        let m = meta(&mut rng);
        assert_binary_roundtrip(case, &Frame::Replica(Box::new(batch)), m, rng.chance(0.5));
        let (seq, resync) = (rng.uniform_u64(0, u64::MAX), rng.chance(0.5));
        assert_binary_roundtrip(case, &Frame::ReplicaAck { seq, resync }, m, true);
    }
}

#[test]
fn stats_and_load_frames_round_trip() {
    use matrix_middleware::core::codec_v2::StatsFormat;
    let mut rng = SimRng::seed_from_u64(0xC0DE_C005);
    for case in 0..CASES {
        for fmt in [StatsFormat::Binary, StatsFormat::Prom] {
            assert_binary_roundtrip(case, &Frame::StatsQuery(fmt), meta(&mut rng), true);
        }

        let nodes: Vec<(ServerId, TelemetrySnapshot)> = (0..rng.uniform_u64(0, 4))
            .map(|i| (ServerId(i as u32 + 1), telemetry(&mut rng)))
            .collect();
        assert_binary_roundtrip(
            case,
            &Frame::StatsReply(nodes),
            meta(&mut rng),
            rng.chance(0.5),
        );

        let report = load_report(&mut rng);
        assert_binary_roundtrip(
            case,
            &Frame::Load(Box::new(report)),
            meta(&mut rng),
            rng.chance(0.5),
        );
    }
}

#[test]
fn hello_frames_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0xC0DE_C006);
    for case in 0..CASES {
        let frame = Frame::Hello {
            version: rng.uniform_u64(0, 256) as u8,
        };
        assert_binary_roundtrip(case, &frame, meta(&mut rng), rng.chance(0.5));
    }
}

#[test]
fn frame_len_predicts_the_encoder_exactly() {
    // The byte-accounting path (`update_batch_frame_len`) never
    // allocates a frame; it must agree with the real encoder on every
    // random batch, with and without the CRC trailer.
    let mut rng = SimRng::seed_from_u64(0xC0DE_C007);
    for case in 0..CASES * 2 {
        let updates: Vec<BatchItem> = (0..rng.uniform_u64(0, 20))
            .map(|_| batch_item(&mut rng))
            .collect();
        for crc in [false, true] {
            let predicted = codec_v2::update_batch_frame_len(&updates, crc);
            let msg = GameToClient::UpdateBatch {
                updates: updates.clone(),
            };
            let actual = codec_v2::encode_server_frame(&msg, FrameMeta::default(), crc).len();
            assert_eq!(predicted, actual, "case {case} crc={crc}: {updates:?}");
        }
        let item_sum: usize = updates.iter().map(codec_v2::batch_item_wire_len).sum();
        // Trace tags ride in a frame-level section (u16 count + fixed
        // entries), not in per-item framing — compose it explicitly.
        let traced = updates.iter().filter(|u| u.trace().is_some()).count();
        let trace_section = if traced > 0 {
            2 + traced * codec_v2::TRACE_ENTRY_BYTES
        } else {
            0
        };
        assert_eq!(
            codec_v2::update_batch_frame_len(&updates, true),
            codec_v2::frame_overhead(true) + item_sum + trace_section,
            "case {case}: per-item lengths must compose"
        );
    }
}

/// The interest layer's modeled byte constants are *measured* truth:
/// each one equals the encoded length of the corresponding canonical
/// binary item (lattice coords, narrow entity, narrow payload length).
#[test]
fn wire_bytes_constants_match_measured_frames() {
    let keyframe = BatchItem::Absolute(UpdateItem {
        origin: Point::new(100.0, -250.5),
        payload_bytes: 64,
        entity: 7,
        ring: 1,
        vx: 0.0,
        vy: 0.0,
        trace: None,
    });
    assert_eq!(
        codec_v2::batch_item_wire_len(&keyframe),
        UpdateItem::WIRE_BYTES,
        "a canonical keyframe item measures UpdateItem::WIRE_BYTES"
    );

    let delta = BatchItem::Delta(DeltaItem {
        dx: 1.5,
        dy: -0.25,
        payload_bytes: 64,
        entity: 7,
        ring: 1,
        vx: 0.0,
        vy: 0.0,
        trace: None,
    });
    assert_eq!(
        codec_v2::batch_item_wire_len(&delta),
        DeltaItem::WIRE_BYTES,
        "a canonical delta item measures DeltaItem::WIRE_BYTES"
    );

    let with_velocity = BatchItem::Delta(DeltaItem {
        dx: 1.5,
        dy: -0.25,
        payload_bytes: 64,
        entity: 7,
        ring: 1,
        vx: 3.5,
        vy: -2.25,
        trace: None,
    });
    assert_eq!(
        codec_v2::batch_item_wire_len(&with_velocity) - codec_v2::batch_item_wire_len(&delta),
        UpdateItem::VELOCITY_WIRE_BYTES,
        "the velocity tag measures VELOCITY_WIRE_BYTES"
    );

    // The per-batch overhead constant is the measured empty frame.
    let empty = codec_v2::encode_server_frame(
        &GameToClient::UpdateBatch { updates: vec![] },
        FrameMeta::default(),
        true,
    );
    assert_eq!(empty.len(), codec_v2::BATCH_OVERHEAD_BYTES);
    assert_eq!(
        codec_v2::frame_overhead(true),
        codec_v2::BATCH_OVERHEAD_BYTES
    );

    // And the item model composes: wire_bytes() (which charges the
    // declared payload on top of the framing) is the measured item
    // length plus that payload, for canonically-encodable items.
    assert_eq!(
        keyframe.wire_bytes(),
        codec_v2::batch_item_wire_len(&keyframe) + keyframe.payload_bytes()
    );
    assert_eq!(
        with_velocity.wire_bytes(),
        codec_v2::batch_item_wire_len(&with_velocity) + with_velocity.payload_bytes()
    );
}

/// Integers at the very top of their range must ride the codec
/// bit-for-bit.
#[test]
fn full_u64_values_survive_the_binary_codec() {
    let frames = [
        Frame::Server(GameToClient::Ack { seq: u64::MAX }),
        Frame::ReplicaAck {
            seq: u64::MAX - 1,
            resync: true,
        },
        Frame::Server(GameToClient::UpdateBatch {
            updates: vec![BatchItem::Absolute(UpdateItem {
                origin: Point::new(0.5, -0.5),
                payload_bytes: usize::MAX >> 8,
                entity: u64::MAX,
                ring: 3,
                vx: 1.0,
                vy: -1.0,
                trace: None,
            })],
        }),
        Frame::Replica(Box::new(ReplicaBatch {
            seq: u64::MAX,
            payload: ReplicaPayload::Ops(vec![]),
        })),
    ];
    let m = FrameMeta {
        seq: u64::MAX,
        stamp_ms: u32::MAX,
    };
    for (case, frame) in frames.iter().enumerate() {
        assert_binary_roundtrip(case, frame, m, true);
    }
}
