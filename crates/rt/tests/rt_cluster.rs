//! End-to-end tests of the tokio runtime: the same middleware protocol
//! exercised over real async tasks, channels and sockets.

use matrix_core::{ClientToGame, GameToClient, Lifecycle, MatrixConfig};
use matrix_geometry::Point;
use matrix_rt::{wire, RtCluster, RtConfig};
use matrix_sim::SimDuration;
use std::time::Duration;

fn fast_config() -> RtConfig {
    let mut cfg = RtConfig {
        matrix: MatrixConfig {
            overload_clients: 10,
            underload_clients: 4,
            overload_streak: 2,
            underload_streak: 2,
            cooldown: SimDuration::from_millis(200),
            ..MatrixConfig::default()
        },
        ..RtConfig::default()
    };
    cfg.game.tick = SimDuration::from_millis(20);
    cfg.game.report_every_ticks = 2;
    cfg
}

#[tokio::test]
async fn join_is_acknowledged() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let mut client = cluster.client(Point::new(100.0, 100.0));
    let msg = tokio::time::timeout(Duration::from_secs(2), client.recv())
        .await
        .expect("join must be answered")
        .expect("channel open");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");
    cluster.shutdown().await;
}

#[tokio::test]
async fn action_is_acked() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let mut client = cluster.client(Point::new(100.0, 100.0));
    let _joined = tokio::time::timeout(Duration::from_secs(2), client.recv())
        .await
        .unwrap();
    client.action(64);
    let msg = tokio::time::timeout(Duration::from_secs(2), client.recv())
        .await
        .expect("ack must arrive")
        .expect("channel open");
    assert!(matches!(msg, GameToClient::Ack { .. }), "{msg:?}");
    assert_eq!(client.counters().acks, 1);
    cluster.shutdown().await;
}

#[tokio::test]
async fn nearby_clients_see_each_other() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let mut bob = cluster.client(Point::new(120.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .unwrap();

    alice.action(64);
    // Bob is within the 100-unit radius: he must receive the event in
    // an update batch on the next flush.
    let msg = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .expect("update must reach nearby client")
        .expect("channel open");
    match &msg {
        GameToClient::UpdateBatch { updates } => {
            assert_eq!(updates.len(), 1, "{msg:?}");
            assert_eq!(updates[0].payload_bytes(), 64);
            assert!(
                updates[0].is_keyframe(),
                "first item of a fresh stream is absolute"
            );
        }
        other => panic!("expected UpdateBatch, got {other:?}"),
    }
    assert_eq!(bob.counters().batches, 1);
    assert_eq!(bob.counters().updates, 1);
    assert_eq!(
        bob.last_update_origin(),
        Some(Point::new(100.0, 100.0)),
        "client reconstructs the event origin"
    );
    cluster.shutdown().await;
}

#[tokio::test]
async fn distant_clients_are_not_updated() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let mut bob = cluster.client(Point::new(700.0, 700.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .unwrap();

    alice.action(64);
    tokio::time::sleep(Duration::from_millis(200)).await;
    let extra = bob.drain();
    assert!(
        !extra.iter().any(|m| matches!(
            m,
            GameToClient::Update { .. } | GameToClient::UpdateBatch { .. }
        )),
        "700 units away is outside the radius of visibility: {extra:?}"
    );
    cluster.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn overload_splits_the_cluster_live() {
    let cluster = RtCluster::start(fast_config()).await;
    assert_eq!(cluster.active_servers().await, 1);

    // 30 clients >> the 10-client overload threshold.
    let mut clients = Vec::new();
    for i in 0..30 {
        let x = 50.0 + (i as f64 * 23.0) % 700.0;
        let y = 50.0 + (i as f64 * 37.0) % 700.0;
        clients.push(cluster.client(Point::new(x, y)));
    }
    // Let load reports, the pool round-trip and the split protocol run.
    let mut active = 1;
    for _ in 0..50 {
        tokio::time::sleep(Duration::from_millis(100)).await;
        active = cluster.active_servers().await;
        if active >= 2 {
            break;
        }
    }
    assert!(
        active >= 2,
        "the overloaded server must split, got {active}"
    );

    // Every client must still be able to play (possibly after a switch).
    for client in clients.iter_mut() {
        client.drain();
        client.action(32);
    }
    tokio::time::sleep(Duration::from_millis(300)).await;
    let mut acked = 0;
    for c in clients.iter_mut() {
        c.drain();
        if c.counters().acks >= 1 {
            acked += 1;
        }
    }
    assert!(
        acked >= 25,
        "most clients keep playing across the split: {acked}/30"
    );
    cluster.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn parallel_flush_loses_and_duplicates_nothing_under_churn() {
    // The race smoke for the sharded flush engine: a node running 4
    // real flush workers is hammered with joins, moves, actions and
    // leaves for many ticks. Every action carries a unique payload
    // size, so per-receiver delivery is exactly countable: each
    // observer must see each action exactly once — a lost batch shows
    // up as a missing payload, a duplicated batch as a repeated one.
    // The final actions are still queued when the cluster stops, so
    // `shutdown_flush` itself runs the parallel path and must deliver
    // what the batcher holds.
    let mut cfg = RtConfig::default();
    cfg.game.flush_workers = 4;
    cfg.game.tick = SimDuration::from_millis(20);
    // Unlimited per-flush budgets: rate limiting would merge or defer
    // items and break exact accounting.
    cfg.game.dissemination.max_updates_per_flush = 0;
    cfg.game.dissemination.client_budget_bytes = 0;
    let cluster = RtCluster::start(cfg).await;

    // A mutually visible crowd: everyone within the 100-unit radius.
    const CORE: usize = 12;
    let mut clients = Vec::new();
    for i in 0..CORE {
        let angle = i as f64 / CORE as f64 * std::f64::consts::TAU;
        let pos = Point::new(200.0 + 30.0 * angle.cos(), 200.0 + 30.0 * angle.sin());
        clients.push(cluster.client(pos));
    }
    for c in clients.iter_mut() {
        let msg = tokio::time::timeout(Duration::from_secs(2), c.recv())
            .await
            .expect("join must be answered")
            .expect("channel open");
        assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");
    }

    // Hammer: every round everyone jitters, every third client fires a
    // uniquely sized action, and churn clients join/move/leave
    // concurrently with the flush workers.
    let mut sent_by: Vec<Vec<usize>> = vec![Vec::new(); CORE];
    let mut next_payload = 300usize;
    for round in 0..30u64 {
        for (i, c) in clients.iter_mut().enumerate() {
            let jitter = ((round + i as u64) % 5) as f64 - 2.0;
            let p = c.pos();
            c.move_to(Point::new(p.x + jitter, p.y - jitter));
            if (i as u64 + round) % 3 == 0 {
                c.action(next_payload);
                sent_by[i].push(next_payload);
                next_payload += 1;
            }
        }
        if round % 3 == 0 {
            // Churn rider: joins inside the crowd, moves, leaves. Its
            // own deliveries are not asserted — it exists to race the
            // shard map against subscribe/unsubscribe.
            let mut rider = cluster.client(Point::new(210.0, 190.0));
            let _ = tokio::time::timeout(Duration::from_secs(2), rider.recv()).await;
            rider.move_to(Point::new(195.0, 205.0));
            rider.leave();
        }
        tokio::time::sleep(Duration::from_millis(5)).await;
    }
    // Let the last scheduled flushes drain, then stop the cluster: the
    // shutdown flush delivers whatever the batcher still holds.
    tokio::time::sleep(Duration::from_millis(300)).await;
    cluster.shutdown().await;
    tokio::time::sleep(Duration::from_millis(100)).await;

    let all_payloads: Vec<usize> = sent_by.iter().flatten().copied().collect();
    for (i, c) in clients.iter_mut().enumerate() {
        let msgs = c.drain();
        assert_eq!(
            c.counters().acks,
            sent_by[i].len() as u64,
            "client {i}: every action is acked exactly once"
        );
        // Count how often each action payload reached this observer
        // (move updates carry payload 0, so they never collide with
        // the 300+ action payloads).
        let mut seen: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for m in &msgs {
            if let GameToClient::UpdateBatch { updates } = m {
                for u in updates {
                    if u.payload_bytes() >= 300 {
                        *seen.entry(u.payload_bytes()).or_default() += 1;
                    }
                }
            }
        }
        for &p in &all_payloads {
            let expected = if sent_by[i].contains(&p) { 0 } else { 1 };
            assert_eq!(
                seen.get(&p).copied().unwrap_or(0),
                expected,
                "client {i}, action payload {p}: lost or duplicated"
            );
        }
    }
}

#[tokio::test]
async fn snapshots_expose_topology() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let snaps = cluster.snapshots().await;
    let active: Vec<_> = snaps
        .iter()
        .filter(|s| s.lifecycle == Lifecycle::Active)
        .collect();
    assert_eq!(active.len(), 1);
    assert!(active[0].range.is_some());
    let idle = snaps
        .iter()
        .filter(|s| s.lifecycle == Lifecycle::Idle)
        .count();
    assert_eq!(idle, RtConfig::default().pool_size as usize);
    cluster.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn killed_node_fails_over_to_its_warm_standby() {
    // Tight timings so detection + promotion complete in test time.
    let mut cfg = RtConfig::default();
    cfg.matrix.standby_replication = true;
    cfg.matrix.heartbeat_every = SimDuration::from_millis(100);
    cfg.coordinator.heartbeat_timeout = SimDuration::from_millis(500);
    cfg.game.tick = SimDuration::from_millis(20);
    cfg.game.replica_interval = SimDuration::from_millis(100);
    let cluster = RtCluster::start(cfg).await;

    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let mut bob = cluster.client(Point::new(120.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .unwrap();
    // Let the standby pairing and at least one replica snapshot ship.
    tokio::time::sleep(Duration::from_millis(400)).await;

    // Kill the bootstrap node mid-game: no flush, no goodbye.
    cluster.crash(cluster.bootstrap_id());

    // The coordinator's sweep declares it dead and promotes the warm
    // standby; both clients are re-pointed without reconnecting their
    // channel. Wait for the promoted server to become active again.
    let mut promoted = None;
    for _ in 0..40 {
        tokio::time::sleep(Duration::from_millis(100)).await;
        let snaps = cluster.snapshots().await;
        if let Some(s) = snaps
            .iter()
            .find(|s| s.lifecycle == Lifecycle::Active && s.game_stats.promotions > 0)
        {
            promoted = Some(s.id);
            break;
        }
    }
    let promoted = promoted.expect("a standby must promote");
    assert_ne!(promoted, cluster.bootstrap_id());

    // Drain the switch notifications, then keep playing: an action from
    // alice must still reach bob through the promoted server.
    tokio::time::sleep(Duration::from_millis(200)).await;
    alice.drain();
    bob.drain();
    assert_eq!(alice.server(), promoted, "client re-pointed, not dropped");
    let batches_before = bob.counters().batches;
    alice.action(64);
    let mut got_update = false;
    for _ in 0..20 {
        tokio::time::sleep(Duration::from_millis(50)).await;
        bob.drain();
        if bob.counters().batches > batches_before {
            got_update = true;
            break;
        }
    }
    assert!(got_update, "updates keep flowing after the failover");
    // The promoted node restored the sessions from the replica.
    let snaps = cluster.snapshots().await;
    let node = snaps.iter().find(|s| s.id == promoted).unwrap();
    assert!(node.game_stats.clients_restored >= 2, "{node:?}");
    cluster.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn gateway_client_resumes_at_its_real_position_after_failover() {
    // A TCP client plays at (100, 100) through the gateway. When its
    // server dies and the warm standby promotes, the gateway performs
    // the transparent re-join on the client's behalf — carrying the
    // client's *real* position, as RtClient does. Were it to re-join at
    // the origin (the old behaviour), the restored session would be
    // yanked across the map and the client would stop seeing events
    // near its actual position until its next upload.
    let mut cfg = RtConfig::default();
    cfg.matrix.standby_replication = true;
    cfg.matrix.heartbeat_every = SimDuration::from_millis(100);
    cfg.coordinator.heartbeat_timeout = SimDuration::from_millis(500);
    cfg.game.tick = SimDuration::from_millis(20);
    cfg.game.replica_interval = SimDuration::from_millis(100);
    let cluster = RtCluster::start(cfg).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");

    let mut remote = wire::TcpGameClient::connect(addr).await.expect("connect");
    remote
        .send(&ClientToGame::Join {
            pos: Point::new(100.0, 100.0),
            state_bytes: 64,
        })
        .await
        .expect("send join");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("join reply")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");

    // A nearby in-process client whose actions the remote one observes.
    let mut alice = cluster.client(Point::new(110.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    // Let the standby pairing and at least one replica snapshot ship.
    tokio::time::sleep(Duration::from_millis(400)).await;

    cluster.crash(cluster.bootstrap_id());

    // Wait for the promotion, draining the remote client's inbox (it
    // sees Joined/SwitchServer relays along the way).
    let mut promoted = None;
    for _ in 0..40 {
        tokio::time::sleep(Duration::from_millis(100)).await;
        let snaps = cluster.snapshots().await;
        if let Some(s) = snaps
            .iter()
            .find(|s| s.lifecycle == Lifecycle::Active && s.game_stats.promotions > 0)
        {
            promoted = Some(s.id);
            break;
        }
    }
    assert!(promoted.is_some(), "a standby must promote");
    tokio::time::sleep(Duration::from_millis(300)).await;

    // The remote client — without uploading anything since the crash —
    // must observe alice's action: its restored session is still at
    // (100, 100), inside the 100-unit radius of alice.
    alice.drain();
    alice.action(64);
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    let mut saw_update = false;
    while std::time::Instant::now() < deadline {
        match tokio::time::timeout(Duration::from_millis(500), remote.recv()).await {
            Ok(Ok(GameToClient::UpdateBatch { .. })) => {
                saw_update = true;
                break;
            }
            Ok(Ok(_)) => {}
            _ => break,
        }
    }
    assert!(
        saw_update,
        "the re-joined session must stay at the client's real position \
         and keep receiving nearby events"
    );
    cluster.shutdown().await;
}

/// A primary-shaped snapshot travels the wire and lands in a standby
/// receiver on the other end, which acks back over the same socket.
async fn replica_exchange(frame_crc: bool) {
    use matrix_core::{ReplicaPayload, ReplicaReceiver};

    let listener = tokio::net::TcpListener::bind("127.0.0.1:0")
        .await
        .expect("bind");
    let addr = listener.local_addr().expect("addr");

    let standby = tokio::spawn(async move {
        let (stream, _) = listener.accept().await.expect("accept");
        let mut link = wire::ReplicaStream::new(stream, frame_crc);
        let mut receiver: ReplicaReceiver<matrix_core::ClientId> = ReplicaReceiver::new();
        // Snapshot, then one ops batch.
        for _ in 0..2 {
            let batch = link.recv_batch().await.expect("batch");
            let ack = receiver.apply(batch);
            link.send_ack(ack.seq, ack.resync).await.expect("ack");
        }
        receiver
    });

    let stream = tokio::net::TcpStream::connect(addr).await.expect("connect");
    let mut link = wire::ReplicaStream::new(stream, frame_crc);
    let mut snapshot = matrix_core::RegionSnapshot {
        range: Some(matrix_geometry::Rect::from_coords(0.0, 0.0, 800.0, 800.0)),
        radius: 100.0,
        ready: true,
        ..matrix_core::RegionSnapshot::default()
    };
    snapshot.clients.insert(
        matrix_core::ClientId(7),
        matrix_core::SessionState {
            pos: Point::new(10.0, 20.0),
            state_bytes: 512,
        },
    );
    link.send_batch(&matrix_core::ReplicaBatch {
        seq: 1,
        payload: ReplicaPayload::Full(snapshot),
    })
    .await
    .expect("send snapshot");
    assert_eq!(link.recv_ack().await.expect("ack"), (1, false));

    link.send_batch(&matrix_core::ReplicaBatch {
        seq: 2,
        payload: ReplicaPayload::Ops(vec![matrix_core::ReplicaOp::Move {
            client: matrix_core::ClientId(7),
            pos: Point::new(11.0, 20.0),
        }]),
    })
    .await
    .expect("send ops");
    assert_eq!(link.recv_ack().await.expect("ack"), (2, false));

    let receiver = standby.await.expect("standby task");
    let snap = receiver.snapshot().expect("warm");
    assert_eq!(
        snap.clients[&matrix_core::ClientId(7)].pos,
        Point::new(11.0, 20.0),
        "the op applied on the far side of the socket"
    );
}

#[tokio::test]
async fn replica_batches_cross_a_real_tcp_socket() {
    replica_exchange(false).await;
}

#[tokio::test]
async fn tcp_gateway_round_trip() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");

    let mut remote = wire::TcpGameClient::connect(addr).await.expect("connect");
    remote
        .send(&ClientToGame::Join {
            pos: Point::new(50.0, 50.0),
            state_bytes: 64,
        })
        .await
        .expect("send join");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("join reply within deadline")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");

    remote
        .send(&ClientToGame::Action {
            pos: Point::new(50.0, 50.0),
            payload_bytes: 32,
        })
        .await
        .expect("send action");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("ack within deadline")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Ack { .. }), "{msg:?}");
    cluster.shutdown().await;
}

#[tokio::test]
async fn ring_tagged_updates_cross_the_real_wire() {
    // Multi-ring AOI over the TCP gateway: a mid-ring observer's frames
    // carry the ring tag (`[x,y,bytes,entity,ring]`), and the in-process
    // client's counters attribute them as far items.
    let mut cfg = RtConfig::default();
    // Rings over the 100-unit vision radius: near 35, mid 65, far 100.
    cfg.game.dissemination = cfg
        .game
        .dissemination
        .with_rings(&[35.0, 65.0, 100.0], &[1, 2, 4]);
    let cluster = RtCluster::start(cfg).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");

    // Remote observer ~50 units from the actor: the mid ring (rate 2).
    let mut remote = wire::TcpGameClient::connect(addr).await.expect("connect");
    remote
        .send(&ClientToGame::Join {
            pos: Point::new(150.0, 100.0),
            state_bytes: 64,
        })
        .await
        .expect("send join");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("join reply")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");

    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    // Rate 2 on the mid ring: of two actions, exactly one ships.
    alice.action(64);
    alice.action(64);
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("update within deadline")
        .expect("valid frame");
    let GameToClient::UpdateBatch { updates } = &msg else {
        panic!("expected UpdateBatch, got {msg:?}");
    };
    assert_eq!(updates.len(), 1, "mid ring at rate 2 samples one of two");
    assert_eq!(updates[0].ring(), 1, "mid-ring tag survives the codec");
    cluster.shutdown().await;
}

#[tokio::test]
async fn stats_endpoint_serves_live_telemetry_over_tcp() {
    // E2E observability: with telemetry on, the cluster's stats endpoint
    // answers both formats over a real socket — structured stats frames
    // (per-node counters + sparse histograms) and Prometheus-style text.
    let mut cfg = fast_config();
    cfg.game.telemetry = true;
    cfg.game.emit_updates = true;
    let cluster = RtCluster::start(cfg).await;
    let addr = cluster.serve_stats("127.0.0.1:0").await.expect("bind");

    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let mut bob = cluster.client(Point::new(120.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .unwrap();
    // An action near bob forces fan-out, so the next flush has work.
    alice.action(64);
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .expect("update delivered")
        .expect("channel open");

    let nodes = tokio::time::timeout(Duration::from_secs(2), wire::TcpStatsClient::fetch(addr))
        .await
        .expect("stats reply within deadline")
        .expect("decoded stats reply");
    assert!(
        !nodes.is_empty(),
        "telemetry-on nodes must expose snapshots"
    );
    let merged = nodes.iter().fold(
        matrix_core::TelemetrySnapshot::new(),
        |mut acc, (_, snap)| {
            acc.merge(snap);
            acc
        },
    );
    assert!(
        merged.get_counter("joins").unwrap_or(0) >= 2,
        "both joins must be counted: {:?}",
        merged.counters
    );
    assert!(
        merged.get_hist("rt_tick_us").is_some(),
        "the runtime's tick histogram must ride the snapshot"
    );
    assert!(
        merged.get_hist("flush_us").is_some(),
        "a flush with pending work must be timed"
    );

    let text = tokio::time::timeout(
        Duration::from_secs(2),
        wire::TcpStatsClient::fetch_text(addr),
    )
    .await
    .expect("prometheus text within deadline")
    .expect("read to EOF");
    assert!(text.contains("# TYPE matrix_joins counter"), "{text}");
    assert!(text.contains("matrix_rt_tick_us_count"), "{text}");
    cluster.shutdown().await;
}

#[tokio::test]
async fn stats_endpoint_is_empty_with_telemetry_off() {
    // Telemetry off is the default, and it must mean *zero* exposure:
    // the endpoint still answers, with no node snapshots.
    let cluster = RtCluster::start(fast_config()).await;
    let addr = cluster.serve_stats("127.0.0.1:0").await.expect("bind");
    let mut client = cluster.client(Point::new(100.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), client.recv())
        .await
        .unwrap();
    let nodes = tokio::time::timeout(Duration::from_secs(2), wire::TcpStatsClient::fetch(addr))
        .await
        .expect("stats reply within deadline")
        .expect("decoded stats reply");
    assert!(
        nodes.is_empty(),
        "dark cluster must expose nothing: {nodes:?}"
    );
    cluster.shutdown().await;
}

#[tokio::test]
async fn gateway_negotiates_the_binary_protocol_by_default() {
    // A default gateway answers the client's binary Hello, so the whole
    // session — join, ack, updates — runs over wire protocol v2.
    let cluster = RtCluster::start(RtConfig::default()).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");

    // `connect` returns only once the gateway has answered the Hello.
    let mut remote = wire::TcpGameClient::connect(addr).await.expect("connect");
    remote
        .send(&ClientToGame::Join {
            pos: Point::new(60.0, 60.0),
            state_bytes: 64,
        })
        .await
        .expect("send join");
    let msg = tokio::time::timeout(Duration::from_secs(2), remote.recv())
        .await
        .expect("join reply")
        .expect("valid frame");
    assert!(matches!(msg, GameToClient::Joined { .. }), "{msg:?}");
    cluster.shutdown().await;
}

#[tokio::test]
async fn replica_batches_cross_the_socket_in_binary() {
    // The same exchange with CRC trailers on every frame.
    replica_exchange(true).await;
}

#[tokio::test]
async fn stats_endpoint_answers_binary_queries() {
    // Both query formats are v2 frames; the structured reply and the
    // Prometheus text must report the same join count.
    let mut cfg = fast_config();
    cfg.game.telemetry = true;
    let cluster = RtCluster::start(cfg).await;
    let addr = cluster.serve_stats("127.0.0.1:0").await.expect("bind");
    let mut alice = cluster.client(Point::new(100.0, 100.0));
    let _ = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();

    let nodes = tokio::time::timeout(Duration::from_secs(2), wire::TcpStatsClient::fetch(addr))
        .await
        .expect("binary stats reply within deadline")
        .expect("decoded stats frame");
    let text = tokio::time::timeout(
        Duration::from_secs(2),
        wire::TcpStatsClient::fetch_text(addr),
    )
    .await
    .expect("prometheus text within deadline")
    .expect("read to EOF");
    let joins: u64 = nodes
        .iter()
        .map(|(_, s)| s.get_counter("joins").unwrap_or(0))
        .sum();
    assert!(joins >= 1, "the join is visible through the binary query");
    let text_joins: u64 = text
        .lines()
        .filter(|l| l.starts_with("matrix_joins{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(joins, text_joins, "{text}");
    cluster.shutdown().await;
}

#[tokio::test]
async fn non_v2_openers_are_disconnected() {
    // A JSON-lines client (the retired v1 protocol) is refused on its
    // first byte, on the gateway and on the stats port alike, instead of
    // being left waiting for a reply that never comes.
    let mut cfg = fast_config();
    cfg.game.telemetry = true;
    let cluster = RtCluster::start(cfg).await;
    let gateway = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");
    let stats = cluster.serve_stats("127.0.0.1:0").await.expect("bind");
    for (addr, opener, what) in [
        (
            gateway,
            &b"{\"t\":\"join\",\"x\":100.0,\"y\":100.0,\"state\":64}\n"[..],
            "gateway",
        ),
        (
            stats,
            &b"{\"t\":\"stats\",\"v\":1,\"fmt\":\"prom\"}\n"[..],
            "stats endpoint",
        ),
    ] {
        use tokio::io::{AsyncChunkReadExt, AsyncWriteExt};
        let stream = tokio::net::TcpStream::connect(addr).await.expect("connect");
        // Hold the write half: dropping it would close the socket from
        // this side and make the check vacuous.
        let (read_half, mut write_half) = stream.into_split();
        write_half.write_all(opener).await.expect("send opener");
        let mut chunks = read_half.into_chunks();
        let closed = tokio::time::timeout(Duration::from_secs(2), async {
            while let Ok(Some(_)) = chunks.next_chunk().await {}
        })
        .await;
        assert!(closed.is_ok(), "{what} must disconnect a non-v2 opener");
        drop(write_half);
    }
    cluster.shutdown().await;
}

/// The next frame off a raw v2 socket.
async fn next_frame(
    acc: &mut matrix_core::codec_v2::FrameAccumulator,
    chunks: &mut tokio::io::Chunks,
) -> matrix_core::codec_v2::Frame {
    loop {
        if let Some(item) = acc.next() {
            return item.expect("valid frame").0;
        }
        let bytes = chunks.next_chunk().await.expect("read").expect("open");
        acc.push(&bytes);
    }
}

#[tokio::test]
async fn padded_hello_still_handshakes_and_joins() {
    // Some v2 clients send a newline pad after their Hello; the gateway
    // resyncs past it and the session works as usual.
    use matrix_core::codec_v2::{self, Frame, FrameAccumulator, FrameMeta};
    use tokio::io::{AsyncChunkReadExt, AsyncWriteExt};
    let cluster = RtCluster::start(RtConfig::default()).await;
    let addr = wire::spawn_gateway(
        "127.0.0.1:0",
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");
    let stream = tokio::net::TcpStream::connect(addr).await.expect("connect");
    let (read_half, mut write_half) = stream.into_split();
    let mut chunks = read_half.into_chunks();
    let mut acc = FrameAccumulator::new();
    let hello = Frame::Hello {
        version: codec_v2::WIRE_VERSION,
    };
    let mut opener = codec_v2::encode_frame(&hello, FrameMeta::default(), true);
    opener.push(b'\n');
    write_half.write_all(&opener).await.expect("send hello");

    let reply = tokio::time::timeout(Duration::from_secs(2), next_frame(&mut acc, &mut chunks))
        .await
        .expect("hello within deadline");
    assert!(matches!(reply, Frame::Hello { .. }), "{reply:?}");
    let join = ClientToGame::Join {
        pos: Point::new(60.0, 60.0),
        state_bytes: 64,
    };
    write_half
        .write_all(&codec_v2::encode_client_frame(
            &join,
            FrameMeta::default(),
            true,
        ))
        .await
        .expect("send join");
    let reply = tokio::time::timeout(Duration::from_secs(2), next_frame(&mut acc, &mut chunks))
        .await
        .expect("join reply within deadline");
    assert!(
        matches!(reply, Frame::Server(GameToClient::Joined { .. })),
        "{reply:?}"
    );
    cluster.shutdown().await;
}
