//! Facade-level tests of the tokio runtime: the public API a downstream
//! game developer would program against.

use matrix_middleware::core::{GameToClient, MatrixConfig};
use matrix_middleware::geometry::Point;
use matrix_middleware::rt::{RtCluster, RtConfig};
use matrix_middleware::sim::SimDuration;
use std::time::Duration;

#[tokio::test]
async fn facade_quickstart_flow() {
    let cluster = RtCluster::start(RtConfig::default()).await;
    let mut alice = cluster.client(Point::new(200.0, 200.0));
    let mut bob = cluster.client(Point::new(220.0, 200.0));

    let joined = tokio::time::timeout(Duration::from_secs(2), alice.recv())
        .await
        .unwrap();
    assert!(matches!(joined, Some(GameToClient::Joined { .. })));
    let _ = tokio::time::timeout(Duration::from_secs(2), bob.recv())
        .await
        .unwrap();

    alice.move_to(Point::new(205.0, 200.0));
    alice.action(32);
    // Bob sees the movement and the action as coalesced update batches.
    let mut updates = 0;
    for _ in 0..2 {
        match tokio::time::timeout(Duration::from_secs(2), bob.recv()).await {
            Ok(Some(GameToClient::UpdateBatch { updates: batch })) => updates += batch.len(),
            Ok(Some(GameToClient::Update { .. })) => updates += 1,
            _ => {}
        }
    }
    assert!(updates >= 1, "bob must observe alice");
    assert!(bob.counters().batches >= 1, "updates arrive batched");
    cluster.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn cluster_grows_and_shrinks_with_population() {
    let mut cfg = RtConfig {
        matrix: MatrixConfig {
            overload_clients: 8,
            underload_clients: 3,
            overload_streak: 2,
            underload_streak: 2,
            cooldown: SimDuration::from_millis(200),
            reclaim_headroom: 0.9,
            ..MatrixConfig::default()
        },
        ..RtConfig::default()
    };
    cfg.game.tick = SimDuration::from_millis(20);
    cfg.game.report_every_ticks = 2;
    let cluster = RtCluster::start(cfg).await;

    // Grow: 24 clients over an 8-client threshold.
    let mut clients = Vec::new();
    for i in 0..24 {
        let x = 100.0 + (i as f64 * 31.0) % 600.0;
        clients.push(cluster.client(Point::new(x, 400.0)));
    }
    let mut grew = 1;
    for _ in 0..50 {
        tokio::time::sleep(Duration::from_millis(100)).await;
        grew = cluster.active_servers().await;
        if grew >= 2 {
            break;
        }
    }
    assert!(grew >= 2, "cluster must grow under load");

    // Shrink: everyone leaves.
    for client in clients.drain(..) {
        client.leave();
    }
    let mut shrank = grew;
    for _ in 0..100 {
        tokio::time::sleep(Duration::from_millis(100)).await;
        shrank = cluster.active_servers().await;
        if shrank < grew {
            break;
        }
    }
    assert!(
        shrank < grew || shrank == 1,
        "cluster must consolidate: {shrank} vs {grew}"
    );
    cluster.shutdown().await;
}

#[tokio::test]
async fn predicted_entities_extrapolate_between_updates() {
    use matrix_middleware::sim::SimTime;

    // Dead reckoning end-to-end over the runtime: the server ships
    // velocity-tagged items for a linearly moving entity, the observing
    // client rebases its extrapolator from them, and suppressed events
    // are rendered from extrapolation instead of the wire.
    let mut cfg = RtConfig::default();
    cfg.game.batch_interval = SimDuration::from_millis(0);
    cfg.game.dissemination = cfg
        .game
        .dissemination
        .with_rings(&[30.0, 150.0], &[1, 1])
        .with_predict(&[0.0, 5.0]);
    let cluster = RtCluster::start(cfg).await;
    let mut mover = cluster.client(Point::new(200.0, 200.0));
    let mut observer = cluster.client(Point::new(200.0, 300.0)); // outer ring
    let _ = tokio::time::timeout(Duration::from_secs(2), mover.recv()).await;
    let _ = tokio::time::timeout(Duration::from_secs(2), observer.recv()).await;

    // A straight run past the observer; per-event flushes keep the
    // timeline simple.
    for i in 1..=15 {
        mover.move_to(Point::new(200.0 + i as f64 * 4.0, 200.0));
        tokio::time::sleep(Duration::from_millis(20)).await;
    }
    tokio::time::sleep(Duration::from_millis(200)).await;
    let _ = observer.drain();

    let counters = observer.counters();
    assert!(
        counters.updates >= 1,
        "the run must be observed: {counters:?}"
    );
    assert!(
        counters.velocity_items >= 1,
        "rebasing items must carry the velocity: {counters:?}"
    );
    assert_eq!(observer.extrapolated_entities(), 1);
    let entity = mover.id().0;
    let predicted = observer
        .extrapolated(entity, SimTime::from_secs(3600))
        .expect("a basis for the mover");
    assert!(
        predicted.x > 200.0,
        "extrapolation must continue the run, not freeze: {predicted}"
    );
    cluster.shutdown().await;
}
