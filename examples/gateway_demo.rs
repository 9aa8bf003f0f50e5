//! TCP gateway demo: expose an in-process Matrix cluster on a real
//! socket and serve remote game clients speaking wire protocol v2
//! (length-prefixed binary frames, `docs/WIRE.md`).
//!
//! ```sh
//! cargo run --release --example gateway_demo            # random port
//! cargo run --release --example gateway_demo -- 4177    # fixed port
//! ```
//!
//! A client opens with a `Hello` frame, waits for the gateway's, then
//! joins (`matrix_rt::wire::TcpGameClient` does this; `docs/WIRE.md`
//! has the byte layout for other languages). A connection that opens
//! with anything but a v2 frame is closed. The gateway keeps each
//! remote client pinned to whichever server the middleware redirects
//! it to; nearby clients receive each other's events as `UpdateBatch`
//! frames.
//!
//! Pass `--predict` to enable the dead-reckoning pipeline (vision
//! rings + per-ring error budgets, per-event flushes): outer-ring
//! receivers then see velocity-tagged items and straight-line movement
//! is suppressed on the wire while their extrapolation stays within
//! the ring's budget.
//!
//! Pass `--telemetry` to turn the telemetry plane on
//! (`docs/OBSERVABILITY.md`); a live stats endpoint then answers a v2
//! `StatsQuery` frame on a second port:
//!
//! ```text
//! $ printf '\xd7\x4d\x02\x8c\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\xa4\xb0\x4a\x66' | nc 127.0.0.1 <stats port>
//! # TYPE matrix_joins counter
//! matrix_joins{server="1"} 2
//! ...
//! ```

use matrix_middleware::rt::{wire, RtCluster, RtConfig};
use matrix_middleware::sim::SimDuration;
use std::time::Duration;

#[tokio::main]
async fn main() {
    let mut port: u16 = 0;
    let mut predict = false;
    let mut telemetry = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--predict" => predict = true,
            "--telemetry" => telemetry = true,
            p => port = p.parse().expect("args: [port] [--predict] [--telemetry]"),
        }
    }
    let mut cfg = RtConfig::default();
    cfg.game.telemetry = telemetry;
    if predict {
        cfg.game.batch_interval = SimDuration::from_millis(0);
        cfg.game.dissemination = cfg
            .game
            .dissemination
            .with_rings(&[30.0, 150.0], &[1, 1])
            .with_predict(&[0.0, 5.0]);
        println!("dead reckoning ON: rings 30/150, outer error budget 5.0");
    }
    let cluster = RtCluster::start(cfg).await;
    let addr = wire::spawn_gateway(
        ("127.0.0.1", port),
        cluster.router().clone(),
        cluster.bootstrap_id(),
    )
    .await
    .expect("bind gateway");
    println!("gateway listening on {addr} (wire protocol v2: open with a Hello frame)");
    if telemetry {
        let stats = cluster
            .serve_stats(("127.0.0.1", 0))
            .await
            .expect("bind stats endpoint");
        println!("stats endpoint on {stats} (query: a v2 StatsQuery frame)");
    }

    // Serve until interrupted.
    loop {
        tokio::time::sleep(Duration::from_secs(3600)).await;
    }
}
