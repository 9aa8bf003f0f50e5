//! Tokio runtime for the Matrix middleware.
//!
//! Runs the identical sans-io state machines of `matrix-core` as real
//! async tasks: one task per (game server + Matrix server) node, one for
//! the coordinator, one for the resource pool, with unbounded channels as
//! the network and an optional TCP gateway ([`wire`]) for remote clients.
//! Because the protocol logic is shared with the discrete-event harness,
//! behaviour validated in simulation deploys unchanged.
//!
//! With `GameServerConfig::telemetry` on, every node snapshot carries a
//! `TelemetrySnapshot` (stage/flush/tick latency histograms plus the
//! counters), and [`RtCluster::serve_stats`] exposes them live over TCP
//! as v2 stats frames or Prometheus-style text ([`wire::TcpStatsClient`]).
//!
//! # Example
//!
//! ```no_run
//! use matrix_rt::{RtCluster, RtConfig};
//! use matrix_geometry::Point;
//!
//! # async fn demo() {
//! let cluster = RtCluster::start(RtConfig::default()).await;
//! let mut client = cluster.client(Point::new(100.0, 100.0));
//! client.action(64);
//! let reply = client.recv().await;
//! println!("{reply:?}");
//! cluster.shutdown().await;
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;
mod node;
mod router;
pub mod wire;

pub use client::{ClientCounters, RtClient};
pub use cluster::{RtCluster, RtConfig, SloProbe};
pub use node::{NodeHandle, NodeMsg, NodeSnapshot};
pub use router::Router;
