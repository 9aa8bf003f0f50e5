//! Fault tolerance for the Matrix middleware: region snapshots and
//! warm-standby replication.
//!
//! The paper's adaptivity story ends at *detection*: when the
//! coordinator's liveness sweep declares a server dead it can hand the
//! orphaned range to a neighbour, but every client session, position and
//! delta stream hosted on the dead node is lost. This crate supplies the
//! missing layer — the one related sync middleware treats as the
//! backbone of availability (Jacob et al., *A Glimpse of the Matrix*;
//! Arslan's service-oriented MMOG regions as restartable,
//! state-transferable units):
//!
//! * [`RegionSnapshot`] — the durable, transferable image of one game
//!   server's region: connected clients with positions and session
//!   state sizes, per-client delta-encoder bases, and the pending
//!   (unflushed) update batches. Restoring a snapshot into a fresh node
//!   reproduces the region observably: same client set, same receiver
//!   sets, same next flush.
//! * [`ReplicaOp`] / [`ReplicaBatch`] — the incremental log entries a
//!   primary ships between full snapshots: joins, moves, leaves and
//!   range changes, enough to keep a standby's snapshot current.
//! * [`ReplicaLog`] — the primary-side shipping policy: a full snapshot
//!   until the standby acknowledges one, then ops on a configurable
//!   interval (`replica_interval`), force-shipped when the unshipped
//!   backlog exceeds `replica_lag_cap`, with ack/resync tracking.
//! * [`ReplicaReceiver`] — the standby side: applies batches in
//!   sequence, requests a resync on any gap, and surrenders the
//!   snapshot at promotion time.
//!
//! Like `matrix-interest`, everything here is generic over the client
//! key and independent of the middleware's message taxonomy:
//! `matrix-core` instantiates it with `ClientId`, wraps batches in
//! protocol messages, and gives them a versioned wire form in
//! `matrix_core::codec_v2`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod log;
mod receiver;
mod snapshot;

pub use log::{ReplicaBatch, ReplicaLog, ReplicaLogStats, ReplicaPayload};
pub use receiver::{ReplicaApply, ReplicaReceiver};
pub use snapshot::{
    PendingUpdate, PredictBasis, RegionSnapshot, ReplicaOp, SessionState, StreamBase, TunerState,
};
