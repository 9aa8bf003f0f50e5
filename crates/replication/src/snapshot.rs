//! The transferable image of one game server's region.

use matrix_geometry::{Point, Rect};
use matrix_sim::SimTime;
use std::collections::BTreeMap;

/// One connected client's session, as the snapshot carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionState {
    /// Last known position.
    pub pos: Point,
    /// Serialised per-client state size in bytes (travels on switches).
    pub state_bytes: u64,
}

/// One client's delta-compression stream state: the base origin the
/// *receiver* holds and the flushes left before a forced keyframe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamBase {
    /// Origin of the last item flushed to this client.
    pub base: Point,
    /// Flushes left before an absolute keyframe is forced.
    pub countdown: u32,
}

/// One queued-but-unflushed update, as the snapshot carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingUpdate {
    /// Where the event happened (already lattice-snapped).
    pub origin: Point,
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// Source entity id (`0` = anonymous).
    pub entity: u64,
    /// The vision ring the receiver was graded into when the update was
    /// admitted (`0` = near). Preserved so a restored node flushes the
    /// identical ring-tagged items the primary would have.
    pub ring: u8,
    /// Dead-reckoning velocity shipped with the item, x axis
    /// (`0.0, 0.0` = none; prediction off).
    pub vx: f64,
    /// Dead-reckoning velocity, y axis.
    pub vy: f64,
    /// Causal trace tag carried by the queued event, if sampled.
    /// Replicated so a promoted standby delivers the traced item with
    /// its original ingest time intact — the end-to-end latency a client
    /// measures across a failover includes the failover itself.
    pub trace: Option<matrix_telemetry::TraceTag>,
}

/// One dead-reckoning basis: what a receiver extrapolates one entity
/// from — the last transmitted position, velocity and instant.
/// Replicated so a promoted standby keeps suppressing consistently with
/// what the receivers actually hold, instead of rebasing (and
/// retransmitting) every visible entity at failover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictBasis {
    /// The extrapolated entity.
    pub entity: u64,
    /// Last transmitted (wire) position.
    pub pos: Point,
    /// Transmitted velocity, x axis (world units/second).
    pub vx: f64,
    /// Transmitted velocity, y axis.
    pub vy: f64,
    /// Transmission instant, in seconds.
    pub time_secs: f64,
}

/// The interest-grid auto-tuner's learned state, replicated so a
/// promoted standby inherits the tuned resolution instead of re-learning
/// the region's density from the configured default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunerState {
    /// The resolution (cells per axis) the tuner currently stands
    /// behind.
    pub cells: u32,
    /// Consecutive observations agreeing on the pending retune.
    pub streak: u32,
    /// The resolution the in-flight streak agrees on (`0` = none).
    pub pending: u32,
}

/// A versioned, restorable image of one region: everything a standby
/// needs to take over a dead primary's game server without the clients
/// reconnecting.
///
/// The snapshot is plain data — applying it to a node and re-deriving
/// the node's interest grid from the client positions reproduces the
/// region observably (client set, receiver sets, next flush). The wire
/// form lives in `matrix_core::codec_v2` and carries
/// [`RegionSnapshot::VERSION`] so incompatible peers fail loudly
/// instead of mis-decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSnapshot<K: Ord> {
    /// Managed map range, if one was assigned.
    pub range: Option<Rect>,
    /// The game's registered radius of visibility.
    pub radius: f64,
    /// Whether bulk state had arrived (split-readiness flag).
    pub ready: bool,
    /// The packet sequence counter at snapshot time.
    pub seq: u64,
    /// When the last batch flush ran.
    pub last_flush: SimTime,
    /// The grid auto-tuner's learned state (`None` when the primary
    /// runs a static grid; the wire form omits it then, keeping
    /// static-grid frames identical to pre-tuner ones).
    pub tuner: Option<TunerState>,
    /// Connected clients and their sessions.
    pub clients: BTreeMap<K, SessionState>,
    /// Per-client delta-encoder stream state.
    pub streams: BTreeMap<K, StreamBase>,
    /// Per-client pending (queued, unflushed) updates.
    pub pending: BTreeMap<K, Vec<PendingUpdate>>,
    /// Per-client dead-reckoning bases, one per visible entity (empty
    /// when prediction is off; the wire form omits it then, keeping
    /// prediction-free frames identical to pre-prediction ones).
    pub bases: BTreeMap<K, Vec<PredictBasis>>,
}

impl<K: Ord> Default for RegionSnapshot<K> {
    fn default() -> Self {
        RegionSnapshot {
            range: None,
            radius: 0.0,
            ready: false,
            seq: 0,
            last_flush: SimTime::ZERO,
            tuner: None,
            clients: BTreeMap::new(),
            streams: BTreeMap::new(),
            pending: BTreeMap::new(),
            bases: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Copy> RegionSnapshot<K> {
    /// Wire-format version of the snapshot codec. Bumped on any
    /// incompatible change to the snapshot's field set; decoders reject
    /// other versions. Optional, default-omitted extensions (the tuner
    /// state, per-item ring tags) stay within a version — frames without
    /// them decode to the defaults, and defaults encode without them.
    pub const VERSION: u32 = 1;

    /// Connected client count.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Applies one incremental op, keeping the snapshot current with the
    /// primary's session state.
    ///
    /// Ops deliberately cover only *session* state (who is connected,
    /// where, what range). The flush-pipeline state (delta bases,
    /// pending batches) rides on full snapshots only: at promotion time
    /// every client resyncs through a keyframe anyway, because the
    /// primary kept flushing after the last full snapshot and the
    /// clients' receiver-side bases are unknowable to the standby.
    pub fn apply(&mut self, op: &ReplicaOp<K>) {
        match *op {
            ReplicaOp::Join {
                client,
                pos,
                state_bytes,
            } => {
                self.clients
                    .insert(client, SessionState { pos, state_bytes });
                // A (re)join resets the client's delta stream and its
                // dead-reckoning bases (a fresh connection extrapolates
                // from nothing).
                self.streams.remove(&client);
                self.bases.remove(&client);
            }
            ReplicaOp::Move { client, pos } => {
                if let Some(s) = self.clients.get_mut(&client) {
                    s.pos = pos;
                }
            }
            ReplicaOp::Leave { client } => {
                self.clients.remove(&client);
                self.streams.remove(&client);
                self.pending.remove(&client);
                self.bases.remove(&client);
            }
            ReplicaOp::Range { range, radius } => {
                self.range = Some(range);
                if radius > 0.0 {
                    self.radius = radius;
                }
                self.ready = true;
            }
        }
    }

    /// Estimated wire size in bytes, used for replication-overhead
    /// accounting (coordinates as 8-byte floats, ids as 8 bytes, small
    /// framing constants).
    pub fn wire_bytes(&self) -> usize {
        let header = 48; // version, seq, flags, range, radius, timestamps
        let clients = self.clients.len() * 32; // id + pos + state size
        let streams = self.streams.len() * 28; // id + base + countdown
        let pending: usize = self.pending.values().map(|v| 16 + v.len() * 32).sum();
        // id + per basis: entity + pos + vel + time
        let bases: usize = self.bases.values().map(|v| 16 + v.len() * 48).sum();
        header + clients + streams + pending + bases
    }
}

/// One incremental replication op: a session-state mutation on the
/// primary, shipped to keep the standby's snapshot current between full
/// snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicaOp<K> {
    /// A client joined (or re-joined) the region.
    Join {
        /// The client.
        client: K,
        /// Join position.
        pos: Point,
        /// Serialised session-state size in bytes.
        state_bytes: u64,
    },
    /// A client moved.
    Move {
        /// The client.
        client: K,
        /// New position.
        pos: Point,
    },
    /// A client left (or was redirected away).
    Leave {
        /// The client.
        client: K,
    },
    /// The managed range or radius changed (splits, reclaims, absorbs).
    Range {
        /// The new range.
        range: Rect,
        /// Radius of visibility (`0.0` = unchanged).
        radius: f64,
    },
}

impl<K> ReplicaOp<K> {
    /// Estimated wire size in bytes for overhead accounting.
    pub fn wire_bytes(&self) -> usize {
        match self {
            ReplicaOp::Join { .. } => 33,
            ReplicaOp::Move { .. } => 25,
            ReplicaOp::Leave { .. } => 9,
            ReplicaOp::Range { .. } => 41,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> RegionSnapshot<u64> {
        let mut s = RegionSnapshot::default();
        s.apply(&ReplicaOp::Range {
            range: Rect::from_coords(0.0, 0.0, 100.0, 100.0),
            radius: 10.0,
        });
        s.apply(&ReplicaOp::Join {
            client: 1,
            pos: Point::new(5.0, 5.0),
            state_bytes: 64,
        });
        s
    }

    #[test]
    fn ops_maintain_session_state() {
        let mut s = snap();
        assert_eq!(s.client_count(), 1);
        s.apply(&ReplicaOp::Move {
            client: 1,
            pos: Point::new(6.0, 5.0),
        });
        assert_eq!(s.clients[&1].pos, Point::new(6.0, 5.0));
        s.apply(&ReplicaOp::Leave { client: 1 });
        assert_eq!(s.client_count(), 0);
    }

    #[test]
    fn join_resets_the_clients_stream() {
        let mut s = snap();
        s.streams.insert(
            1,
            StreamBase {
                base: Point::new(5.0, 5.0),
                countdown: 3,
            },
        );
        s.apply(&ReplicaOp::Join {
            client: 1,
            pos: Point::new(7.0, 7.0),
            state_bytes: 64,
        });
        assert!(s.streams.is_empty(), "rejoin invalidates the delta base");
    }

    #[test]
    fn leave_drops_pending_and_stream() {
        let mut s = snap();
        s.pending.insert(
            1,
            vec![PendingUpdate {
                origin: Point::new(1.0, 1.0),
                payload_bytes: 8,
                entity: 2,
                ring: 0,
                vx: 0.0,
                vy: 0.0,
                trace: None,
            }],
        );
        s.streams.insert(
            1,
            StreamBase {
                base: Point::new(5.0, 5.0),
                countdown: 1,
            },
        );
        s.apply(&ReplicaOp::Leave { client: 1 });
        assert!(s.pending.is_empty());
        assert!(s.streams.is_empty());
    }

    #[test]
    fn moves_of_unknown_clients_are_tolerated() {
        let mut s = snap();
        s.apply(&ReplicaOp::Move {
            client: 99,
            pos: Point::new(1.0, 1.0),
        });
        assert_eq!(s.client_count(), 1, "stale op after a leave is a no-op");
    }

    #[test]
    fn wire_size_grows_with_content() {
        let empty = RegionSnapshot::<u64>::default().wire_bytes();
        let filled = snap().wire_bytes();
        assert!(filled > empty);
        assert!(ReplicaOp::<u64>::Leave { client: 1 }.wire_bytes() > 0);
    }
}
