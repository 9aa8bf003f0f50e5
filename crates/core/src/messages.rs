//! Every protocol message exchanged in a Matrix deployment.
//!
//! The message taxonomy mirrors Figure 1b of the paper: clients talk to
//! game servers; game servers talk only to their co-located Matrix server;
//! Matrix servers talk to peer Matrix servers, the coordinator, and the
//! resource pool. All messages are plain data so the same protocol runs
//! under the discrete-event harness and the tokio runtime.

use crate::packet::{ClientId, GamePacket};
use matrix_geometry::{OverlapTable, PartitionMap, Point, Rect, ServerId};
use matrix_sim::SimTime;
use matrix_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

/// The replication batch type the protocol ships, instantiated with the
/// middleware's client key (see [`matrix_replication::ReplicaBatch`]).
pub type ReplicaBatch = matrix_replication::ReplicaBatch<ClientId>;

/// The region snapshot type the protocol ships (see
/// [`matrix_replication::RegionSnapshot`]).
pub type RegionSnapshot = matrix_replication::RegionSnapshot<ClientId>;

/// The incremental replication op type (see
/// [`matrix_replication::ReplicaOp`]).
pub type ReplicaOp = matrix_replication::ReplicaOp<ClientId>;

// ---------------------------------------------------------------------------
// Client <-> game server
// ---------------------------------------------------------------------------

/// Messages a game client sends to its game server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientToGame {
    /// Join the game (or re-attach after a server switch) at a position,
    /// carrying the client's session state.
    Join {
        /// Spawn or current position.
        pos: Point,
        /// Serialised per-client state size (bytes) travelling with the
        /// client on a switch.
        state_bytes: u64,
    },
    /// Position update from normal movement.
    Move {
        /// New position.
        pos: Point,
    },
    /// A game action (shot, chat, interaction) at the client's position.
    Action {
        /// Position at which the action happens.
        pos: Point,
        /// Game payload size in bytes.
        payload_bytes: usize,
    },
    /// Leave the game.
    Leave,
    /// Echo of a sampled causal trace: the client applied a traced item
    /// and reports its end-to-end delivery latency and staleness-at-apply
    /// (both in µs, computed from the item's
    /// [`TraceTag`](matrix_telemetry::TraceTag)). The server folds these
    /// into its per-ring `delivery_latency_r{N}_us` / `staleness_r{N}_us`
    /// histograms — the raw material of the coordinator's freshness SLO
    /// tracker. Sent only for traced items (`trace_sample_rate`), so the
    /// upstream cost scales with the sample rate, not the update rate.
    TraceAck {
        /// The vision ring the traced item was delivered through.
        ring: u8,
        /// Ingest-to-apply latency of the traced item itself (µs).
        latency_us: u64,
        /// Staleness at apply: latency plus the charged age of suppressed
        /// or policy-dropped predecessors (µs).
        staleness_us: u64,
    },
}

/// One visible event inside a [`GameToClient::UpdateBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateItem {
    /// Where the event happened.
    pub origin: Point,
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// Source entity id ([`ANON_ENTITY`](matrix_interest::ANON_ENTITY)
    /// = anonymous): the client whose move/action produced the event.
    /// Receivers use it to attribute updates; the flush policy uses it
    /// to merge superseded per-entity position updates under pressure.
    pub entity: u64,
    /// The vision ring the receiver saw this event through (`0` = the
    /// near ring, delivered in full; higher tiers are sampled). Clients
    /// use it to grade rendering fidelity — a far-ring entity is known
    /// to update at a fraction of the rate.
    pub ring: u8,
    /// The entity's estimated velocity (world units/second, x axis) at
    /// transmission time — the dead-reckoning basis the receiver
    /// extrapolates from between updates. `(0.0, 0.0)` when prediction
    /// is off; omitted from the wire then, keeping pre-prediction
    /// frames byte-identical.
    pub vx: f64,
    /// Estimated velocity, y axis (see [`UpdateItem::vx`]).
    pub vy: f64,
    /// Causal trace tag, present on the sampled subset of events
    /// (`trace_sample_rate`) and absent otherwise. Untraced items encode
    /// byte-identically to the pre-trace wire (both codecs omit the
    /// field/section entirely), so tracing-off frames are pinned
    /// unchanged.
    pub trace: Option<matrix_telemetry::TraceTag>,
}

impl UpdateItem {
    /// Per-item overhead on the wire beyond the payload itself, used
    /// for bandwidth accounting: full 8-byte coordinates (2×f64), a
    /// 2-byte length and a 4-byte entity tag (a header byte plus a
    /// 3-byte id) — exactly what the v2 binary codec emits for a
    /// canonical keyframe (`matrix_core::codec_v2`; the wire-bytes
    /// audit pins the equality). The ring tier rides in two spare bits
    /// of the entity tag's header byte, so it costs no extra wire
    /// bytes.
    pub const WIRE_BYTES: usize = 22;

    /// Extra wire cost of a velocity-carrying item: two 3-byte signed
    /// fixed-point components on the same 1/256 lattice as delta
    /// offsets (velocities are quantised before transmission). Charged
    /// only when a velocity is present.
    pub const VELOCITY_WIRE_BYTES: usize = 6;

    /// Whether this item carries a dead-reckoning velocity. A true zero
    /// velocity carries no information — extrapolating it reproduces
    /// the hold-position rendering receivers already do — so zero means
    /// "none" and stays off the wire.
    pub fn has_velocity(&self) -> bool {
        self.vx != 0.0 || self.vy != 0.0
    }
}

/// A delta-encoded event inside a [`GameToClient::UpdateBatch`]: its
/// origin is an offset from the previous item's reconstructed origin
/// (for the first item of a batch, from the last origin of the previous
/// batch on the same client stream).
///
/// Senders only emit deltas when `base + (dx, dy)` reproduces the
/// absolute origin bit-for-bit (see
/// [`DeltaEncoder`](matrix_interest::DeltaEncoder)), so reconstruction
/// through [`reconstruct_updates`] is exact, never approximate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaItem {
    /// X offset from the base origin.
    pub dx: f64,
    /// Y offset from the base origin.
    pub dy: f64,
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// Source entity id (`0` = anonymous), same as
    /// [`UpdateItem::entity`].
    pub entity: u64,
    /// The vision ring the receiver saw this event through, same as
    /// [`UpdateItem::ring`].
    pub ring: u8,
    /// Dead-reckoning velocity, x axis, same as [`UpdateItem::vx`].
    pub vx: f64,
    /// Dead-reckoning velocity, y axis, same as [`UpdateItem::vy`].
    pub vy: f64,
    /// Causal trace tag, same as [`UpdateItem::trace`]. Delta encoding
    /// preserves the tag: a traced event stays traced whether it ships
    /// as a keyframe or a delta.
    pub trace: Option<matrix_telemetry::TraceTag>,
}

impl DeltaItem {
    /// Whether this item carries a dead-reckoning velocity (see
    /// [`UpdateItem::has_velocity`]).
    pub fn has_velocity(&self) -> bool {
        self.vx != 0.0 || self.vy != 0.0
    }
    /// Per-item overhead on the wire beyond the payload, used for
    /// bandwidth accounting. The v2 binary framing
    /// (`matrix_core::codec_v2`) carries two 3-byte signed fixed-point
    /// offsets, a 2-byte length and a 4-byte entity tag (a header byte
    /// plus a 3-byte id) instead of the keyframe's full coordinates —
    /// attainable because the encoder only emits deltas that are exact
    /// multiples of the 1/256 wire quantum within the ±4096 threshold
    /// (21 bits per axis); anything else ships as an absolute keyframe.
    /// The ring tier rides in two spare bits of the entity tag's header
    /// byte, so it costs no extra wire bytes.
    pub const WIRE_BYTES: usize = 12;
}

/// One item of a [`GameToClient::UpdateBatch`]: an absolute keyframe or
/// a delta against the stream so far.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BatchItem {
    /// Absolute origin — a keyframe, decodable regardless of receiver
    /// state.
    Absolute(UpdateItem),
    /// Origin offset from the previous reconstructed origin.
    Delta(DeltaItem),
}

impl BatchItem {
    /// Payload size carried by this item.
    pub fn payload_bytes(&self) -> usize {
        match self {
            BatchItem::Absolute(u) => u.payload_bytes,
            BatchItem::Delta(d) => d.payload_bytes,
        }
    }

    /// Estimated wire size of the item (per-item overhead + payload +
    /// velocity tag when present).
    pub fn wire_bytes(&self) -> usize {
        let vel = if self.has_velocity() {
            UpdateItem::VELOCITY_WIRE_BYTES
        } else {
            0
        };
        vel + match self {
            BatchItem::Absolute(u) => UpdateItem::WIRE_BYTES + u.payload_bytes,
            BatchItem::Delta(d) => DeltaItem::WIRE_BYTES + d.payload_bytes,
        }
    }

    /// Whether this item is an absolute keyframe.
    pub fn is_keyframe(&self) -> bool {
        matches!(self, BatchItem::Absolute(_))
    }

    /// Source entity id carried by this item (`0` = anonymous).
    pub fn entity(&self) -> u64 {
        match self {
            BatchItem::Absolute(u) => u.entity,
            BatchItem::Delta(d) => d.entity,
        }
    }

    /// The vision ring the receiver saw this event through (`0` = near).
    pub fn ring(&self) -> u8 {
        match self {
            BatchItem::Absolute(u) => u.ring,
            BatchItem::Delta(d) => d.ring,
        }
    }

    /// The dead-reckoning velocity carried by this item (`(0.0, 0.0)` =
    /// none).
    pub fn velocity(&self) -> (f64, f64) {
        match self {
            BatchItem::Absolute(u) => (u.vx, u.vy),
            BatchItem::Delta(d) => (d.vx, d.vy),
        }
    }

    /// Whether this item carries a dead-reckoning velocity.
    pub fn has_velocity(&self) -> bool {
        self.velocity() != (0.0, 0.0)
    }

    /// The causal trace tag carried by this item, if sampled.
    pub fn trace(&self) -> Option<matrix_telemetry::TraceTag> {
        match self {
            BatchItem::Absolute(u) => u.trace,
            BatchItem::Delta(d) => d.trace,
        }
    }
}

/// Reconstructs the absolute [`UpdateItem`]s of one batch, threading the
/// per-stream delta base across calls (`base` is the last origin of the
/// previous batch; pass a fresh `None` after a join or server switch).
///
/// Returns `None` if a delta item arrives with no base — a protocol
/// violation, since senders keyframe after every resync.
pub fn reconstruct_updates(
    base: &mut Option<Point>,
    items: &[BatchItem],
) -> Option<Vec<UpdateItem>> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let origin = match *item {
            BatchItem::Absolute(u) => u.origin,
            BatchItem::Delta(d) => {
                let b = (*base)?;
                Point::new(b.x + d.dx, b.y + d.dy)
            }
        };
        *base = Some(origin);
        let (vx, vy) = item.velocity();
        out.push(UpdateItem {
            origin,
            payload_bytes: item.payload_bytes(),
            entity: item.entity(),
            ring: item.ring(),
            vx,
            vy,
            trace: item.trace(),
        });
    }
    Some(out)
}

/// The pipeline's view of an [`UpdateItem`]: origin, source entity and
/// absolute wire cost (item framing + payload + velocity tag), as the
/// budget policy estimates it.
impl matrix_interest::Disseminated for UpdateItem {
    fn origin(&self) -> Point {
        self.origin
    }

    fn entity(&self) -> u64 {
        self.entity
    }

    fn wire_bytes(&self) -> usize {
        let vel = if self.has_velocity() {
            UpdateItem::VELOCITY_WIRE_BYTES
        } else {
            0
        };
        UpdateItem::WIRE_BYTES + self.payload_bytes + vel
    }

    fn ring(&self) -> u8 {
        self.ring
    }

    fn strip_payload(&mut self) {
        self.payload_bytes = 0;
    }

    fn trace(&self) -> Option<matrix_telemetry::TraceTag> {
        self.trace
    }

    fn trace_charge(&mut self, age_us: u64) {
        if let Some(tag) = &mut self.trace {
            tag.charge(age_us);
        }
    }
}

/// Messages a game server sends to a client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GameToClient {
    /// The join (or re-join) was accepted.
    Joined {
        /// The accepting server.
        server: ServerId,
    },
    /// Acknowledgement of an action — the observable half of response
    /// latency.
    Ack {
        /// Sequence number of the acknowledged action.
        seq: u64,
    },
    /// A nearby event the client should render.
    ///
    /// Emitted for unbatched deliveries; the interest-managed fan-out
    /// path coalesces events into [`GameToClient::UpdateBatch`] instead.
    Update {
        /// Where the event happened.
        origin: Point,
        /// Payload size in bytes.
        payload_bytes: usize,
    },
    /// A coalesced run of nearby events, flushed on the batch interval.
    ///
    /// Batching replaces per-update message overhead with per-batch
    /// overhead; items are delta-compressed against the client's stream
    /// ([`BatchItem`]) and ordered most relevant (nearest the client)
    /// first, as produced by the flush policy. Traffic is tracked in
    /// `GameStats::batch_bytes` / `GameStats::delta_bytes_saved`.
    UpdateBatch {
        /// The events, most relevant first. Never empty.
        updates: Vec<BatchItem>,
    },
    /// Instruction to reconnect to a different game server (§3.2.1: "the
    /// client is informed of these switches by its current game server and
    /// is unaware of Matrix").
    SwitchServer {
        /// The server to reconnect to.
        to: ServerId,
    },
}

// ---------------------------------------------------------------------------
// Game server <-> local Matrix server
// ---------------------------------------------------------------------------

/// A game server's load snapshot (§3.2.2: periodic load reports).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Number of connected clients.
    pub clients: u32,
    /// Receive-queue backlog in work units (0 if the game server does not
    /// measure it).
    pub queue_backlog: f64,
    /// Client positions, if `GameServerConfig::report_positions` — enables
    /// the load-aware split strategy.
    pub positions: Vec<Point>,
    /// Telemetry snapshot, if `GameServerConfig::telemetry` — rides the
    /// load report to the local Matrix server, which forwards it on its
    /// next heartbeat so the coordinator holds a live per-node view.
    /// Boxed: reports are frequent, the snapshot occasional and bulky.
    pub telemetry: Option<Box<TelemetrySnapshot>>,
}

/// Messages from the game server to its co-located Matrix server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GameToMatrix {
    /// First contact: the game registers its world and radius of
    /// visibility (§3.2.2 "when a game server starts, it sends Matrix the
    /// visibility radius of clients in the game").
    Register {
        /// The full game world (only honoured on the bootstrap server).
        world: Rect,
        /// Radius of visibility for ordinary packets.
        radius: f64,
    },
    /// Registers an additional visibility radius for packets carrying a
    /// `radius_override` (§3.1: distinct overlap-region sets per radius).
    RegisterRadius {
        /// The extra radius.
        radius: f64,
    },
    /// A spatially tagged packet to route to whoever needs it.
    Forward(GamePacket),
    /// Periodic load report.
    Load(LoadReport),
    /// Ask which server owns a point (roaming handoff, §3.2.2: "Matrix
    /// provides the identity of the appropriate game server").
    WhereIs {
        /// The roaming client, echoed back in the reply.
        client: ClientId,
        /// The client's new position.
        point: Point,
    },
    /// Bulk game-state transfer to a peer game server during a split
    /// (routed through Matrix; §3.2.2 "forward all game specific state ...
    /// to the new game server via Matrix").
    TransferState {
        /// Destination server.
        to: ServerId,
        /// Size of the state in bytes.
        bytes: u64,
    },
    /// Per-client state pushed ahead of a redirected client.
    TransferClient {
        /// Destination server.
        to: ServerId,
        /// The client being moved.
        client: ClientId,
        /// Serialised state size in bytes.
        bytes: u64,
    },
    /// A replication batch (snapshot or incremental ops) bound for this
    /// region's warm standby, routed through Matrix like every other
    /// inter-server transfer.
    Replica {
        /// The standby server.
        to: ServerId,
        /// The batch.
        batch: ReplicaBatch,
    },
    /// A standby's acknowledgement of a replication batch, bound for
    /// the primary it mirrors.
    ReplicaAck {
        /// The primary server.
        to: ServerId,
        /// Acknowledged batch sequence number.
        seq: u64,
        /// Whether the standby needs a fresh full snapshot.
        resync: bool,
    },
}

/// Messages from a Matrix server to its co-located game server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MatrixToGame {
    /// Adopt a map range (sent on bootstrap, splits, and reclaims).
    SetRange {
        /// The new range.
        range: Rect,
        /// Radius of visibility for the game (forwarded on bootstrap of a
        /// freshly spawned server).
        radius: f64,
    },
    /// Redirect every client inside `region` to server `to` (split
    /// shedding).
    RedirectClients {
        /// The sub-range being handed off.
        region: Rect,
        /// The server taking over the region.
        to: ServerId,
    },
    /// Redirect *all* clients to `to` (the final act of a reclaimed child).
    RedirectAll {
        /// The parent server absorbing the clients.
        to: ServerId,
    },
    /// A routed packet from a peer server, to be applied to local state.
    Deliver(GamePacket),
    /// Answer to [`GameToMatrix::WhereIs`].
    Owner {
        /// The client the query was about.
        client: ClientId,
        /// The queried point.
        point: Point,
        /// The server owning that point, if any.
        owner: Option<ServerId>,
    },
    /// Bulk state from a splitting parent has arrived.
    ReceiveState {
        /// Originating server.
        from: ServerId,
        /// Size in bytes.
        bytes: u64,
    },
    /// Per-client state from a peer ahead of a client switch.
    ReceiveClient {
        /// Originating server.
        from: ServerId,
        /// The client whose state arrived.
        client: ClientId,
        /// Size in bytes.
        bytes: u64,
    },
    /// Start (or re-target) warm-standby replication: ship region
    /// snapshots and ops to `standby` from now on.
    SetStandby {
        /// The standby server granted by the pool.
        standby: ServerId,
    },
    /// Drop all replication state, both roles: the primary-side log and
    /// standby target, and any received standby snapshot. Sent when a
    /// pairing ends (release, retirement) and when a recycled server id
    /// starts a fresh life (adoption).
    ReplicaReset,
    /// A replication batch from the primary this node stands by for.
    ReplicaBatch {
        /// The primary server.
        from: ServerId,
        /// The batch.
        batch: ReplicaBatch,
    },
    /// The standby's acknowledgement of a replication batch this node
    /// shipped.
    ReplicaAck {
        /// Acknowledged batch sequence number.
        seq: u64,
        /// Whether the standby needs a fresh full snapshot.
        resync: bool,
    },
    /// Take over a dead primary's region (failover): restore the
    /// replicated snapshot, adopt the range, and re-point the affected
    /// clients here with `SwitchServer` — their sessions survive, their
    /// delta streams resync through the keyframe-on-handover machinery.
    Promote {
        /// The range the dead primary managed.
        range: Rect,
        /// Radius of visibility of the game.
        radius: f64,
    },
}

// ---------------------------------------------------------------------------
// Matrix server <-> peer Matrix servers
// ---------------------------------------------------------------------------

/// A child or parent's load, shared for reclaim decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadSnapshot {
    /// Client count.
    pub clients: u32,
    /// Queue backlog.
    pub queue_backlog: f64,
    /// Whether this server has live children of its own.
    pub has_children: bool,
}

/// Messages between Matrix servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PeerMsg {
    /// A routed consistency update for the receiver's game server.
    Update(GamePacket),
    /// Hand a partition to a freshly allocated server (split).
    AdoptPartition {
        /// The splitting (parent) server.
        parent: ServerId,
        /// The range the child now owns.
        range: Rect,
        /// Radius of visibility of the game.
        radius: f64,
        /// The parent's table epoch at split time.
        epoch: u64,
    },
    /// Child's acknowledgement of adoption.
    AdoptAck {
        /// The new child.
        child: ServerId,
    },
    /// Bulk game state routed between game servers (split).
    StateTransfer {
        /// Originating server.
        from: ServerId,
        /// Size in bytes.
        bytes: u64,
    },
    /// Per-client state routed ahead of a switching client.
    ClientTransfer {
        /// Originating server.
        from: ServerId,
        /// The client in flight.
        client: ClientId,
        /// Size in bytes.
        bytes: u64,
    },
    /// Parent asks an underloaded child to fold back in.
    ReclaimRequest {
        /// The requesting parent.
        parent: ServerId,
    },
    /// Child agrees: its clients are being redirected, range returned.
    ReclaimGrant {
        /// The folding child.
        child: ServerId,
        /// The range being returned.
        range: Rect,
        /// Clients that were redirected to the parent.
        clients: u32,
    },
    /// Child refuses (it is loaded or has children of its own).
    ReclaimDeny {
        /// The refusing child.
        child: ServerId,
    },
    /// Periodic child → parent load share.
    LoadStatus(LoadSnapshot),
    /// The sender designates the receiver as its warm standby (the
    /// receiver stays idle but starts heartbeating and accepting
    /// replica batches).
    StandbyAssign {
        /// The primary being mirrored.
        primary: ServerId,
        /// The primary's current range (observability; the snapshot is
        /// authoritative).
        range: Rect,
        /// Radius of visibility of the game.
        radius: f64,
    },
    /// The pairing ended without promotion (the primary retired): the
    /// receiver drops its replica state.
    StandbyRelease {
        /// The releasing primary.
        primary: ServerId,
    },
    /// A replication batch, primary → standby.
    Replica {
        /// The shipping primary.
        from: ServerId,
        /// The batch.
        batch: ReplicaBatch,
    },
    /// A replication acknowledgement, standby → primary.
    ReplicaAck {
        /// The acking standby.
        from: ServerId,
        /// Acknowledged batch sequence number.
        seq: u64,
        /// Whether the standby needs a fresh full snapshot.
        resync: bool,
    },
}

// ---------------------------------------------------------------------------
// Matrix server <-> coordinator
// ---------------------------------------------------------------------------

/// Messages to the Matrix Coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordMsg {
    /// Bootstrap registration of the first server with the game world.
    RegisterWorld {
        /// The registering server.
        server: ServerId,
        /// The world rectangle.
        world: Rect,
        /// Primary radius of visibility.
        radius: f64,
    },
    /// An extra visibility radius needs tables too.
    RegisterRadius {
        /// The requesting server.
        server: ServerId,
        /// The extra radius.
        radius: f64,
    },
    /// A split happened (parent kept `parent_range`, child got
    /// `child_range`); the MC must recompute overlap tables (§3.2.4).
    SplitOccurred {
        /// The splitting server.
        parent: ServerId,
        /// The new server.
        child: ServerId,
        /// Parent's retained range.
        parent_range: Rect,
        /// Child's new range.
        child_range: Rect,
    },
    /// A reclaim happened; `parent` now owns `merged_range`.
    ReclaimOccurred {
        /// The absorbing parent.
        parent: ServerId,
        /// The removed child.
        child: ServerId,
        /// The parent's merged range.
        merged_range: Rect,
    },
    /// Liveness heartbeat, carrying the sender's installed table epoch
    /// so the coordinator can detect and repair lost table pushes.
    Heartbeat {
        /// The live server.
        server: ServerId,
        /// The table epoch the server currently routes with.
        epoch: u64,
        /// The co-located game server's latest telemetry snapshot, if one
        /// arrived since the previous heartbeat (None with telemetry off —
        /// the legacy wire shape is unchanged).
        telemetry: Option<Box<TelemetrySnapshot>>,
    },
    /// A reclaim grant arrived but the returned range no longer tiles with
    /// the parent's (the child's range changed through crash absorption).
    /// The coordinator must find the orphaned range a mergeable owner.
    OrphanRange {
        /// The parent that failed to merge.
        parent: ServerId,
        /// The retired child whose range is orphaned.
        child: ServerId,
        /// The orphaned range.
        range: Rect,
    },
    /// A primary paired with a warm standby; on the primary's liveness
    /// expiry the coordinator promotes the standby instead of handing
    /// the range to a neighbour.
    StandbyAssigned {
        /// The replicating primary.
        primary: ServerId,
        /// Its warm standby.
        standby: ServerId,
    },
    /// Resolve a point to its owner and consistency set (non-proximal
    /// interactions, §3.2.4).
    ResolvePoint {
        /// The asking server.
        server: ServerId,
        /// The client the query is on behalf of, echoed through.
        client: ClientId,
        /// The point to resolve.
        point: Point,
        /// Radius for the consistency set (defaults to the game radius).
        radius: Option<f64>,
    },
}

/// Messages from the coordinator to a Matrix server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordReply {
    /// Fresh overlap tables after a topology change. Each server receives
    /// its own table plus the partition directory for owner lookups.
    Tables {
        /// Monotone epoch of the recomputation.
        epoch: u64,
        /// This server's overlap table for the primary radius.
        table: OverlapTable,
        /// Tables for additional registered radii, keyed by radius bits.
        extra_tables: Vec<(u64, OverlapTable)>,
        /// Snapshot of the full partition map (the directory).
        map: PartitionMap,
    },
    /// Answer to [`CoordMsg::ResolvePoint`].
    Resolved {
        /// The client echoed from the query.
        client: ClientId,
        /// The queried point.
        point: Point,
        /// Owner of the point, if inside the world.
        owner: Option<ServerId>,
        /// Consistency set of the point.
        set: Vec<ServerId>,
    },
    /// The coordinator believes a peer died; the receiver must absorb the
    /// given range (crash recovery).
    AbsorbFailed {
        /// The dead server.
        failed: ServerId,
        /// The range to absorb.
        range: Rect,
    },
    /// The receiver — a warm standby — must take over its dead
    /// primary's region (fast failover).
    Promote {
        /// The dead primary.
        failed: ServerId,
        /// The range to adopt.
        range: Rect,
        /// Radius of visibility of the game.
        radius: f64,
    },
    /// The receiver's warm standby died; replication must re-pair.
    StandbyLost {
        /// The dead standby.
        standby: ServerId,
    },
}

// ---------------------------------------------------------------------------
// Matrix server <-> resource pool
// ---------------------------------------------------------------------------

/// Why a server is being drawn from the pool. Echoed in the grant so a
/// requester with a split and a standby acquisition in flight can tell
/// the replies apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PoolPurpose {
    /// Split target: the server will adopt a partition immediately.
    Split,
    /// Warm standby: the server mirrors a region for fast failover.
    Standby,
}

/// Messages to the resource pool (the paper's "non-Matrix external
/// entity" that hands out spare servers, §3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolMsg {
    /// Request one spare server.
    Acquire {
        /// The requester (overloaded, or seeking a standby).
        requester: ServerId,
        /// What the server is for.
        purpose: PoolPurpose,
    },
    /// Return a reclaimed server to the pool.
    Release {
        /// The retired server.
        server: ServerId,
    },
}

/// Replies from the resource pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolReply {
    /// A spare server was allocated.
    Grant {
        /// The allocated server id.
        server: ServerId,
        /// The purpose echoed from the request.
        purpose: PoolPurpose,
    },
    /// No spare capacity — the requester stays overloaded (the situation
    /// static over-provisioning tries to buy its way out of).
    Denied {
        /// The purpose echoed from the request.
        purpose: PoolPurpose,
    },
}

/// Timestamped envelope used by drivers that need send-time bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope<M> {
    /// When the message was sent.
    pub sent_at: SimTime,
    /// The message.
    pub msg: M,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_snapshot_is_copy() {
        let s = LoadSnapshot {
            clients: 10,
            queue_backlog: 1.0,
            has_children: false,
        };
        let t = s;
        assert_eq!(s, t);
    }

    #[test]
    fn client_protocol_round_trips_through_codec() {
        // The client-facing half of the protocol crosses real sockets as
        // v2 frames; both directions must round-trip.
        use crate::codec_v2::{decode_frame, encode_frame, Frame, FrameMeta, FrameStatus};
        let round_trip = |frame: Frame| {
            let bytes = encode_frame(&frame, FrameMeta::default(), true);
            let Ok(FrameStatus::Complete { frame: back, .. }) = decode_frame(&bytes) else {
                panic!("{frame:?} did not decode");
            };
            assert_eq!(back, frame);
        };
        round_trip(Frame::Client(ClientToGame::Join {
            pos: Point::new(1.5, -2.25),
            state_bytes: 64,
        }));

        round_trip(Frame::Server(GameToClient::UpdateBatch {
            updates: vec![
                BatchItem::Absolute(UpdateItem {
                    origin: Point::new(0.1, 0.2),
                    payload_bytes: 90,
                    entity: 7,
                    ring: 0,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }),
                BatchItem::Delta(DeltaItem {
                    dx: 2.9,
                    dy: 3.8,
                    payload_bytes: 32,
                    entity: 0,
                    ring: 0,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }),
            ],
        }));
    }

    #[test]
    fn reconstruction_threads_the_base_across_batches() {
        let mut base = None;
        let first = reconstruct_updates(
            &mut base,
            &[
                BatchItem::Absolute(UpdateItem {
                    origin: Point::new(10.0, 10.0),
                    payload_bytes: 4,
                    entity: 3,
                    ring: 0,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }),
                BatchItem::Delta(DeltaItem {
                    dx: 1.5,
                    dy: -0.5,
                    payload_bytes: 8,
                    entity: 4,
                    ring: 0,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                }),
            ],
        )
        .unwrap();
        assert_eq!(first[1].origin, Point::new(11.5, 9.5));
        // The next batch's leading delta chains off the threaded base.
        let second = reconstruct_updates(
            &mut base,
            &[BatchItem::Delta(DeltaItem {
                dx: 0.5,
                dy: 0.5,
                payload_bytes: 1,
                entity: 3,
                ring: 0,
                vx: 0.0,
                vy: 0.0,
                trace: None,
            })],
        )
        .unwrap();
        assert_eq!(second[0].origin, Point::new(12.0, 10.0));
        // A delta with no base is a protocol violation.
        assert_eq!(
            reconstruct_updates(
                &mut None,
                &[BatchItem::Delta(DeltaItem {
                    dx: 1.0,
                    dy: 1.0,
                    payload_bytes: 0,
                    entity: 0,
                    ring: 0,
                    vx: 0.0,
                    vy: 0.0,
                    trace: None,
                })]
            ),
            None
        );
    }
}
