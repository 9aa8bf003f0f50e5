//! Wire protocol v2: length-prefixed binary framing, the one encoding
//! every message the middleware puts on a real socket uses — game
//! clients, replica streams, load reports and the stats endpoint.
//!
//! A game client opens with a [`Frame::Hello`] and waits for the
//! gateway's `Hello` before sending anything else (see `docs/WIRE.md`).
//! The runtime's gateway and stats endpoint close any connection whose
//! first byte is not [`MAGIC`]`[0]`.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0xD7 0x4D
//! 2       1     protocol version (2)
//! 3       1     frame type (low 5 bits) | flags (high 3 bits; 0x80 = CRC)
//! 4       4     body length, u32 LE
//! 8       8     sender sequence number, u64 LE
//! 16      4     sender timestamp, ms, u32 LE
//! 20      len   body (grammar per frame type, see `docs/WIRE.md`)
//! 20+len  4     CRC32 (IEEE) of bytes 0..20+len — only when flag 0x80
//! ```
//!
//! The header is fixed-size (20 bytes; 24 with the CRC trailer) so a
//! receiver can delimit a frame in O(1) without touching the body;
//! varints appear only *inside* bodies (counts, ids, string lengths)
//! where they pay for themselves. With the CRC on — the default — the
//! per-frame overhead is exactly [`BATCH_OVERHEAD_BYTES`] = 24, the
//! figure the byte-accounting model has always charged per batch.
//!
//! # Batch items
//!
//! `UpdateBatch` bodies are a plain concatenation of items (the frame
//! length delimits them; no count prefix). Each item leads with a
//! header byte:
//!
//! ```text
//! bit 0   kind: 0 = absolute keyframe, 1 = delta
//! bit 1-2 vision ring (0..=3)
//! bit 3   velocity pair present
//! bit 4   wide entity id (u64 LE instead of u24 LE)
//! bit 5   wide delta offsets (2×f64 instead of 2×i24 lattice)
//! bit 6   wide velocity (2×f64 instead of 2×i24 lattice)
//! bit 7   wide payload length (u64 LE instead of u16 LE)
//! ```
//!
//! followed by the entity id, the payload length, the coordinates
//! (absolute: always 2×f64; delta: 2×i24 fixed-point on the 1/256
//! lattice, or 2×f64 when the wide bit is set) and, when present, the
//! velocity pair (same i24/f64 split). The canonical shapes measure
//! exactly what the accounting constants claim: an absolute item is
//! [`UpdateItem::WIRE_BYTES`] = 22, a delta [`DeltaItem::WIRE_BYTES`]
//! = 12, a velocity pair [`UpdateItem::VELOCITY_WIRE_BYTES`] = 6 (the
//! wire-bytes audit in `tests/codec_v2_properties.rs` pins this).
//! Payload *content* is never materialized: the length is a declared
//! number — the simulation ships sizes, not state.
//!
//! # Robustness
//!
//! Decoders never panic and never read past the buffer: every read is
//! bounds-checked, trailing body bytes are rejected, and unknown
//! versions, frame types or flag bits fail loudly. A CRC-carrying
//! frame rejects any corruption of header or body; the
//! [`FrameAccumulator`] then resynchronizes the stream at the next
//! magic boundary. The fuzz suite (`tests/codec_v2_fuzz.rs`) drives
//! random bytes, truncations and bit flips through every decoder.

use crate::messages::{
    BatchItem, ClientToGame, DeltaItem, GameToClient, LoadReport, RegionSnapshot, ReplicaBatch,
    ReplicaOp, UpdateItem,
};
use crate::packet::ClientId;
use matrix_geometry::{Point, Rect, ServerId};
use matrix_replication::{
    PendingUpdate, PredictBasis, ReplicaPayload, SessionState, StreamBase, TunerState,
};
use matrix_sim::SimTime;
use matrix_telemetry::{HistSnapshot, TelemetrySnapshot};

/// A malformed frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError {
    /// What went wrong, for diagnostics.
    pub reason: String,
}

impl CodecError {
    pub(crate) fn new(reason: impl Into<String>) -> CodecError {
        CodecError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad frame: {}", self.reason)
    }
}

impl std::error::Error for CodecError {}

/// Format version of the stats query/reply frames. Versioned separately
/// from the replication frames: the stats endpoint and the replication
/// link evolve independently.
pub const STATS_VERSION: u32 = 1;

/// The exposition format a stats query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Structured reply: one [`Frame::StatsReply`] (format byte 0).
    Binary,
    /// Prometheus-style text exposition
    /// ([`matrix_telemetry::render_prometheus`]), read to EOF (format
    /// byte 1).
    Prom,
}

/// The two bytes every binary frame opens with.
pub const MAGIC: [u8; 2] = [0xD7, 0x4D];

/// Protocol version carried in byte 2 of every frame.
pub const WIRE_VERSION: u8 = 2;

/// Fixed frame-header size (magic, version, type/flags, length, seq,
/// timestamp).
pub const HEADER_BYTES: usize = 20;

/// CRC32 trailer size, when the frame carries one.
pub const CRC_BYTES: usize = 4;

/// Per-frame overhead with the CRC trailer on (the default): header
/// plus trailer. Equals the 24 bytes the byte-accounting model charges
/// per `UpdateBatch`.
pub const BATCH_OVERHEAD_BYTES: usize = HEADER_BYTES + CRC_BYTES;

/// Upper bound on a body length a decoder will accept. Far above any
/// real frame (batches cap at `max_updates_per_flush` items); bounds
/// the memory a corrupt length prefix can make a receiver reserve.
pub const MAX_BODY_BYTES: u32 = 1 << 24;

/// Flag bit in the type byte: frame carries a CRC32 trailer.
const FLAG_CRC: u8 = 0x80;
/// Flag bit in the type byte: a `T_BATCH` body opens with a sampled
/// trace section (`u16` entry count, then per entry: `u16` item index,
/// `u32` origin node, `u32` event seq, `u64` ingest µs, `u64` charged
/// staleness µs). Only valid on `T_BATCH`; untraced batches never set
/// it, so their frames stay byte-identical to pre-trace ones.
const FLAG_TRACE: u8 = 0x40;
/// Reserved flag bits — must be zero in v2.
const FLAG_RESERVED: u8 = 0x20;
/// Frame-type mask in the type byte.
const TYPE_MASK: u8 = 0x1F;

// Frame type codes (low 5 bits of byte 3).
const T_HELLO: u8 = 0;
const T_JOIN: u8 = 1;
const T_MOVE: u8 = 2;
const T_ACTION: u8 = 3;
const T_LEAVE: u8 = 4;
const T_JOINED: u8 = 5;
const T_ACK: u8 = 6;
const T_UPDATE: u8 = 7;
const T_BATCH: u8 = 8;
const T_SWITCH: u8 = 9;
const T_REPLICA: u8 = 10;
const T_REPLICA_ACK: u8 = 11;
const T_STATS_QUERY: u8 = 12;
const T_STATS_REPLY: u8 = 13;
const T_LOAD: u8 = 14;
const T_TRACE_ACK: u8 = 15;

/// Wire size of one trace-section entry (item index + origin + seq +
/// ingest + staleness). Public so byte-accounting mirrors (tests, the
/// sim's bandwidth model) can compose frame lengths without encoding.
pub const TRACE_ENTRY_BYTES: usize = 2 + 4 + 4 + 8 + 8;

// Batch-item header-byte bits (module docs above).
const ITEM_DELTA: u8 = 0x01;
const ITEM_RING_SHIFT: u8 = 1;
const ITEM_RING_MASK: u8 = 0x06;
const ITEM_VEL: u8 = 0x08;
const ITEM_WIDE_ENTITY: u8 = 0x10;
const ITEM_WIDE_COORDS: u8 = 0x20;
const ITEM_WIDE_VEL: u8 = 0x40;
const ITEM_WIDE_LEN: u8 = 0x80;

/// The fixed-point lattice the compact delta/velocity encodings live
/// on: 1/256 world units, the same quantum the delta encoder snaps
/// wire origins to (`GameServerConfig::origin_quantum`).
const LATTICE: f64 = 256.0;
/// Largest magnitude an i24 lattice component can carry.
const I24_MAX: i32 = (1 << 23) - 1;

/// Replica-payload kind codes.
const P_FULL: u8 = 0;
const P_OPS: u8 = 1;

/// Replica-op tag codes.
const OP_JOIN: u8 = 0;
const OP_MOVE: u8 = 1;
const OP_LEAVE: u8 = 2;
const OP_RANGE: u8 = 3;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven, built at compile time
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// The frame set
// ---------------------------------------------------------------------------

/// Per-frame transport metadata carried in the fixed header: the
/// sender's sequence number and millisecond timestamp. Purely
/// observational (loss/reorder diagnostics, one-way delay estimates);
/// no decoder behavior depends on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameMeta {
    /// Sender's monotone frame counter.
    pub seq: u64,
    /// Sender's clock at encode time, in milliseconds (wraps ~50 days).
    pub stamp_ms: u32,
}

/// One decoded v2 frame: every message the middleware puts on a real
/// wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session handshake: the sender speaks binary protocol `version`.
    /// A game client opens with it and the gateway answers with its own
    /// `Hello` before the client joins.
    Hello {
        /// Highest protocol version the sender speaks.
        version: u8,
    },
    /// A client-to-game message (`join` / `move` / `action` / `leave`).
    Client(ClientToGame),
    /// A game-to-client message (`joined` / `ack` / `update` / `batch`
    /// / `switch`).
    Server(GameToClient),
    /// A replication batch (full snapshot or incremental ops). Boxed:
    /// snapshots are bulky, the other variants are not.
    Replica(Box<ReplicaBatch>),
    /// A replication acknowledgement.
    ReplicaAck {
        /// Highest batch sequence number applied.
        seq: u64,
        /// Whether the standby needs a full snapshot resync.
        resync: bool,
    },
    /// A live-stats query for the given exposition format.
    StatsQuery(StatsFormat),
    /// A live-stats reply: one telemetry snapshot per node.
    StatsReply(Vec<(ServerId, TelemetrySnapshot)>),
    /// A load-report heartbeat. Boxed for the same reason the in-memory
    /// message boxes its telemetry: reports are frequent and bulky.
    Load(Box<LoadReport>),
}

/// Outcome of [`decode_frame`] on a (possibly partial) buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameStatus {
    /// The buffer holds a valid prefix of a frame; feed more bytes.
    Incomplete,
    /// One whole frame was decoded.
    Complete {
        /// The decoded frame.
        frame: Frame,
        /// Transport metadata from the fixed header.
        meta: FrameMeta,
        /// Bytes consumed from the front of the buffer.
        consumed: usize,
    },
}

// ---------------------------------------------------------------------------
// Little-endian / varint writers
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

fn put_u24(out: &mut Vec<u8>, v: u32) {
    debug_assert!(v <= 0x00FF_FFFF);
    out.extend_from_slice(&v.to_le_bytes()[..3]);
}

fn put_i24(out: &mut Vec<u8>, v: i32) {
    debug_assert!((-(I24_MAX + 1)..=I24_MAX).contains(&v));
    out.extend_from_slice(&(v as u32).to_le_bytes()[..3]);
}

/// LEB128 unsigned varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Length-prefixed UTF-8 string (varint length).
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Snaps `v` onto the 1/256 lattice as an i24, or `None` if it is not
/// exactly representable there (off-lattice value or out of range).
fn lattice_i24(v: f64) -> Option<i32> {
    let scaled = v * LATTICE;
    // Integral, in range, and exactly recoverable: x/256 is exact in
    // binary floating point for any integral x, so the round trip is
    // bit-faithful whenever `scaled` is an in-range integer.
    if scaled.fract() != 0.0 || scaled.abs() > I24_MAX as f64 {
        return None;
    }
    Some(scaled as i32)
}

/// Whether a velocity pair fits the compact lattice encoding.
fn lattice_vel(vx: f64, vy: f64) -> Option<(i32, i32)> {
    Some((lattice_i24(vx)?, lattice_i24(vy)?))
}

// ---------------------------------------------------------------------------
// Bounds-checked reader
// ---------------------------------------------------------------------------

/// A cursor over a frame body. Every read is bounds-checked; the body
/// must be fully consumed (`finish`) for a decode to succeed.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(format!("truncated {what}")));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, CodecError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u24(&mut self, what: &str) -> Result<u32, CodecError> {
        let b = self.take(3, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], 0]))
    }

    fn i24(&mut self, what: &str) -> Result<i32, CodecError> {
        let raw = self.u24(what)?;
        // Sign-extend from bit 23.
        Ok(((raw << 8) as i32) >> 8)
    }

    fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, CodecError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn point(&mut self, what: &str) -> Result<Point, CodecError> {
        Ok(Point::new(self.f64(what)?, self.f64(what)?))
    }

    fn varint(&mut self, what: &str) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(what)?;
            let low = (byte & 0x7F) as u64;
            // The tenth byte may only carry the final bit of a u64.
            if shift == 63 && low > 1 {
                return Err(CodecError::new(format!("varint overflow in {what}")));
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::new(format!("varint overflow in {what}")))
    }

    fn varu32(&mut self, what: &str) -> Result<u32, CodecError> {
        let v = self.varint(what)?;
        u32::try_from(v).map_err(|_| CodecError::new(format!("{what} out of u32 range")))
    }

    /// Varint length prefix used to size a `Vec::with_capacity`:
    /// additionally bounded by the bytes actually left in the body
    /// (each element costs ≥ 1 byte), so a corrupt count cannot make
    /// the decoder reserve unbounded memory.
    fn count(&mut self, what: &str) -> Result<usize, CodecError> {
        let n = self.varint(what)?;
        if n > self.remaining() as u64 {
            return Err(CodecError::new(format!("{what} exceeds frame size")));
        }
        Ok(n as usize)
    }

    fn bool(&mut self, what: &str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::new(format!("{what} must be 0 or 1, got {b}"))),
        }
    }

    fn str(&mut self, what: &str) -> Result<String, CodecError> {
        let len = self.count(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::new(format!("{what} is not UTF-8")))
    }

    fn finish(self, what: &str) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::new(format!(
                "{} trailing bytes after {what} body",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame encode
// ---------------------------------------------------------------------------

/// Encodes one frame, returning the complete wire bytes (header, body
/// and — when `crc` — the CRC32 trailer).
pub fn encode_frame(frame: &Frame, meta: FrameMeta, crc: bool) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    let ty = encode_body(frame, &mut body);
    finish_frame(ty, body, meta, crc)
}

/// Encodes a client message as a frame, without wrapping it in an
/// owned [`Frame`] first.
pub fn encode_client_frame(msg: &ClientToGame, meta: FrameMeta, crc: bool) -> Vec<u8> {
    let mut body = Vec::with_capacity(32);
    let ty = encode_client_body(msg, &mut body);
    finish_frame(ty, body, meta, crc)
}

/// Encodes a server message as a frame, without wrapping it in an
/// owned [`Frame`] first.
pub fn encode_server_frame(msg: &GameToClient, meta: FrameMeta, crc: bool) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    let ty = encode_server_body(msg, &mut body);
    finish_frame(ty, body, meta, crc)
}

/// Encodes a replication batch as a frame, without wrapping it in an
/// owned [`Frame`] first (snapshots are bulky; no clone).
pub fn encode_replica_batch_frame(batch: &ReplicaBatch, meta: FrameMeta, crc: bool) -> Vec<u8> {
    let mut body = Vec::with_capacity(96);
    encode_replica_body(batch, &mut body);
    finish_frame(T_REPLICA, body, meta, crc)
}

fn finish_frame(ty: u8, body: Vec<u8>, meta: FrameMeta, crc: bool) -> Vec<u8> {
    debug_assert!(
        body.len() <= MAX_BODY_BYTES as usize,
        "oversized frame body"
    );
    let mut out = Vec::with_capacity(HEADER_BYTES + body.len() + CRC_BYTES);
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(ty | if crc { FLAG_CRC } else { 0 });
    put_u32(&mut out, body.len() as u32);
    put_u64(&mut out, meta.seq);
    put_u32(&mut out, meta.stamp_ms);
    out.extend_from_slice(&body);
    if crc {
        let sum = crc32(&out);
        put_u32(&mut out, sum);
    }
    out
}

fn encode_body(frame: &Frame, out: &mut Vec<u8>) -> u8 {
    match frame {
        Frame::Hello { version } => {
            out.push(*version);
            T_HELLO
        }
        Frame::Client(msg) => encode_client_body(msg, out),
        Frame::Server(msg) => encode_server_body(msg, out),
        Frame::Replica(batch) => {
            encode_replica_body(batch, out);
            T_REPLICA
        }
        Frame::ReplicaAck { seq, resync } => {
            put_varint(out, *seq);
            out.push(u8::from(*resync));
            T_REPLICA_ACK
        }
        Frame::StatsQuery(fmt) => {
            put_varint(out, STATS_VERSION as u64);
            out.push(match fmt {
                StatsFormat::Binary => 0,
                StatsFormat::Prom => 1,
            });
            T_STATS_QUERY
        }
        Frame::StatsReply(nodes) => {
            put_varint(out, STATS_VERSION as u64);
            put_varint(out, nodes.len() as u64);
            for (id, snap) in nodes {
                put_varint(out, id.0 as u64);
                put_telemetry(out, snap);
            }
            T_STATS_REPLY
        }
        Frame::Load(report) => {
            put_varint(out, report.clients as u64);
            put_f64(out, report.queue_backlog);
            put_varint(out, report.positions.len() as u64);
            for p in &report.positions {
                put_point(out, *p);
            }
            match &report.telemetry {
                Some(snap) => {
                    out.push(1);
                    put_telemetry(out, snap);
                }
                None => out.push(0),
            }
            T_LOAD
        }
    }
}

fn encode_client_body(msg: &ClientToGame, out: &mut Vec<u8>) -> u8 {
    match msg {
        ClientToGame::Join { pos, state_bytes } => {
            put_point(out, *pos);
            put_varint(out, *state_bytes);
            T_JOIN
        }
        ClientToGame::Move { pos } => {
            put_point(out, *pos);
            T_MOVE
        }
        ClientToGame::Action { pos, payload_bytes } => {
            put_point(out, *pos);
            put_varint(out, *payload_bytes as u64);
            T_ACTION
        }
        ClientToGame::Leave => T_LEAVE,
        ClientToGame::TraceAck {
            ring,
            latency_us,
            staleness_us,
        } => {
            out.push(*ring);
            put_varint(out, *latency_us);
            put_varint(out, *staleness_us);
            T_TRACE_ACK
        }
    }
}

fn encode_server_body(msg: &GameToClient, out: &mut Vec<u8>) -> u8 {
    match msg {
        GameToClient::Joined { server } => {
            put_varint(out, server.0 as u64);
            T_JOINED
        }
        GameToClient::Ack { seq } => {
            put_varint(out, *seq);
            T_ACK
        }
        GameToClient::Update {
            origin,
            payload_bytes,
        } => {
            put_point(out, *origin);
            put_varint(out, *payload_bytes as u64);
            T_UPDATE
        }
        GameToClient::UpdateBatch { updates } => {
            // Sampled trace section, present only when at least one item
            // is traced (the frame then carries `FLAG_TRACE` in its type
            // byte); untraced batches encode byte-identically to
            // pre-trace frames.
            let traced = updates.iter().filter(|u| u.trace().is_some()).count();
            debug_assert!(
                updates.len() <= u16::MAX as usize,
                "batch exceeds the u16 trace index space"
            );
            if traced > 0 {
                put_u16(out, traced as u16);
                for (i, item) in updates.iter().enumerate() {
                    if let Some(tag) = item.trace() {
                        put_u16(out, i as u16);
                        put_u32(out, tag.origin);
                        put_u32(out, tag.seq);
                        put_u64(out, tag.ingest_us);
                        put_u64(out, tag.stale_us);
                    }
                }
            }
            for item in updates {
                encode_batch_item(out, item);
            }
            if traced > 0 {
                T_BATCH | FLAG_TRACE
            } else {
                T_BATCH
            }
        }
        GameToClient::SwitchServer { to } => {
            put_varint(out, to.0 as u64);
            T_SWITCH
        }
    }
}

/// Appends one batch item in its most compact admissible shape.
///
/// Encoder contract: `ring < MAX_RINGS` (4) — the header byte has two
/// ring bits, exactly matching the pipeline's ring cap.
fn encode_batch_item(out: &mut Vec<u8>, item: &BatchItem) {
    let (entity, ring) = (item.entity(), item.ring());
    debug_assert!(ring < 4, "ring {ring} does not fit the v2 item header");
    let plen = item.payload_bytes() as u64;
    let (vx, vy) = item.velocity();
    let vel = item.has_velocity();
    let vel_lattice = if vel { lattice_vel(vx, vy) } else { None };

    let mut h = 0u8;
    h |= (ring & 0x03) << ITEM_RING_SHIFT;
    if vel {
        h |= ITEM_VEL;
        if vel_lattice.is_none() {
            h |= ITEM_WIDE_VEL;
        }
    }
    if entity > 0x00FF_FFFF {
        h |= ITEM_WIDE_ENTITY;
    }
    if plen > u16::MAX as u64 {
        h |= ITEM_WIDE_LEN;
    }
    let delta_lattice = match item {
        BatchItem::Absolute(_) => None,
        BatchItem::Delta(d) => match (lattice_i24(d.dx), lattice_i24(d.dy)) {
            (Some(dx), Some(dy)) => Some((dx, dy)),
            _ => {
                h |= ITEM_WIDE_COORDS;
                None
            }
        },
    };
    if matches!(item, BatchItem::Delta(_)) {
        h |= ITEM_DELTA;
    }
    out.push(h);

    if h & ITEM_WIDE_ENTITY != 0 {
        put_u64(out, entity);
    } else {
        put_u24(out, entity as u32);
    }
    if h & ITEM_WIDE_LEN != 0 {
        put_u64(out, plen);
    } else {
        put_u16(out, plen as u16);
    }
    match item {
        BatchItem::Absolute(u) => put_point(out, u.origin),
        BatchItem::Delta(d) => match delta_lattice {
            Some((dx, dy)) => {
                put_i24(out, dx);
                put_i24(out, dy);
            }
            None => {
                put_f64(out, d.dx);
                put_f64(out, d.dy);
            }
        },
    }
    if vel {
        match vel_lattice {
            Some((x, y)) => {
                put_i24(out, x);
                put_i24(out, y);
            }
            None => {
                put_f64(out, vx);
                put_f64(out, vy);
            }
        }
    }
}

fn put_telemetry(out: &mut Vec<u8>, snap: &TelemetrySnapshot) {
    put_varint(out, snap.counters.len() as u64);
    for (name, v) in &snap.counters {
        put_str(out, name);
        put_varint(out, *v);
    }
    put_varint(out, snap.hists.len() as u64);
    for h in &snap.hists {
        put_str(out, &h.name);
        put_varint(out, h.count);
        put_f64(out, h.sum);
        put_f64(out, h.min);
        put_f64(out, h.max);
        put_varint(out, h.buckets.len() as u64);
        for (idx, n) in &h.buckets {
            put_varint(out, *idx as u64);
            put_varint(out, *n);
        }
    }
    put_varint(out, snap.events_dropped);
    put_varint(out, snap.events_seen);
}

fn encode_replica_body(batch: &ReplicaBatch, out: &mut Vec<u8>) {
    put_varint(out, RegionSnapshot::VERSION as u64);
    put_varint(out, batch.seq);
    match &batch.payload {
        ReplicaPayload::Full(snap) => {
            out.push(P_FULL);
            encode_snapshot_body(snap, out);
        }
        ReplicaPayload::Ops(ops) => {
            out.push(P_OPS);
            put_varint(out, ops.len() as u64);
            for op in ops {
                match *op {
                    ReplicaOp::Join {
                        client,
                        pos,
                        state_bytes,
                    } => {
                        out.push(OP_JOIN);
                        put_varint(out, client.0);
                        put_point(out, pos);
                        put_varint(out, state_bytes);
                    }
                    ReplicaOp::Move { client, pos } => {
                        out.push(OP_MOVE);
                        put_varint(out, client.0);
                        put_point(out, pos);
                    }
                    ReplicaOp::Leave { client } => {
                        out.push(OP_LEAVE);
                        put_varint(out, client.0);
                    }
                    ReplicaOp::Range { range, radius } => {
                        out.push(OP_RANGE);
                        put_rect(out, &range);
                        put_f64(out, radius);
                    }
                }
            }
        }
    }
}

fn put_rect(out: &mut Vec<u8>, r: &Rect) {
    put_point(out, r.min());
    put_point(out, r.max());
}

fn encode_snapshot_body(snap: &RegionSnapshot, out: &mut Vec<u8>) {
    let mut flags = 0u8;
    if snap.ready {
        flags |= 0x01;
    }
    if snap.range.is_some() {
        flags |= 0x02;
    }
    if snap.tuner.is_some() {
        flags |= 0x04;
    }
    out.push(flags);
    if let Some(range) = &snap.range {
        put_rect(out, range);
    }
    put_f64(out, snap.radius);
    put_varint(out, snap.seq);
    put_varint(out, snap.last_flush.as_micros());
    if let Some(t) = &snap.tuner {
        put_varint(out, t.cells as u64);
        put_varint(out, t.streak as u64);
        put_varint(out, t.pending as u64);
    }
    put_varint(out, snap.clients.len() as u64);
    for (id, s) in &snap.clients {
        put_varint(out, id.0);
        put_point(out, s.pos);
        put_varint(out, s.state_bytes);
    }
    put_varint(out, snap.streams.len() as u64);
    for (id, s) in &snap.streams {
        put_varint(out, id.0);
        put_point(out, s.base);
        put_varint(out, s.countdown as u64);
    }
    put_varint(out, snap.pending.len() as u64);
    for (id, items) in &snap.pending {
        put_varint(out, id.0);
        put_varint(out, items.len() as u64);
        for u in items {
            // The leading byte is a bitflag set (bit 0: velocity pair,
            // bit 1: trace tag). Pre-trace encoders only ever wrote 0
            // or 1 here, so old frames decode unchanged and old decoders
            // reject traced frames loudly (strict 0..=1 check).
            let vel = u.vx != 0.0 || u.vy != 0.0;
            let mut flags = 0u8;
            if vel {
                flags |= 0x01;
            }
            if u.trace.is_some() {
                flags |= 0x02;
            }
            out.push(flags);
            out.push(u.ring);
            put_point(out, u.origin);
            put_varint(out, u.payload_bytes as u64);
            put_varint(out, u.entity);
            if vel {
                put_f64(out, u.vx);
                put_f64(out, u.vy);
            }
            if let Some(tag) = u.trace {
                put_varint(out, tag.origin as u64);
                put_varint(out, tag.seq as u64);
                put_varint(out, tag.ingest_us);
                put_varint(out, tag.stale_us);
            }
        }
    }
    put_varint(out, snap.bases.len() as u64);
    for (id, bases) in &snap.bases {
        put_varint(out, id.0);
        put_varint(out, bases.len() as u64);
        for b in bases {
            put_varint(out, b.entity);
            put_point(out, b.pos);
            put_f64(out, b.vx);
            put_f64(out, b.vy);
            put_f64(out, b.time_secs);
        }
    }
}

// ---------------------------------------------------------------------------
// Frame decode
// ---------------------------------------------------------------------------

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns [`FrameStatus::Incomplete`] while `buf` is a valid prefix of
/// a frame (feed more bytes and retry).
///
/// # Errors
///
/// [`CodecError`] as soon as the buffer cannot be (a prefix of) a valid
/// frame: bad magic, unsupported version, unknown type or flags, an
/// oversized length prefix, a CRC mismatch, or a malformed body. The
/// decoder reads nothing past the declared frame end.
pub fn decode_frame(buf: &[u8]) -> Result<FrameStatus, CodecError> {
    for (i, &expect) in MAGIC.iter().enumerate() {
        match buf.get(i) {
            None => return Ok(FrameStatus::Incomplete),
            Some(&b) if b == expect => {}
            Some(&b) => {
                return Err(CodecError::new(format!(
                    "bad magic byte 0x{b:02X} at offset {i}"
                )))
            }
        }
    }
    match buf.get(2) {
        None => return Ok(FrameStatus::Incomplete),
        Some(&WIRE_VERSION) => {}
        Some(&v) => {
            return Err(CodecError::new(format!(
                "unsupported wire version {v} (expected {WIRE_VERSION})"
            )))
        }
    }
    let ty_flags = match buf.get(3) {
        None => return Ok(FrameStatus::Incomplete),
        Some(&b) => b,
    };
    if ty_flags & FLAG_RESERVED != 0 {
        return Err(CodecError::new("reserved frame flags set"));
    }
    let ty = ty_flags & TYPE_MASK;
    if ty > T_TRACE_ACK {
        return Err(CodecError::new(format!("unknown frame type {ty}")));
    }
    let traced = ty_flags & FLAG_TRACE != 0;
    if traced && ty != T_BATCH {
        return Err(CodecError::new("trace flag on a non-batch frame"));
    }
    if buf.len() < 8 {
        return Ok(FrameStatus::Incomplete);
    }
    let len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if len > MAX_BODY_BYTES {
        return Err(CodecError::new(format!(
            "frame body of {len} bytes too large"
        )));
    }
    let has_crc = ty_flags & FLAG_CRC != 0;
    let total = HEADER_BYTES + len as usize + if has_crc { CRC_BYTES } else { 0 };
    if buf.len() < total {
        return Ok(FrameStatus::Incomplete);
    }
    let meta = FrameMeta {
        seq: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
        stamp_ms: u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")),
    };
    let body_end = HEADER_BYTES + len as usize;
    if has_crc {
        let declared = u32::from_le_bytes(buf[body_end..total].try_into().expect("4 bytes"));
        let actual = crc32(&buf[..body_end]);
        if declared != actual {
            return Err(CodecError::new(format!(
                "CRC mismatch: frame says {declared:#010X}, computed {actual:#010X}"
            )));
        }
    }
    let frame = decode_body(ty, traced, &buf[HEADER_BYTES..body_end])?;
    Ok(FrameStatus::Complete {
        frame,
        meta,
        consumed: total,
    })
}

fn decode_body(ty: u8, traced: bool, body: &[u8]) -> Result<Frame, CodecError> {
    let mut r = Reader::new(body);
    let frame = match ty {
        T_HELLO => Frame::Hello {
            version: r.u8("hello version")?,
        },
        T_JOIN => Frame::Client(ClientToGame::Join {
            pos: r.point("join position")?,
            state_bytes: r.varint("join state size")?,
        }),
        T_MOVE => Frame::Client(ClientToGame::Move {
            pos: r.point("move position")?,
        }),
        T_ACTION => Frame::Client(ClientToGame::Action {
            pos: r.point("action position")?,
            payload_bytes: r.varint("action payload size")? as usize,
        }),
        T_LEAVE => Frame::Client(ClientToGame::Leave),
        T_TRACE_ACK => Frame::Client(ClientToGame::TraceAck {
            ring: r.u8("trace-ack ring")?,
            latency_us: r.varint("trace-ack latency")?,
            staleness_us: r.varint("trace-ack staleness")?,
        }),
        T_JOINED => Frame::Server(GameToClient::Joined {
            server: ServerId(r.varu32("joined server id")?),
        }),
        T_ACK => Frame::Server(GameToClient::Ack {
            seq: r.varint("ack sequence")?,
        }),
        T_UPDATE => Frame::Server(GameToClient::Update {
            origin: r.point("update origin")?,
            payload_bytes: r.varint("update payload size")? as usize,
        }),
        T_BATCH => {
            // Trace section first (present only under FLAG_TRACE), so
            // untraced bodies parse exactly as before the flag existed.
            let mut tags = Vec::new();
            if traced {
                let n = r.u16("trace entry count")? as usize;
                if n * TRACE_ENTRY_BYTES > r.remaining() {
                    return Err(CodecError::new("trace section exceeds frame size"));
                }
                for _ in 0..n {
                    let idx = r.u16("trace item index")? as usize;
                    let origin = r.u32("trace origin")?;
                    let seq = r.u32("trace seq")?;
                    let ingest_us = r.u64("trace ingest time")?;
                    let stale_us = r.u64("trace staleness")?;
                    tags.push((
                        idx,
                        matrix_telemetry::TraceTag {
                            origin,
                            seq,
                            ingest_us,
                            stale_us,
                        },
                    ));
                }
            }
            let mut updates = Vec::new();
            while r.remaining() > 0 {
                updates.push(decode_batch_item(&mut r)?);
            }
            for (idx, tag) in tags {
                match updates.get_mut(idx) {
                    Some(BatchItem::Absolute(u)) => u.trace = Some(tag),
                    Some(BatchItem::Delta(d)) => d.trace = Some(tag),
                    None => return Err(CodecError::new("trace entry index out of range")),
                }
            }
            Frame::Server(GameToClient::UpdateBatch { updates })
        }
        T_SWITCH => Frame::Server(GameToClient::SwitchServer {
            to: ServerId(r.varu32("switch server id")?),
        }),
        T_REPLICA => Frame::Replica(Box::new(decode_replica_body(&mut r)?)),
        T_REPLICA_ACK => Frame::ReplicaAck {
            seq: r.varint("replica-ack sequence")?,
            resync: r.bool("replica-ack resync")?,
        },
        T_STATS_QUERY => {
            check_stats_version(&mut r)?;
            Frame::StatsQuery(match r.u8("stats format")? {
                0 => StatsFormat::Binary,
                1 => StatsFormat::Prom,
                f => return Err(CodecError::new(format!("unknown stats format {f}"))),
            })
        }
        T_STATS_REPLY => {
            check_stats_version(&mut r)?;
            let n = r.count("stats node count")?;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                let id = ServerId(r.varu32("stats node id")?);
                nodes.push((id, decode_telemetry(&mut r)?));
            }
            Frame::StatsReply(nodes)
        }
        T_LOAD => {
            let clients = r.varu32("load client count")?;
            let queue_backlog = r.f64("load backlog")?;
            let n = r.count("load position count")?;
            let mut positions = Vec::with_capacity(n);
            for _ in 0..n {
                positions.push(r.point("load position")?);
            }
            let telemetry = if r.bool("load telemetry flag")? {
                Some(Box::new(decode_telemetry(&mut r)?))
            } else {
                None
            };
            Frame::Load(Box::new(LoadReport {
                clients,
                queue_backlog,
                positions,
                telemetry,
            }))
        }
        _ => unreachable!("type range checked by decode_frame"),
    };
    let what = frame_name(ty);
    r.finish(what)?;
    Ok(frame)
}

fn frame_name(ty: u8) -> &'static str {
    match ty {
        T_HELLO => "hello",
        T_JOIN => "join",
        T_MOVE => "move",
        T_ACTION => "action",
        T_LEAVE => "leave",
        T_JOINED => "joined",
        T_ACK => "ack",
        T_UPDATE => "update",
        T_BATCH => "batch",
        T_SWITCH => "switch",
        T_REPLICA => "replica",
        T_REPLICA_ACK => "replica-ack",
        T_STATS_QUERY => "stats",
        T_STATS_REPLY => "stats-reply",
        T_LOAD => "load",
        T_TRACE_ACK => "trace-ack",
        _ => "unknown",
    }
}

fn check_stats_version(r: &mut Reader<'_>) -> Result<(), CodecError> {
    let v = r.varu32("stats version")?;
    if v != STATS_VERSION {
        return Err(CodecError::new(format!(
            "unsupported stats format version {v} (expected {STATS_VERSION})"
        )));
    }
    Ok(())
}

fn decode_batch_item(r: &mut Reader<'_>) -> Result<BatchItem, CodecError> {
    let h = r.u8("item header")?;
    let delta = h & ITEM_DELTA != 0;
    if !delta && h & ITEM_WIDE_COORDS != 0 {
        return Err(CodecError::new("wide-coordinate flag on an absolute item"));
    }
    if h & ITEM_WIDE_VEL != 0 && h & ITEM_VEL == 0 {
        return Err(CodecError::new("wide-velocity flag without a velocity"));
    }
    let ring = (h & ITEM_RING_MASK) >> ITEM_RING_SHIFT;
    let entity = if h & ITEM_WIDE_ENTITY != 0 {
        r.u64("item entity")?
    } else {
        r.u24("item entity")? as u64
    };
    let payload_bytes = if h & ITEM_WIDE_LEN != 0 {
        let v = r.u64("item payload size")?;
        usize::try_from(v).map_err(|_| CodecError::new("item payload size out of range"))?
    } else {
        r.u16("item payload size")? as usize
    };
    let item = if delta {
        let (dx, dy) = if h & ITEM_WIDE_COORDS != 0 {
            (r.f64("item offsets")?, r.f64("item offsets")?)
        } else {
            (
                r.i24("item offsets")? as f64 / LATTICE,
                r.i24("item offsets")? as f64 / LATTICE,
            )
        };
        let (vx, vy) = decode_item_velocity(r, h)?;
        BatchItem::Delta(DeltaItem {
            dx,
            dy,
            payload_bytes,
            entity,
            ring,
            vx,
            vy,
            trace: None,
        })
    } else {
        let origin = r.point("item origin")?;
        let (vx, vy) = decode_item_velocity(r, h)?;
        BatchItem::Absolute(UpdateItem {
            origin,
            payload_bytes,
            entity,
            ring,
            vx,
            vy,
            trace: None,
        })
    };
    Ok(item)
}

fn decode_item_velocity(r: &mut Reader<'_>, h: u8) -> Result<(f64, f64), CodecError> {
    if h & ITEM_VEL == 0 {
        return Ok((0.0, 0.0));
    }
    if h & ITEM_WIDE_VEL != 0 {
        Ok((r.f64("item velocity")?, r.f64("item velocity")?))
    } else {
        Ok((
            r.i24("item velocity")? as f64 / LATTICE,
            r.i24("item velocity")? as f64 / LATTICE,
        ))
    }
}

fn decode_telemetry(r: &mut Reader<'_>) -> Result<TelemetrySnapshot, CodecError> {
    let mut snap = TelemetrySnapshot::new();
    let n = r.count("counter count")?;
    for _ in 0..n {
        let name = r.str("counter name")?;
        let v = r.varint("counter value")?;
        snap.counters.push((name, v));
    }
    let n = r.count("histogram count")?;
    for _ in 0..n {
        let name = r.str("histogram name")?;
        let count = r.varint("histogram count")?;
        let sum = r.f64("histogram sum")?;
        let min = r.f64("histogram min")?;
        let max = r.f64("histogram max")?;
        let b = r.count("bucket count")?;
        let mut buckets = Vec::with_capacity(b);
        for _ in 0..b {
            buckets.push((r.varu32("bucket index")?, r.varint("bucket value")?));
        }
        snap.hists.push(HistSnapshot {
            name,
            count,
            sum,
            min,
            max,
            buckets,
        });
    }
    snap.events_dropped = r.varint("dropped events")?;
    snap.events_seen = r.varint("seen events")?;
    Ok(snap)
}

fn decode_replica_body(r: &mut Reader<'_>) -> Result<ReplicaBatch, CodecError> {
    let v = r.varu32("snapshot version")?;
    if v != RegionSnapshot::VERSION {
        return Err(CodecError::new(format!(
            "unsupported snapshot version {v} (expected {})",
            RegionSnapshot::VERSION
        )));
    }
    let seq = r.varint("replica sequence")?;
    let payload = match r.u8("replica payload kind")? {
        P_FULL => ReplicaPayload::Full(decode_snapshot_body(r)?),
        P_OPS => {
            let n = r.count("op count")?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let op = match r.u8("op tag")? {
                    OP_JOIN => ReplicaOp::Join {
                        client: ClientId(r.varint("op client")?),
                        pos: r.point("op position")?,
                        state_bytes: r.varint("op state size")?,
                    },
                    OP_MOVE => ReplicaOp::Move {
                        client: ClientId(r.varint("op client")?),
                        pos: r.point("op position")?,
                    },
                    OP_LEAVE => ReplicaOp::Leave {
                        client: ClientId(r.varint("op client")?),
                    },
                    OP_RANGE => ReplicaOp::Range {
                        range: read_rect(r)?,
                        radius: r.f64("op radius")?,
                    },
                    t => return Err(CodecError::new(format!("unknown op tag {t}"))),
                };
                ops.push(op);
            }
            ReplicaPayload::Ops(ops)
        }
        k => return Err(CodecError::new(format!("unknown replica payload kind {k}"))),
    };
    Ok(ReplicaBatch { seq, payload })
}

fn read_rect(r: &mut Reader<'_>) -> Result<Rect, CodecError> {
    let min = r.point("rect")?;
    let max = r.point("rect")?;
    Ok(Rect::from_coords(min.x, min.y, max.x, max.y))
}

fn decode_snapshot_body(r: &mut Reader<'_>) -> Result<RegionSnapshot, CodecError> {
    let flags = r.u8("snapshot flags")?;
    if flags & !0x07 != 0 {
        return Err(CodecError::new("reserved snapshot flags set"));
    }
    let mut snap = RegionSnapshot {
        ready: flags & 0x01 != 0,
        ..Default::default()
    };
    if flags & 0x02 != 0 {
        snap.range = Some(read_rect(r)?);
    }
    snap.radius = r.f64("snapshot radius")?;
    snap.seq = r.varint("snapshot sequence")?;
    snap.last_flush = SimTime::from_micros(r.varint("snapshot flush time")?);
    if flags & 0x04 != 0 {
        snap.tuner = Some(TunerState {
            cells: r.varu32("tuner cells")?,
            streak: r.varu32("tuner streak")?,
            pending: r.varu32("tuner pending")?,
        });
    }
    let n = r.count("client count")?;
    for _ in 0..n {
        let id = ClientId(r.varint("client id")?);
        let pos = r.point("client position")?;
        let state_bytes = r.varint("client state size")?;
        snap.clients.insert(id, SessionState { pos, state_bytes });
    }
    let n = r.count("stream count")?;
    for _ in 0..n {
        let id = ClientId(r.varint("stream id")?);
        let base = r.point("stream base")?;
        let countdown = r.varu32("stream countdown")?;
        snap.streams.insert(id, StreamBase { base, countdown });
    }
    let n = r.count("pending count")?;
    for _ in 0..n {
        let id = ClientId(r.varint("pending id")?);
        let k = r.count("pending item count")?;
        let mut items = Vec::with_capacity(k);
        for _ in 0..k {
            let flags = r.u8("pending item flags")?;
            if flags & !0x03 != 0 {
                return Err(CodecError::new("reserved pending item flags set"));
            }
            let vel = flags & 0x01 != 0;
            let ring = r.u8("pending ring")?;
            let origin = r.point("pending origin")?;
            let payload_bytes = r.varint("pending payload size")? as usize;
            let entity = r.varint("pending entity")?;
            let (vx, vy) = if vel {
                (r.f64("pending velocity")?, r.f64("pending velocity")?)
            } else {
                (0.0, 0.0)
            };
            let trace = if flags & 0x02 != 0 {
                Some(matrix_telemetry::TraceTag {
                    origin: r.varu32("pending trace origin")?,
                    seq: r.varu32("pending trace seq")?,
                    ingest_us: r.varint("pending trace ingest")?,
                    stale_us: r.varint("pending trace staleness")?,
                })
            } else {
                None
            };
            items.push(PendingUpdate {
                origin,
                payload_bytes,
                entity,
                ring,
                vx,
                vy,
                trace,
            });
        }
        snap.pending.insert(id, items);
    }
    let n = r.count("basis count")?;
    for _ in 0..n {
        let id = ClientId(r.varint("basis id")?);
        let k = r.count("basis entry count")?;
        let mut bases = Vec::with_capacity(k);
        for _ in 0..k {
            bases.push(PredictBasis {
                entity: r.varint("basis entity")?,
                pos: r.point("basis position")?,
                vx: r.f64("basis velocity")?,
                vy: r.f64("basis velocity")?,
                time_secs: r.f64("basis time")?,
            });
        }
        snap.bases.insert(id, bases);
    }
    Ok(snap)
}

// ---------------------------------------------------------------------------
// Arithmetic frame lengths (accounting without encoding)
// ---------------------------------------------------------------------------

/// Fixed per-frame overhead: header plus the CRC trailer when on.
pub fn frame_overhead(crc: bool) -> usize {
    HEADER_BYTES + if crc { CRC_BYTES } else { 0 }
}

/// Encoded size of one batch item, computed arithmetically. Pinned
/// equal to the length [`encode_frame`] actually produces by the
/// property suite, so byte accounting can skip the allocation.
pub fn batch_item_wire_len(item: &BatchItem) -> usize {
    let entity = if item.entity() > 0x00FF_FFFF { 8 } else { 3 };
    let plen = if item.payload_bytes() > u16::MAX as usize {
        8
    } else {
        2
    };
    let coords = match item {
        BatchItem::Absolute(_) => 16,
        BatchItem::Delta(d) => {
            if lattice_i24(d.dx).is_some() && lattice_i24(d.dy).is_some() {
                6
            } else {
                16
            }
        }
    };
    let vel = if item.has_velocity() {
        let (vx, vy) = item.velocity();
        if lattice_vel(vx, vy).is_some() {
            6
        } else {
            16
        }
    } else {
        0
    };
    1 + entity + plen + coords + vel
}

/// Wire size of a whole `UpdateBatch` frame holding `items`, computed
/// arithmetically (no allocation, no encoding). Payload *content* is
/// not included — the items declare payload sizes, they do not carry
/// the bytes. A sampled trace section (present when any item carries a
/// tag) adds its count prefix plus one fixed-width entry per traced
/// item.
pub fn update_batch_frame_len(items: &[BatchItem], crc: bool) -> usize {
    let traced = items.iter().filter(|u| u.trace().is_some()).count();
    let trace_section = if traced > 0 {
        2 + traced * TRACE_ENTRY_BYTES
    } else {
        0
    };
    frame_overhead(crc) + trace_section + items.iter().map(batch_item_wire_len).sum::<usize>()
}

// ---------------------------------------------------------------------------
// Stream accumulator
// ---------------------------------------------------------------------------

/// Reassembles frames from an arbitrary byte stream, resynchronizing
/// at the next magic boundary after a corrupt frame.
///
/// Push received chunks with [`push`](FrameAccumulator::push), then
/// drain frames with [`next`](FrameAccumulator::next): `None` means
/// "need more bytes", `Some(Err(_))` reports one corrupt region (the
/// stream skips forward to the next plausible frame start and keeps
/// going — a magic pair *inside* the corrupt region may yield further
/// errors before a genuine boundary is reached, but a well-formed
/// frame behind the corruption is always recovered).
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
}

impl FrameAccumulator {
    /// An empty accumulator.
    pub fn new() -> FrameAccumulator {
        FrameAccumulator::default()
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to decode the next frame.
    ///
    /// # Errors
    ///
    /// Forwards the [`CodecError`] of a corrupt frame after discarding
    /// bytes up to the next magic boundary; calling again continues
    /// with the remainder of the stream.
    #[allow(clippy::should_implement_trait)] // streaming pop, not iteration
    pub fn next(&mut self) -> Option<Result<(Frame, FrameMeta), CodecError>> {
        if self.buf.is_empty() {
            return None;
        }
        match decode_frame(&self.buf) {
            Ok(FrameStatus::Incomplete) => None,
            Ok(FrameStatus::Complete {
                frame,
                meta,
                consumed,
            }) => {
                self.buf.drain(..consumed);
                Some(Ok((frame, meta)))
            }
            Err(e) => {
                self.resync();
                Some(Err(e))
            }
        }
    }

    /// Discards bytes up to the next occurrence of the magic pair at
    /// offset ≥ 1 (or everything, when none is buffered).
    fn resync(&mut self) {
        let next = self.buf[1..]
            .windows(2)
            .position(|w| w == MAGIC)
            .map(|i| i + 1);
        match next {
            Some(i) => {
                self.buf.drain(..i);
            }
            None => {
                // Keep a trailing lone 0xD7: it may be the first byte
                // of a magic pair split across chunks.
                let keep = usize::from(self.buf.last() == Some(&MAGIC[0]));
                let len = self.buf.len();
                self.buf.drain(..len - keep);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        for crc in [true, false] {
            let meta = FrameMeta {
                seq: 99,
                stamp_ms: 123_456,
            };
            let bytes = encode_frame(&frame, meta, crc);
            match decode_frame(&bytes).expect("decode") {
                FrameStatus::Complete {
                    frame: got,
                    meta: got_meta,
                    consumed,
                } => {
                    assert_eq!(got, frame);
                    assert_eq!(got_meta, meta);
                    assert_eq!(consumed, bytes.len());
                }
                FrameStatus::Incomplete => panic!("whole frame reported incomplete"),
            }
        }
    }

    #[test]
    fn every_frame_type_round_trips() {
        round_trip(Frame::Hello { version: 2 });
        round_trip(Frame::Client(ClientToGame::Join {
            pos: Point::new(1.5, -2.25),
            state_bytes: 4096,
        }));
        round_trip(Frame::Client(ClientToGame::Move {
            pos: Point::new(0.0, 777.125),
        }));
        round_trip(Frame::Client(ClientToGame::Action {
            pos: Point::new(-3.0, 4.0),
            payload_bytes: 90,
        }));
        round_trip(Frame::Client(ClientToGame::Leave));
        round_trip(Frame::Server(GameToClient::Joined {
            server: ServerId(7),
        }));
        round_trip(Frame::Server(GameToClient::Ack { seq: u64::MAX }));
        round_trip(Frame::Server(GameToClient::Update {
            origin: Point::new(8.0, 9.0),
            payload_bytes: 1_000_000,
        }));
        round_trip(Frame::Server(GameToClient::SwitchServer {
            to: ServerId(u32::MAX),
        }));
        round_trip(Frame::ReplicaAck {
            seq: 42,
            resync: true,
        });
        round_trip(Frame::StatsQuery(StatsFormat::Prom));
        round_trip(Frame::StatsReply(vec![]));
        round_trip(Frame::Load(Box::new(LoadReport {
            clients: 12,
            queue_backlog: 3.5,
            positions: vec![Point::new(1.0, 2.0)],
            telemetry: None,
        })));
    }

    #[test]
    fn batch_items_hit_the_documented_constants() {
        let abs = BatchItem::Absolute(UpdateItem {
            origin: Point::new(10.0, 20.0),
            payload_bytes: 64,
            entity: 9,
            ring: 1,
            vx: 0.0,
            vy: 0.0,
            trace: None,
        });
        let delta = BatchItem::Delta(DeltaItem {
            dx: 0.5,
            dy: -0.25,
            payload_bytes: 32,
            entity: 9,
            ring: 0,
            vx: 1.5,
            vy: -2.0,
            trace: None,
        });
        assert_eq!(batch_item_wire_len(&abs), UpdateItem::WIRE_BYTES);
        assert_eq!(
            batch_item_wire_len(&delta),
            DeltaItem::WIRE_BYTES + UpdateItem::VELOCITY_WIRE_BYTES
        );
        let frame = Frame::Server(GameToClient::UpdateBatch {
            updates: vec![abs, delta],
        });
        let bytes = encode_frame(&frame, FrameMeta::default(), true);
        assert_eq!(
            bytes.len(),
            update_batch_frame_len(&[abs, delta], true),
            "arithmetic length must match the encoder"
        );
        round_trip(frame);
    }

    #[test]
    fn wide_escapes_round_trip() {
        // Entity beyond u24, payload beyond u16, off-lattice delta and
        // velocity: every wide bit at once.
        let item = BatchItem::Delta(DeltaItem {
            dx: 0.1, // not a 1/256 multiple
            dy: 9000.0,
            payload_bytes: 100_000,
            entity: u64::MAX,
            ring: 3,
            vx: 0.3,
            vy: 0.0,
            trace: None,
        });
        assert_eq!(batch_item_wire_len(&item), 1 + 8 + 8 + 16 + 16);
        round_trip(Frame::Server(GameToClient::UpdateBatch {
            updates: vec![item],
        }));
    }

    #[test]
    fn crc_rejects_corruption() {
        let frame = Frame::Client(ClientToGame::Move {
            pos: Point::new(5.0, 6.0),
        });
        let mut bytes = encode_frame(&frame, FrameMeta::default(), true);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(decode_frame(&bytes).is_err(), "flipped CRC must fail");
    }

    #[test]
    fn accumulator_resyncs_after_corruption() {
        let a = encode_frame(
            &Frame::Server(GameToClient::Ack { seq: 1 }),
            FrameMeta::default(),
            true,
        );
        let mut b = encode_frame(
            &Frame::Server(GameToClient::Ack { seq: 2 }),
            FrameMeta::default(),
            true,
        );
        let c = encode_frame(
            &Frame::Server(GameToClient::Ack { seq: 3 }),
            FrameMeta::default(),
            true,
        );
        b[HEADER_BYTES] ^= 0xFF; // corrupt B's body; its CRC now fails
        let mut acc = FrameAccumulator::new();
        acc.push(&a);
        acc.push(&b);
        acc.push(&c);
        let mut frames = Vec::new();
        let mut errors = 0;
        while let Some(item) = acc.next() {
            match item {
                Ok((frame, _)) => frames.push(frame),
                Err(_) => errors += 1,
            }
        }
        assert_eq!(
            frames,
            vec![
                Frame::Server(GameToClient::Ack { seq: 1 }),
                Frame::Server(GameToClient::Ack { seq: 3 }),
            ],
            "the stream must recover at the next magic boundary"
        );
        assert!(errors >= 1, "the corrupt frame must surface as an error");
        assert_eq!(acc.pending_bytes(), 0);
    }

    #[test]
    fn trace_flag_is_rejected_on_non_batch_frames() {
        // Only `T_BATCH` carries a trace section; the flag on any other
        // type means a corrupt or hostile stream, and the decoder must
        // refuse before trying to read a section that is not there.
        let frames = [
            Frame::Hello { version: 2 },
            Frame::Client(ClientToGame::Move {
                pos: Point::new(5.0, 6.0),
            }),
            Frame::Client(ClientToGame::TraceAck {
                ring: 0,
                latency_us: 10,
                staleness_us: 20,
            }),
            Frame::Server(GameToClient::Ack { seq: 9 }),
        ];
        for frame in frames {
            // No CRC, so the flipped flag is the only defect on trial.
            let mut bytes = encode_frame(&frame, FrameMeta::default(), false);
            assert_eq!(bytes[3] & FLAG_TRACE, 0, "{frame:?} must encode untraced");
            bytes[3] |= FLAG_TRACE;
            let err = decode_frame(&bytes).expect_err("trace flag must be rejected");
            assert!(
                err.to_string().contains("non-batch"),
                "unexpected error for {frame:?}: {err}"
            );
        }
    }

    #[test]
    fn unsupported_snapshot_versions_are_rejected() {
        // The replica body opens with the snapshot format version
        // (one varint byte). No CRC, so the version is the only defect.
        let batch = ReplicaBatch {
            seq: 4,
            payload: ReplicaPayload::Full(RegionSnapshot::default()),
        };
        let mut bytes = encode_replica_batch_frame(&batch, FrameMeta::default(), false);
        assert_eq!(bytes[HEADER_BYTES] as u32, RegionSnapshot::VERSION);
        bytes[HEADER_BYTES] = RegionSnapshot::VERSION as u8 + 1;
        let err = decode_frame(&bytes).unwrap_err();
        assert!(err.reason.contains("version"), "{err}");
    }

    #[test]
    fn stats_query_round_trips_and_rejects_bad_versions() {
        for fmt in [StatsFormat::Binary, StatsFormat::Prom] {
            round_trip(Frame::StatsQuery(fmt));
        }
        let query = encode_frame(
            &Frame::StatsQuery(StatsFormat::Prom),
            FrameMeta::default(),
            false,
        );
        assert_eq!(query[HEADER_BYTES] as u32, STATS_VERSION);
        let mut bad = query.clone();
        bad[HEADER_BYTES] = 7;
        let err = decode_frame(&bad).unwrap_err();
        assert!(err.reason.contains("version"), "{err}");
        let mut unknown_format = query;
        unknown_format[HEADER_BYTES + 1] = 2;
        assert!(decode_frame(&unknown_format).is_err());
        // The reply carries the same version.
        let mut reply = encode_frame(&Frame::StatsReply(vec![]), FrameMeta::default(), false);
        reply[HEADER_BYTES] = 2;
        let err = decode_frame(&reply).unwrap_err();
        assert!(err.reason.contains("version"), "{err}");
    }

    #[test]
    fn prom_stats_query_bytes_match_the_operator_docs() {
        // `docs/OBSERVABILITY.md` gives these bytes for a `printf | nc`
        // scrape; they must stay what the encoder produces.
        let bytes = encode_frame(
            &Frame::StatsQuery(StatsFormat::Prom),
            FrameMeta::default(),
            true,
        );
        assert_eq!(
            bytes,
            [
                0xD7, 0x4D, 0x02, 0x8C, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0xA4, 0xB0, 0x4A, 0x66,
            ]
        );
    }

    #[test]
    fn truncated_frames_wait_for_more_bytes() {
        let bytes = encode_frame(
            &Frame::Client(ClientToGame::Join {
                pos: Point::new(1.0, 2.0),
                state_bytes: 64,
            }),
            FrameMeta::default(),
            true,
        );
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..cut]).expect("prefix must stay decodable"),
                FrameStatus::Incomplete,
                "prefix of {cut} bytes"
            );
        }
    }
}
