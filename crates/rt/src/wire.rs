//! TCP endpoints speaking wire protocol v2 (`matrix_core::codec_v2`,
//! `docs/WIRE.md`): the game gateway, the replica stream and the live
//! stats endpoint.
//!
//! The gateway bridges each remote client onto the in-process cluster,
//! keeping the client's current server in sync with `SwitchServer`
//! instructions it relays (so the remote client stays oblivious to
//! topology, §3.2.1).
//!
//! # Handshake
//!
//! A client opens with a binary [`Frame::Hello`] and waits for the
//! gateway's `Hello` before it joins. Gateway and stats endpoint read
//! the first byte of every connection: anything but
//! [`codec_v2::MAGIC`]`[0]` is not v2, and the connection is closed at
//! once. After that, a corrupt region resynchronizes at the next magic
//! boundary — which also swallows the newline pad some v2 clients
//! send after their `Hello`.
//!
//! `UpdateBatch` frames arrive delta-compressed; the gateway relays
//! them verbatim, and remote clients rebuild absolute origins with
//! `matrix_core::reconstruct_updates`, resetting their stream base on
//! every (re)join exactly as [`TcpGameClient`]'s in-process counterpart
//! (`RtClient`) does.

use crate::node::{NodeHandle, NodeMsg};
use crate::router::Router;
use matrix_core::codec_v2::{self, CodecError, Frame, FrameAccumulator, FrameMeta, StatsFormat};
use matrix_core::{render_prometheus, ClientToGame, GameToClient, TelemetrySnapshot, WireCodec};
use matrix_geometry::ServerId;
use tokio::io::{AsyncChunkReadExt, AsyncWriteExt, Chunks};
use tokio::net::tcp::OwnedWriteHalf;
use tokio::net::{TcpListener, TcpStream, ToSocketAddrs};
use tokio::sync::mpsc;

/// Errors from the TCP layer.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A frame was not valid for the expected message type.
    BadFrame(CodecError),
    /// The peer closed the connection.
    Closed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::BadFrame(e) => write!(f, "malformed frame: {e}"),
            WireError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::BadFrame(e)
    }
}

fn bad_frame(reason: impl Into<String>) -> WireError {
    WireError::BadFrame(CodecError {
        reason: reason.into(),
    })
}

/// Outgoing binary-frame bookkeeping: the per-connection sequence
/// counter and millisecond clock stamped into every v2 frame header.
struct FrameClock {
    seq: u64,
    started: std::time::Instant,
    crc: bool,
}

impl FrameClock {
    fn new(crc: bool) -> FrameClock {
        FrameClock {
            seq: 0,
            started: std::time::Instant::now(),
            crc,
        }
    }

    fn meta(&mut self) -> FrameMeta {
        let meta = FrameMeta {
            seq: self.seq,
            stamp_ms: self.started.elapsed().as_millis() as u32,
        };
        self.seq += 1;
        meta
    }
}

/// Reads an accepted connection's first bytes. Returns them buffered in
/// an accumulator when they open a v2 frame, or `None` — close the
/// connection — when the peer hangs up or opens with anything else.
async fn open_v2(chunks: &mut Chunks) -> Option<FrameAccumulator> {
    loop {
        let bytes = chunks.next_chunk().await.ok()??;
        let Some(&first) = bytes.first() else {
            continue;
        };
        if first != codec_v2::MAGIC[0] {
            return None;
        }
        let mut acc = FrameAccumulator::new();
        acc.push(&bytes);
        return Some(acc);
    }
}

/// Gateway behaviour knobs (see [`spawn_gateway_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayOptions {
    /// Append CRC32 trailers to outgoing frames.
    pub frame_crc: bool,
}

impl Default for GatewayOptions {
    fn default() -> Self {
        GatewayOptions { frame_crc: true }
    }
}

impl GatewayOptions {
    /// Options matching a game-server config: the gateway mirrors its
    /// CRC policy.
    pub fn from_config(cfg: &matrix_core::GameServerConfig) -> GatewayOptions {
        GatewayOptions {
            frame_crc: cfg.frame_crc,
        }
    }
}

/// Binds a TCP gateway in front of a running cluster with default
/// options (CRC on). Returns the local address; the accept loop runs
/// until the listener task is dropped.
///
/// # Errors
///
/// Returns any bind error from the operating system.
pub async fn spawn_gateway(
    addr: impl ToSocketAddrs,
    router: Router,
    entry: ServerId,
) -> Result<std::net::SocketAddr, WireError> {
    spawn_gateway_with(addr, router, entry, GatewayOptions::default()).await
}

/// Binds a TCP gateway with explicit [`GatewayOptions`].
///
/// # Errors
///
/// Returns any bind error from the operating system.
pub async fn spawn_gateway_with(
    addr: impl ToSocketAddrs,
    router: Router,
    entry: ServerId,
    opts: GatewayOptions,
) -> Result<std::net::SocketAddr, WireError> {
    let listener = TcpListener::bind(addr).await?;
    let local = listener.local_addr()?;
    tokio::spawn(async move {
        loop {
            let Ok((stream, _)) = listener.accept().await else {
                break;
            };
            tokio::spawn(serve_connection(stream, router.clone(), entry, opts));
        }
    });
    Ok(local)
}

/// The gateway's per-connection view of the remote client's session:
/// the last position and state size it uploaded, carried into the
/// transparent re-join the gateway performs on `SwitchServer` — exactly
/// what the in-process `RtClient` does for itself. Re-joining with the
/// *real* position keeps the restored session where the player actually
/// is (a promoted standby already holds it there from the replica), so
/// no corrective move is needed after a failover.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RemoteSession {
    pos: matrix_geometry::Point,
    state_bytes: u64,
}

impl RemoteSession {
    fn new() -> RemoteSession {
        RemoteSession {
            pos: matrix_geometry::Point::ORIGIN,
            state_bytes: 0,
        }
    }

    /// Folds one upload into the tracked session.
    fn observe(&mut self, msg: &ClientToGame) {
        match msg {
            ClientToGame::Join { pos, state_bytes } => {
                self.pos = *pos;
                self.state_bytes = *state_bytes;
            }
            ClientToGame::Move { pos } | ClientToGame::Action { pos, .. } => self.pos = *pos,
            ClientToGame::TraceAck { .. } | ClientToGame::Leave => {}
        }
    }

    /// The re-join the gateway sends on the client's behalf after a
    /// `SwitchServer`.
    fn rejoin(&self) -> ClientToGame {
        ClientToGame::Join {
            pos: self.pos,
            state_bytes: self.state_bytes,
        }
    }
}

async fn serve_connection(
    stream: TcpStream,
    router: Router,
    entry: ServerId,
    opts: GatewayOptions,
) {
    let (read_half, mut write_half) = stream.into_split();
    let mut chunks = read_half.into_chunks();
    let Some(mut acc) = open_v2(&mut chunks).await else {
        return;
    };
    let client_id = router.allocate_client_id();
    let (inbox_tx, mut inbox_rx) = mpsc::unbounded_channel::<GameToClient>();
    router.register_client(client_id, inbox_tx);
    // The gateway tracks which server currently owns this client so
    // uploads land at the right node, and the client's last position so
    // a transparent re-join lands where the player actually is.
    let mut current = entry;
    let mut session = RemoteSession::new();
    let mut clock = FrameClock::new(opts.frame_crc);

    'conn: loop {
        while let Some(item) = acc.next() {
            match item {
                Ok((Frame::Hello { .. }, _)) => {
                    // Advertise v2 back; the client is waiting on this
                    // before it joins.
                    let hello = Frame::Hello {
                        version: codec_v2::WIRE_VERSION,
                    };
                    let bytes = codec_v2::encode_frame(&hello, clock.meta(), clock.crc);
                    if write_half.write_all(&bytes).await.is_err() {
                        break 'conn;
                    }
                }
                Ok((Frame::Client(msg), _)) => {
                    session.observe(&msg);
                    router.send_node(current, NodeMsg::FromClient(client_id, msg));
                }
                // A client has no business sending server/replica/stats
                // frames.
                Ok(_) => break 'conn,
                // Corrupt region: the accumulator already resynced at the
                // next magic boundary (this also swallows a newline pad
                // after the client's Hello).
                Err(_) => continue,
            }
        }
        tokio::select! {
            chunk = chunks.next_chunk() => {
                let Ok(Some(bytes)) = chunk else { break };
                acc.push(&bytes);
            }
            msg = inbox_rx.recv() => {
                let Some(msg) = msg else { break };
                if let GameToClient::SwitchServer { to } = &msg {
                    current = *to;
                    // Transparent re-join on the client's behalf, at the
                    // client's real position and state size; the remote
                    // end still sees the SwitchServer for observability.
                    router.send_node(
                        current,
                        NodeMsg::FromClient(client_id, session.rejoin()),
                    );
                }
                let framed = codec_v2::encode_server_frame(&msg, clock.meta(), clock.crc);
                if write_half.write_all(&framed).await.is_err() {
                    break;
                }
            }
        }
    }
    router.unregister_client(client_id);
}

/// Binds the live stats endpoint in front of a set of node handles.
/// Returns the local address; the accept loop runs until the listener
/// task is dropped.
///
/// Protocol: one `Frame::StatsQuery` per connection, answered with a
/// `Frame::StatsReply` for [`StatsFormat::Binary`] or with
/// Prometheus-style text exposition for [`StatsFormat::Prom`]; then the
/// server closes the connection. Nodes with telemetry off contribute
/// nothing, so the reply is empty — not an error — on a dark cluster.
///
/// When an `slo` probe is supplied, the coordinator's freshness-SLO
/// gauges (`slo_*`) are appended as pseudo-node `ServerId(0)` — the
/// coordinator is not a game server, but its tracker is cluster state
/// an operator scrapes from the same port. A dark tracker (no ring
/// targets configured) contributes nothing, keeping pre-SLO replies
/// byte-identical.
///
/// # Errors
///
/// Returns any bind error from the operating system.
pub async fn spawn_stats_endpoint(
    addr: impl ToSocketAddrs,
    nodes: Vec<NodeHandle>,
    slo: Option<crate::cluster::SloProbe>,
) -> Result<std::net::SocketAddr, WireError> {
    let listener = TcpListener::bind(addr).await?;
    let local = listener.local_addr()?;
    tokio::spawn(async move {
        loop {
            let Ok((stream, _)) = listener.accept().await else {
                break;
            };
            tokio::spawn(serve_stats(stream, nodes.clone(), slo.clone()));
        }
    });
    Ok(local)
}

/// Reads one stats query off the socket.
async fn read_stats_query(chunks: &mut Chunks) -> Option<StatsFormat> {
    let mut acc = open_v2(chunks).await?;
    loop {
        while let Some(item) = acc.next() {
            match item {
                Ok((Frame::StatsQuery(fmt), _)) => return Some(fmt),
                Ok(_) => return None, // wrong frame type: drop
                Err(_) => continue,   // resync and keep reading
            }
        }
        acc.push(&chunks.next_chunk().await.ok()??);
    }
}

async fn serve_stats(
    stream: TcpStream,
    nodes: Vec<NodeHandle>,
    slo: Option<crate::cluster::SloProbe>,
) {
    let (read_half, mut write_half) = stream.into_split();
    let mut chunks = read_half.into_chunks();
    let Some(fmt) = read_stats_query(&mut chunks).await else {
        return; // not v2, malformed or wrong-version query: drop the session
    };
    let mut snaps: Vec<(ServerId, TelemetrySnapshot)> = Vec::new();
    if let Some(probe) = &slo {
        if let Some(snap) = probe.snapshot().await {
            if !snap.is_empty() {
                snaps.push((ServerId(0), snap));
            }
        }
    }
    for node in &nodes {
        if let Some(snap) = node.snapshot().await {
            if let Some(telemetry) = snap.telemetry {
                snaps.push((snap.id, telemetry));
            }
        }
    }
    let reply: Vec<u8> = match fmt {
        StatsFormat::Binary => {
            codec_v2::encode_frame(&Frame::StatsReply(snaps), FrameMeta::default(), true)
        }
        StatsFormat::Prom => {
            let mut text = render_prometheus(&snaps);
            if !text.ends_with('\n') {
                text.push('\n');
            }
            text.into_bytes()
        }
    };
    let _ = write_half.write_all(&reply).await;
    // Both halves drop here, closing the socket: the client reads to
    // EOF, which is what ends a multi-line Prometheus response.
}

/// A remote consumer of the live stats endpoint: one query per
/// connection, like `curl` against a metrics port.
pub struct TcpStatsClient;

impl TcpStatsClient {
    /// Connects and sends one stats query frame. The write half must
    /// outlive the read: dropping it closes the socket.
    async fn query(
        addr: impl ToSocketAddrs,
        fmt: StatsFormat,
    ) -> Result<(Chunks, OwnedWriteHalf), WireError> {
        let stream = TcpStream::connect(addr).await?;
        let (read_half, mut write_half) = stream.into_split();
        let query = codec_v2::encode_frame(&Frame::StatsQuery(fmt), FrameMeta::default(), true);
        write_half.write_all(&query).await?;
        Ok((read_half.into_chunks(), write_half))
    }

    /// Fetches the cluster's per-node telemetry snapshots as structured
    /// data.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] if the endpoint hangs up without replying,
    /// socket errors, or [`WireError::BadFrame`] for a malformed or
    /// unexpected reply frame.
    pub async fn fetch(
        addr: impl ToSocketAddrs,
    ) -> Result<Vec<(ServerId, TelemetrySnapshot)>, WireError> {
        let (chunks, _write) = TcpStatsClient::query(addr, StatsFormat::Binary).await?;
        match FrameReader::new(chunks).next_frame().await? {
            Frame::StatsReply(nodes) => Ok(nodes),
            _ => Err(bad_frame("expected a stats-reply frame")),
        }
    }

    /// Fetches the Prometheus-style text exposition (reads to EOF).
    ///
    /// # Errors
    ///
    /// Socket errors from connecting, writing the query or reading the
    /// response; [`WireError::BadFrame`] if the text is not UTF-8.
    pub async fn fetch_text(addr: impl ToSocketAddrs) -> Result<String, WireError> {
        let (mut chunks, _write) = TcpStatsClient::query(addr, StatsFormat::Prom).await?;
        let mut text = Vec::new();
        while let Some(bytes) = chunks.next_chunk().await? {
            text.extend_from_slice(&bytes);
        }
        String::from_utf8(text).map_err(|_| bad_frame("stats text is not UTF-8"))
    }
}

/// Receive side of a v2 stream: a chunk reader plus frame accumulator.
struct FrameReader {
    chunks: Chunks,
    acc: FrameAccumulator,
}

impl FrameReader {
    fn new(chunks: Chunks) -> FrameReader {
        FrameReader {
            chunks,
            acc: FrameAccumulator::new(),
        }
    }

    async fn next_frame(&mut self) -> Result<Frame, WireError> {
        loop {
            if let Some(item) = self.acc.next() {
                return Ok(item?.0);
            }
            match self.chunks.next_chunk().await? {
                Some(bytes) => self.acc.push(&bytes),
                None => return Err(WireError::Closed),
            }
        }
    }
}

/// A replication stream over a real TCP socket: `Frame::Replica` and
/// `Frame::ReplicaAck`.
///
/// The in-process cluster ships replica batches over the router; this
/// endpoint carries the same batches between *machines* — a primary
/// connects to its standby's listener (or vice versa; the framing is
/// symmetric) and streams snapshots + ops, reading acks off the same
/// socket. Version mismatches surface as [`WireError::BadFrame`] before
/// any state is adopted.
pub struct ReplicaStream {
    reader: FrameReader,
    writer: OwnedWriteHalf,
    clock: FrameClock,
}

impl ReplicaStream {
    /// Wraps an accepted or established socket; `frame_crc` appends
    /// CRC32 trailers to outgoing frames.
    pub fn new(stream: TcpStream, frame_crc: bool) -> ReplicaStream {
        let (read_half, writer) = stream.into_split();
        ReplicaStream {
            reader: FrameReader::new(read_half.into_chunks()),
            writer,
            clock: FrameClock::new(frame_crc),
        }
    }

    /// Ships one replication batch (snapshot or ops).
    ///
    /// # Errors
    ///
    /// Socket errors; encoding cannot fail.
    pub async fn send_batch(&mut self, batch: &matrix_core::ReplicaBatch) -> Result<(), WireError> {
        let bytes = codec_v2::encode_replica_batch_frame(batch, self.clock.meta(), self.clock.crc);
        self.writer.write_all(&bytes).await?;
        Ok(())
    }

    /// Receives the next replication batch.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] on hangup; [`WireError::BadFrame`] for
    /// malformed frames or an unsupported replication format version.
    pub async fn recv_batch(&mut self) -> Result<matrix_core::ReplicaBatch, WireError> {
        match self.reader.next_frame().await? {
            Frame::Replica(batch) => Ok(*batch),
            _ => Err(bad_frame("expected a replica frame")),
        }
    }

    /// Acknowledges a batch (`resync` requests a fresh full snapshot).
    ///
    /// # Errors
    ///
    /// Socket errors; encoding cannot fail.
    pub async fn send_ack(&mut self, seq: u64, resync: bool) -> Result<(), WireError> {
        let frame = Frame::ReplicaAck { seq, resync };
        let bytes = codec_v2::encode_frame(&frame, self.clock.meta(), self.clock.crc);
        self.writer.write_all(&bytes).await?;
        Ok(())
    }

    /// Receives the next acknowledgement as `(seq, resync)`.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] on hangup; [`WireError::BadFrame`] for
    /// malformed or version-mismatched frames.
    pub async fn recv_ack(&mut self) -> Result<(u64, bool), WireError> {
        match self.reader.next_frame().await? {
            Frame::ReplicaAck { seq, resync } => Ok((seq, resync)),
            _ => Err(bad_frame("expected a replica-ack frame")),
        }
    }
}

/// A remote TCP game client.
pub struct TcpGameClient {
    reader: FrameReader,
    writer: OwnedWriteHalf,
    clock: FrameClock,
}

impl TcpGameClient {
    /// Connects to a gateway: sends a `Hello` and waits for the
    /// gateway's.
    ///
    /// # Errors
    ///
    /// Connection errors; [`WireError::Closed`] when the peer hangs up
    /// instead of answering, [`WireError::BadFrame`] when it answers
    /// with anything but a `Hello`.
    pub async fn connect(addr: impl ToSocketAddrs) -> Result<TcpGameClient, WireError> {
        let stream = TcpStream::connect(addr).await?;
        let (read_half, mut writer) = stream.into_split();
        let mut clock = FrameClock::new(true);
        let hello = Frame::Hello {
            version: codec_v2::WIRE_VERSION,
        };
        writer
            .write_all(&codec_v2::encode_frame(&hello, clock.meta(), clock.crc))
            .await?;
        let mut reader = FrameReader::new(read_half.into_chunks());
        match reader.next_frame().await? {
            Frame::Hello { .. } => Ok(TcpGameClient {
                reader,
                writer,
                clock,
            }),
            _ => Err(bad_frame("expected a hello frame")),
        }
    }

    /// [`TcpGameClient::connect`] for callers that name the codec;
    /// v2 is the only one.
    ///
    /// # Errors
    ///
    /// As [`TcpGameClient::connect`].
    pub async fn connect_with(
        addr: impl ToSocketAddrs,
        codec: WireCodec,
    ) -> Result<TcpGameClient, WireError> {
        let WireCodec::BinaryV2 = codec;
        TcpGameClient::connect(addr).await
    }

    /// Sends one client message.
    ///
    /// # Errors
    ///
    /// Returns socket errors; serialisation of these types cannot fail.
    pub async fn send(&mut self, msg: &ClientToGame) -> Result<(), WireError> {
        let framed = codec_v2::encode_client_frame(msg, self.clock.meta(), self.clock.crc);
        self.writer.write_all(&framed).await?;
        Ok(())
    }

    /// Receives the next server message.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] when the server hangs up, or socket/frame
    /// errors.
    pub async fn recv(&mut self) -> Result<GameToClient, WireError> {
        loop {
            match self.reader.next_frame().await? {
                Frame::Server(msg) => return Ok(msg),
                Frame::Hello { .. } => continue, // late re-advertisement
                _ => return Err(bad_frame("unexpected frame from gateway")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix_geometry::Point;

    #[test]
    fn remote_session_tracks_the_last_uploaded_position() {
        let mut s = RemoteSession::new();
        assert_eq!(
            s.rejoin(),
            ClientToGame::Join {
                pos: Point::ORIGIN,
                state_bytes: 0
            }
        );
        s.observe(&ClientToGame::Join {
            pos: Point::new(100.0, 100.0),
            state_bytes: 512,
        });
        s.observe(&ClientToGame::Move {
            pos: Point::new(110.0, 105.0),
        });
        s.observe(&ClientToGame::Action {
            pos: Point::new(112.0, 105.0),
            payload_bytes: 64,
        });
        s.observe(&ClientToGame::Leave);
        assert_eq!(
            s.rejoin(),
            ClientToGame::Join {
                pos: Point::new(112.0, 105.0),
                state_bytes: 512,
            },
            "the transparent re-join carries the real position and state"
        );
    }
}
