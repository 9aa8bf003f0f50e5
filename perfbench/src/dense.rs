//! `dense_crowd`: one game server under a crowded hotspot, driven
//! synchronously through its public entry points.
//!
//! Every client moves once per 100 ms tick, on its own phase. Each tick
//! the benchmark calls `on_client` for every move, routes every
//! `GameToMatrix` action to a co-located `MatrixServer` (and its replies
//! to a co-located `Coordinator`), calls `on_tick`, encodes every
//! outbound message as a v2 frame, decodes it again and applies each
//! `UpdateBatch` to its receiver's view with `reconstruct_updates`.
//! The interest fan-out and the flush do almost all the work; there
//! are no peers to forward to and prediction is off.
//!
//! Latency is charged on a paced timeline without sleeping: tick `k`
//! starts at its 100 ms boundary, or when tick `k - 1` finished if that
//! was later, and takes the wall time its processing took. A move waits
//! from its due time to the end of its tick, so the server's own time is
//! the part of the latency a faster program can remove.

use crate::stats::{view_freshness, PacedTimeline, Tail};
use crate::trace::{allocs, count_allocs, Tracer};
use crate::{median, Outcome, RunCfg};
use matrix_core::codec_v2::{self, Frame, FrameMeta, FrameStatus};
use matrix_core::{
    quantize, reconstruct_updates, Action, ClientId, ClientToGame, CoordAction, Coordinator,
    CoordinatorConfig, GameAction, GameServerConfig, GameServerNode, GameStats, GameToClient,
    MatrixConfig, MatrixServer, TelemetrySnapshot,
};
use matrix_geometry::{Point, Rect, ServerId};
use matrix_sim::{SimRng, SimTime};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

const CLIENTS: usize = 400;
const WORLD: f64 = 800.0;
const RADIUS: f64 = 100.0;
/// Hotspot spread (σ) around the crowd centre: tight enough that a
/// client sees about as many others as in a 2000-client crowd at
/// σ=150, so a receiver's fan-out still overruns its flush cap.
const SPREAD: f64 = 60.0;
/// Each client wanders at most this far from its home position, so
/// the crowd's density stays fixed over a run.
const WOBBLE: f64 = 10.0;
/// Largest per-axis step per tick (25 units/s, BzFlag's speed).
const STEP: f64 = 2.5;
/// Ticks run after the joins, before anything is timed: the first
/// flush keyframes every stream.
const WARMUP_TICKS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The deterministic figures cover exactly this many measured ticks,
/// and every run measures at least this many.
const DET_TICKS: usize = 10;
const TICK_S: f64 = 0.1;

/// Seeded crowd: fixed homes in a hotspot, bounded random wobble, and
/// each client's move phase within the tick.
///
/// Homes and phases are stratified, so every seed gives the crowd the
/// same density profile and the same spread of phases: the seed moves
/// who stands where, not how much work a tick is.
struct Crowd {
    home: Vec<Point>,
    offset: Vec<(f64, f64)>,
    /// When in its tick a client's move is due, seconds in `[0, TICK_S)`.
    phase: Vec<f64>,
    rng: SimRng,
}

impl Crowd {
    fn new(seed: u64) -> Crowd {
        let mut rng = SimRng::seed_from_u64(seed);
        let (cx, cy) = (WORLD * 0.6, WORLD * 0.5);
        let turn = rng.uniform(0.0, std::f64::consts::TAU);
        // Client k takes the k-th of CLIENTS equal-mass rings of a 2-D
        // normal (jittered within it) at the k-th golden-angle turn.
        let golden = std::f64::consts::PI * (3.0 - 5f64.sqrt());
        let home = (0..CLIENTS)
            .map(|k| {
                let mass = (k as f64 + rng.uniform(0.0, 1.0)) / CLIENTS as f64;
                let r = SPREAD * (-2.0 * (1.0 - mass).ln()).sqrt();
                let a = turn + golden * k as f64;
                Point::new(
                    (cx + r * a.cos()).clamp(0.0, WORLD),
                    (cy + r * a.sin()).clamp(0.0, WORLD),
                )
            })
            .collect();
        let phase = (0..CLIENTS)
            .map(|k| (k as f64 + rng.uniform(0.0, 1.0)) / CLIENTS as f64 * TICK_S)
            .collect();
        Crowd {
            home,
            offset: vec![(0.0, 0.0); CLIENTS],
            phase,
            rng,
        }
    }

    /// Everyone's next position.
    fn step(&mut self) -> Vec<Point> {
        let rng = &mut self.rng;
        self.home
            .iter()
            .zip(&mut self.offset)
            .map(|(h, (ox, oy))| {
                *ox = (*ox + rng.uniform(-STEP, STEP)).clamp(-WOBBLE, WOBBLE);
                *oy = (*oy + rng.uniform(-STEP, STEP)).clamp(-WOBBLE, WOBBLE);
                Point::new((h.x + *ox).clamp(0.0, WORLD), (h.y + *oy).clamp(0.0, WORLD))
            })
            .collect()
    }
}

/// What one tick did.
#[derive(Default)]
struct TickOut {
    /// Server side: ingest, routing, flush and encode.
    tick: Duration,
    /// How long the tick started after its boundary, because the one
    /// before it was still running, ms.
    behind_ms: f64,
    /// Per move: from its due time until every frame of its tick was
    /// applied, on the paced timeline, ms.
    latencies: Vec<f64>,
    ingest_allocs: u64,
    flush_allocs: u64,
    encode_allocs: u64,
    forward_ns: u64,
    frames: u64,
    items: u64,
    bytes: u64,
    failed: u64,
}

/// One server, its co-located Matrix server and coordinator, and the
/// receivers' decoded views.
struct Instance {
    game: GameServerNode,
    matrix: MatrixServer,
    coord: Coordinator,
    crowd: Crowd,
    positions: Vec<Point>,
    quantum: f64,
    now: SimTime,
    tick_no: u64,
    timeline: PacedTimeline,
    frame_seq: u64,
    bases: Vec<Option<Point>>,
    views: Vec<HashMap<u64, Point>>,
    traced: bool,
}

impl Instance {
    /// Builds the node, joins the crowd and runs the warm-up ticks;
    /// also returns how many set-up frames failed their checks.
    fn build(seed: u64, traced: bool) -> (Instance, u64) {
        let cfg = GameServerConfig {
            emit_updates: true,
            flush_workers: 1,
            telemetry: traced,
            ..GameServerConfig::default()
        };
        let id = ServerId(1);
        let crowd = Crowd::new(seed);
        let mut inst = Instance {
            game: GameServerNode::new(id, cfg).with_fanout(),
            matrix: MatrixServer::new(id, MatrixConfig::static_baseline()),
            coord: Coordinator::new(CoordinatorConfig::default()),
            positions: crowd.home.clone(),
            crowd,
            quantum: cfg.origin_quantum,
            now: SimTime::ZERO,
            tick_no: 0,
            timeline: PacedTimeline::new(TICK_S),
            frame_seq: 0,
            bases: vec![None; CLIENTS],
            views: vec![HashMap::new(); CLIENTS],
            traced,
        };
        let mut frames = Vec::new();
        let world = Rect::from_coords(0.0, 0.0, WORLD, WORLD);
        let actions = inst.game.register(world, RADIUS);
        inst.dispatch(actions, &mut frames);
        for k in 0..CLIENTS {
            let join = ClientToGame::Join {
                pos: inst.positions[k],
                state_bytes: 256,
            };
            // Ids start at 1: `ClientId(0)` is the anonymous entity.
            let actions = inst.game.on_client(inst.now, ClientId(k as u64 + 1), join);
            inst.dispatch(actions, &mut frames);
        }
        let mut failed = 0;
        for (client, msg) in &frames {
            let bytes = inst.encode(msg);
            match decode(&bytes) {
                Some(msg) => failed += u64::from(inst.apply(*client, &msg).1 > 0),
                None => failed += 1,
            }
        }
        let mut off = Tracer::new(Instant::now(), false);
        for _ in 0..WARMUP_TICKS {
            failed += inst.tick(&mut off).failed;
        }
        (inst, failed)
    }

    fn encode(&mut self, msg: &GameToClient) -> Vec<u8> {
        self.frame_seq += 1;
        let meta = FrameMeta {
            seq: self.frame_seq,
            stamp_ms: (self.now.as_micros() / 1000) as u32,
        };
        codec_v2::encode_server_frame(msg, meta, true)
    }

    /// Routes node actions the way the runtime's node task does:
    /// `ToMatrix` into the co-located Matrix server, coordinator
    /// traffic to the co-located coordinator, client messages into
    /// `frames`. Peers and the pool do not exist here. Returns the ns
    /// spent in `MatrixServer::on_game` (timed only when traced).
    fn dispatch(
        &mut self,
        actions: Vec<GameAction>,
        frames: &mut Vec<(ClientId, GameToClient)>,
    ) -> u64 {
        let mut forward_ns = 0;
        let mut queue: VecDeque<GameAction> = actions.into();
        while let Some(action) = queue.pop_front() {
            match action {
                GameAction::ToClient(client, msg) => frames.push((client, msg)),
                GameAction::ToMatrix(msg) => {
                    let t0 = self.traced.then(Instant::now);
                    let replies = self.matrix.on_game(self.now, msg);
                    if let Some(t0) = t0 {
                        forward_ns += t0.elapsed().as_nanos() as u64;
                    }
                    self.route(replies, &mut queue);
                }
            }
        }
        forward_ns
    }

    fn route(&mut self, actions: Vec<Action>, queue: &mut VecDeque<GameAction>) {
        let mut pending: VecDeque<Action> = actions.into();
        while let Some(action) = pending.pop_front() {
            match action {
                Action::ToGame(msg) => queue.extend(self.game.on_matrix(self.now, msg)),
                Action::ToCoord(msg) => {
                    for CoordAction::Send(to, reply) in self.coord.handle(self.now, msg) {
                        if to == self.matrix.id() {
                            pending.extend(self.matrix.on_coord(self.now, reply));
                        }
                    }
                }
                Action::ToPeer(..) | Action::ToPool(..) => {}
            }
        }
    }

    /// Applies one decoded message to `client`'s view; returns the
    /// items applied and how many of them failed the position check.
    /// A frame with any failed item counts as one failed operation.
    fn apply(&mut self, client: ClientId, msg: &GameToClient) -> (u64, u64) {
        let r = client.0 as usize - 1;
        match msg {
            GameToClient::UpdateBatch { updates } => {
                let Some(items) = reconstruct_updates(&mut self.bases[r], updates) else {
                    return (0, 1);
                };
                let mut wrong = 0;
                for u in &items {
                    let truth = (u.entity as usize)
                        .checked_sub(1)
                        .and_then(|e| self.positions.get(e));
                    if truth.map(|p| quantize(*p, self.quantum)) != Some(u.origin) {
                        wrong += 1;
                    }
                    self.views[r].insert(u.entity, u.origin);
                }
                (items.len() as u64, wrong)
            }
            GameToClient::Joined { .. } => {
                self.bases[r] = None;
                (0, 0)
            }
            GameToClient::Ack { .. } => (0, 0),
            GameToClient::Update { .. } | GameToClient::SwitchServer { .. } => (0, 1),
        }
    }

    /// One 100 ms tick, every phase recorded as a child span of the
    /// tick when `tr` is on.
    fn tick(&mut self, tr: &mut Tracer) -> TickOut {
        let mut out = TickOut::default();
        self.positions = self.crowd.step();
        let req = self.tick_no;
        self.tick_no += 1;
        let mut frames = Vec::new();

        let a0 = allocs();
        let t_ingest = Instant::now();
        let mut actions = Vec::new();
        for (k, pos) in self.positions.iter().enumerate() {
            let msg = ClientToGame::Move { pos: *pos };
            actions.extend(self.game.on_client(self.now, ClientId(k as u64 + 1), msg));
        }
        let t_dispatch = Instant::now();
        out.ingest_allocs = allocs() - a0;
        out.forward_ns = self.dispatch(actions, &mut frames);

        let t_flush = Instant::now();
        self.now += matrix_sim::SimDuration::from_millis(100);
        let a1 = allocs();
        let actions = self.game.on_tick(self.now, 0.0);
        out.flush_allocs = allocs() - a1;
        let t_route = Instant::now();
        out.forward_ns += self.dispatch(actions, &mut frames);
        let replies = self.matrix.on_tick(self.now);
        let mut queue = VecDeque::new();
        self.route(replies, &mut queue);
        self.dispatch(queue.into(), &mut frames);

        let t_encode = Instant::now();
        let a2 = allocs();
        let mut encoded = Vec::with_capacity(frames.len());
        for (client, msg) in &frames {
            encoded.push((*client, self.encode(msg)));
        }
        out.encode_allocs = allocs() - a2;
        let t_decode = Instant::now();
        out.tick = t_decode - t_ingest;
        let decoded: Vec<(ClientId, Option<GameToClient>)> =
            encoded.iter().map(|(c, b)| (*c, decode(b))).collect();
        let t_apply = Instant::now();
        for (client, msg) in &decoded {
            out.frames += 1;
            match msg {
                Some(msg) => {
                    let (items, wrong) = self.apply(*client, msg);
                    out.items += items;
                    out.failed += u64::from(wrong > 0);
                }
                None => out.failed += 1,
            }
        }
        let t_end = Instant::now();
        out.bytes = encoded.iter().map(|(_, b)| b.len() as u64).sum();
        let (behind, done) = self.timeline.run(req, (t_end - t_ingest).as_secs_f64());
        out.behind_ms = behind * 1e3;
        let due = req as f64 * TICK_S;
        out.latencies = self
            .crowd
            .phase
            .iter()
            .map(|phase| (done - due - phase) * 1e3)
            .collect();

        let root = tr.record("tick", t_ingest, t_end, None, req);
        for (name, a, b) in [
            ("node.ingest", t_ingest, t_dispatch),
            ("node.dispatch", t_dispatch, t_flush),
            ("node.flush", t_flush, t_route),
            ("node.dispatch", t_route, t_encode),
            ("codec.encode", t_encode, t_decode),
            ("codec.decode", t_decode, t_apply),
            ("client.apply", t_apply, t_end),
        ] {
            tr.record(name, a, b, root, req);
        }
        out
    }
}

/// Decodes one whole v2 frame holding a server message.
fn decode(bytes: &[u8]) -> Option<GameToClient> {
    match codec_v2::decode_frame(bytes) {
        Ok(FrameStatus::Complete {
            frame: Frame::Server(msg),
            consumed,
            ..
        }) if consumed == bytes.len() => Some(msg),
        _ => None,
    }
}

/// Everything one measured stretch of ticks produced.
struct Window {
    ticks: Vec<TickOut>,
    /// `(fresh, pairs)` after each of the first `DET_TICKS` ticks.
    fresh: Vec<(u64, u64)>,
    /// Rate-limited and fanned counts over the first `DET_TICKS` ticks.
    det_discarded: (u64, u64),
    cpu_s: f64,
    stats: (GameStats, GameStats),
    telemetry: (Option<TelemetrySnapshot>, Option<TelemetrySnapshot>),
    coord: (matrix_core::CoordinatorStats, matrix_core::CoordinatorStats),
    peer_bytes: u64,
}

impl Window {
    fn game_s(&self) -> f64 {
        self.ticks.len() as f64 * TICK_S
    }

    /// Move latency over every move of the window.
    fn latency(&self) -> Option<Tail> {
        let all = self.ticks.iter().flat_map(|t| t.latencies.iter().copied());
        Tail::of(all.collect())
    }

    fn cpu_ms_per_game_s(&self) -> f64 {
        self.cpu_s * 1e3 / self.game_s()
    }
}

/// Ticks `inst` for at least `seconds` and at least `DET_TICKS` ticks.
fn measure(inst: &mut Instance, seconds: f64, tr: &mut Tracer) -> Window {
    let stats0 = *inst.game.stats();
    let tel0 = inst.game.telemetry_snapshot();
    let coord0 = *inst.coord.stats();
    let peer0 = inst.matrix.stats().bytes_to_peers;
    let mut fresh = Vec::new();
    let mut ticks = Vec::new();
    let mut det_discarded = (0, 0);
    let start = Instant::now();
    let cpu0 = crate::host::cpu_seconds();
    while ticks.len() < DET_TICKS || start.elapsed().as_secs_f64() < seconds {
        let before = *inst.game.stats();
        ticks.push(inst.tick(tr));
        if ticks.len() <= DET_TICKS {
            let after = inst.game.stats();
            det_discarded.0 += after.updates_rate_limited - before.updates_rate_limited;
            det_discarded.1 += after.updates_fanned - before.updates_fanned;
            fresh.push(view_freshness(
                &inst.positions,
                &inst.views,
                RADIUS,
                inst.quantum,
            ));
        }
    }
    let cpu_s = crate::host::cpu_seconds() - cpu0;
    Window {
        ticks,
        fresh,
        det_discarded,
        cpu_s,
        stats: (stats0, *inst.game.stats()),
        telemetry: (tel0, inst.game.telemetry_snapshot()),
        coord: (coord0, *inst.coord.stats()),
        peer_bytes: inst.matrix.stats().bytes_to_peers - peer0,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    if cfg.trace {
        // Untraced half, then traced half: the overhead is their
        // difference.
        let mut off = Tracer::new(Instant::now(), false);
        let (mut plain, failed) = Instance::build(cfg.seed, false);
        setup_failures(&mut out, failed);
        let base = measure(&mut plain, cfg.seconds / 2.0, &mut off);
        drop(plain);
        let mut tr = Tracer::new(Instant::now(), true);
        let (mut traced, failed) = Instance::build(cfg.seed, true);
        setup_failures(&mut out, failed);
        count_allocs(true);
        let w = measure(&mut traced, cfg.seconds / 2.0, &mut tr);
        count_allocs(false);
        check(&mut out, &w);
        check(&mut out, &base);
        layers(&mut out, &w, &tr);
        let (Some(a), Some(b)) = (base.latency(), w.latency()) else {
            out.problems.push("too few latency samples".into());
            return out;
        };
        out.metric("trace.overhead_latency_ms_p50", b.p50 - a.p50);
        out.metric(
            "trace.overhead_cpu_ms_per_game_s",
            w.cpu_ms_per_game_s() - base.cpu_ms_per_game_s(),
        );
        out.spans = Some(tr);
        return out;
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut inst = None;
    for _ in 0..SETUPS {
        drop(inst.take());
        let t0 = Instant::now();
        let (built, failed) = Instance::build(cfg.seed, false);
        setups.push(t0.elapsed().as_secs_f64());
        setup_failures(&mut out, failed);
        inst = Some(built);
    }
    let mut inst = inst.expect("built at least once");
    let mut off = Tracer::new(Instant::now(), false);
    let w = measure(&mut inst, cfg.seconds, &mut off);
    out.metric("peak_rss_mb", crate::host::peak_rss_mb());
    check(&mut out, &w);
    let Some(lat) = w.latency() else {
        out.problems.push("too few latency samples".into());
        return out;
    };
    out.metric("setup_s", median(&setups));
    out.metric("latency_ms_p50", lat.p50);
    out.metric("latency_ms_p99", lat.p99);
    out.metric("cpu_ms_per_game_s", w.cpu_ms_per_game_s());

    let mut ticks: Vec<f64> = w.ticks.iter().map(|t| t.tick.as_secs_f64() * 1e3).collect();
    ticks.sort_by(f64::total_cmp);
    out.report("tick_ms_p50", crate::stats::percentile(&ticks, 50.0), "ms");
    if let Some(p) = crate::stats::tail_percentile(ticks.len()).filter(|p| *p > 50.0) {
        out.report("tick_ms_tail_pct", p, "pct");
        out.report("tick_ms_tail", crate::stats::percentile(&ticks, p), "ms");
    }
    out.report("ticks", ticks.len() as f64, "count");
    let wall: f64 = ticks.iter().sum::<f64>() / 1e3;
    out.report("sim_speed", w.game_s() / wall, "s/s");
    let behind = w.ticks.iter().map(|t| t.behind_ms).fold(0.0, f64::max);
    out.report("behind_ms_max", behind, "ms");
    out.report("latency_samples", lat.n as f64, "count");
    out.report(&format!("latency_ms_p{}", lat.tail_pct), lat.tail, "ms");
    let det = &w.ticks[..DET_TICKS];
    let det_bytes: u64 = det.iter().map(|t| t.bytes).sum();
    out.report(
        "wire_kb_per_client_s",
        det_bytes as f64 / 1e3 / CLIENTS as f64 / (DET_TICKS as f64 * TICK_S),
        "KB/s",
    );
    let (fresh, pairs) = w.fresh.iter().fold((0, 0), |(f, p), (a, b)| (f + a, p + b));
    out.report("view_fresh_frac", fresh as f64 / pairs as f64, "frac");
    let (limited, fanned) = w.det_discarded;
    out.report("discarded_frac", limited as f64 / fanned as f64, "frac");
    out
}

/// Set-up frames are checked like measured ones, but counted apart:
/// `attempted` and `failed` cover the measured frames.
fn setup_failures(out: &mut Outcome, failed: u64) {
    if failed > 0 {
        out.problems
            .push(format!("{failed} set-up frames failed their checks"));
    }
}

/// Folds the correctness checks into `out`.
fn check(out: &mut Outcome, w: &Window) {
    for t in &w.ticks {
        out.attempted += t.frames;
        out.failed += t.failed;
    }
}

/// The per-layer metrics of the traced window.
fn layers(out: &mut Outcome, w: &Window, tr: &Tracer) {
    let n = w.ticks.len() as f64;
    let game_s = w.game_s();
    let self_ms = tr.self_times();
    let per_tick_ms = |name: &str| self_ms.get(name).copied().unwrap_or(0) as f64 / 1e6 / n;
    let sum = |f: fn(&TickOut) -> u64| w.ticks.iter().map(f).sum::<u64>() as f64;
    out.metric("node.ingest_ms", per_tick_ms("node.ingest"));
    out.metric("node.flush_ms", per_tick_ms("node.flush"));
    out.metric("node.ingest_allocs", sum(|t| t.ingest_allocs) / n);
    out.metric("node.flush_allocs", sum(|t| t.flush_allocs) / n);
    out.metric("codec.encode_ms", per_tick_ms("codec.encode"));
    out.metric("codec.encode_allocs", sum(|t| t.encode_allocs) / n);
    out.metric("codec.decode_ms", per_tick_ms("codec.decode"));
    out.metric("codec.bytes_per_item", sum(|t| t.bytes) / sum(|t| t.items));
    out.metric("client.apply_ms", per_tick_ms("client.apply"));
    out.metric("client.items", sum(|t| t.items) / n);
    out.metric("server.forward_us", sum(|t| t.forward_ns) / 1e3 / n);
    out.metric("server.peer_bytes", w.peer_bytes as f64 / game_s);
    crate::game_stat_layers(out, &w.stats.0, &w.stats.1, n, game_s);
    crate::telemetry_layers(out, w.telemetry.0.as_ref(), w.telemetry.1.as_ref());
    let (c0, c1) = &w.coord;
    out.metric(
        "coord.recomputes",
        (c1.recomputes - c0.recomputes) as f64 / game_s,
    );
    out.metric(
        "coord.tables_sent",
        (c1.tables_sent - c0.tables_sent) as f64 / game_s,
    );
}
