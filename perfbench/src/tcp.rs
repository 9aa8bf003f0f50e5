//! `tcp_loopback`: an in-process cluster behind the TCP gateway on
//! 127.0.0.1, the only workload that crosses real sockets.
//!
//! The load is 300 in-process `RtClient`s in a σ=60 hotspot, each
//! moving at 10 Hz on its own schedule (open loop), with vision rings
//! and dead-reckoning prediction configured as experiment E15 does.
//! Two v2 clients stand next to each other inside the crowd: the
//! sender (a `TcpGameClient`) moves on a seeded random schedule of
//! about 45 probes per second whose gaps do not line up with the tick;
//! the receiver (a plain v2 socket, so its decode can be timed apart
//! from its reads) decodes every frame and applies it with
//! `reconstruct_updates`. A probe's latency runs from the instant it
//! was due until the receiver applied its position or a later one.

use crate::stats::{percentile, ProbeLattice, ProbeLedger, Tail};
use crate::trace::Tracer;
use crate::{median, Outcome, RunCfg};
use matrix_core::codec_v2::{self, Frame, FrameAccumulator, FrameMeta};
use matrix_core::{
    reconstruct_updates, ClientToGame, GameServerConfig, GameToClient, MatrixConfig, WireCodec,
};
use matrix_experiments::predict::{server_config, Mode};
use matrix_games::GameSpec;
use matrix_geometry::Point;
use matrix_rt::wire::{spawn_gateway, TcpGameClient};
use matrix_rt::{NodeSnapshot, RtCluster, RtConfig};
use matrix_sim::SimRng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tokio::runtime::block_on;

/// In-process clients in the crowd.
const CROWD: usize = 200;
/// Hotspot spread (σ).
const SPREAD: f64 = 60.0;
/// Each crowd client moves this often.
const MOVE_EVERY: Duration = Duration::from_millis(100);
/// Probe gaps are uniform in this range, in ms (mean 22 ms).
const GAP_MS: (f64, f64) = (4.0, 40.0);
/// Load runs this long after set-up before anything is measured.
const WARMUP: Duration = Duration::from_secs(1);
/// Every probe must be applied within this long.
const PROBE_LIMIT: Duration = Duration::from_secs(1);
/// The paper's playability bound on response time.
const PLAYABLE_MS: f64 = 150.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Probe lattice anchor; the receiver stands two units away, well
/// inside the near ring, where prediction never suppresses.
const SENDER_AT: Point = Point::new(298.0, 300.0);
const RECEIVER_AT: Point = Point::new(300.0, 302.0);
const TICK_S: f64 = 0.1;

/// E15's game: the racer, whose fast straight runs suit prediction.
fn game() -> GameSpec {
    GameSpec::racer()
}

fn cluster_config(traced: bool) -> RtConfig {
    let spec = game();
    let mut g = server_config(&spec, Mode::Predict, WireCodec::BinaryV2);
    // E15 replays per-event flushes in simulation; live clients batch
    // on the default interval.
    g.batch_interval = GameServerConfig::default().batch_interval;
    g.flush_workers = 1;
    g.telemetry = traced;
    RtConfig {
        world: spec.world,
        radius: spec.radius,
        // One node: no splits, no spares.
        matrix: MatrixConfig::static_baseline(),
        game: g,
        pool_size: 0,
        ..RtConfig::default()
    }
}

fn hotspot_point(rng: &mut SimRng) -> Point {
    let w = game().world;
    let (cx, cy) = ((w.min().x + w.max().x) / 2.0, (w.min().y + w.max().y) / 2.0);
    Point::new(rng.normal(cx, SPREAD), rng.normal(cy, SPREAD))
}

/// A crowd member's waypoint walk around the hotspot.
struct Walker {
    pos: Point,
    goal: Point,
}

impl Walker {
    /// One move at racer speed towards the goal; a new goal on arrival.
    fn step(&mut self, rng: &mut SimRng, reach: f64) -> Point {
        let d = self.pos.distance(self.goal);
        if d <= reach {
            self.pos = self.goal;
            self.goal = hotspot_point(rng);
        } else {
            let f = reach / d;
            self.pos = Point::new(
                self.pos.x + (self.goal.x - self.pos.x) * f,
                self.pos.y + (self.goal.y - self.pos.y) * f,
            );
        }
        self.pos
    }
}

/// The seeded inputs of one rig.
struct Inputs {
    walkers: Vec<Walker>,
    /// Offset of each crowd client's moves within the move period.
    phases: Vec<Duration>,
    /// Drives the walks' later goals.
    rng: SimRng,
    /// Due offsets of probes 1.. from the start of the load.
    probes: Vec<Duration>,
}

impl Inputs {
    /// Probes cover `[0, horizon)` of load time.
    fn new(seed: u64, horizon: Duration) -> Inputs {
        let mut rng = SimRng::seed_from_u64(seed);
        let walkers = (0..CROWD)
            .map(|_| Walker {
                pos: hotspot_point(&mut rng),
                goal: hotspot_point(&mut rng),
            })
            .collect();
        let phases = (0..CROWD)
            .map(|_| MOVE_EVERY.mul_f64(rng.uniform(0.0, 1.0)))
            .collect();
        let mut probes = Vec::new();
        let mut t = Duration::ZERO;
        loop {
            t += Duration::from_secs_f64(rng.uniform(GAP_MS.0, GAP_MS.1) / 1e3);
            if t >= horizon {
                break;
            }
            probes.push(t);
        }
        Inputs {
            walkers,
            phases,
            rng,
            probes,
        }
    }
}

/// What the crowd generator did after the warm-up.
#[derive(Default)]
struct CrowdLog {
    /// The most any move ran behind its due instant.
    late_max: Duration,
}

/// When each probe's send call ran.
#[derive(Default)]
struct SenderLog {
    sends: Vec<(Instant, Instant)>,
    error: Option<String>,
}

/// One update batch at the receiver.
struct FrameLog {
    items: u64,
    decode: (Instant, Instant),
    apply: (Instant, Instant),
}

#[derive(Default)]
struct ReceiverLog {
    /// `(when, bytes)` of every socket read.
    reads: Vec<(Instant, u64)>,
    frames: Vec<FrameLog>,
    /// Probe positions applied: `(seq, when)`.
    applied: Vec<(u64, Instant)>,
    /// Batches carrying the sender's position.
    sender_batches: u64,
    /// Of those, batches whose last position of the sender was not its
    /// newest.
    stale_batches: u64,
    bad_frames: u64,
    error: Option<String>,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Opens the receiver's v2 session (hello, join) on a plain socket.
fn connect_receiver(addr: SocketAddr) -> std::io::Result<(TcpStream, FrameAccumulator)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_millis(20)))?;
    let hello = Frame::Hello {
        version: codec_v2::WIRE_VERSION,
    };
    let mut bytes = codec_v2::encode_frame(&hello, FrameMeta::default(), true);
    // The newline pad every v2 client sends after its hello.
    bytes.push(b'\n');
    s.write_all(&bytes)?;
    let join = ClientToGame::Join {
        pos: RECEIVER_AT,
        state_bytes: 64,
    };
    let mut acc = FrameAccumulator::new();
    let mut buf = vec![0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if Instant::now() > deadline {
            return Err(std::io::Error::other("receiver join timed out"));
        }
        match s.read(&mut buf) {
            Ok(0) => return Err(std::io::Error::other("gateway closed the receiver")),
            Ok(n) => acc.push(&buf[..n]),
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
        while let Some(item) = acc.next() {
            match item {
                Ok((Frame::Hello { .. }, _)) => {
                    let meta = FrameMeta {
                        seq: 1,
                        stamp_ms: 0,
                    };
                    s.write_all(&codec_v2::encode_client_frame(&join, meta, true))?;
                }
                Ok((Frame::Server(GameToClient::Joined { .. }), _)) => return Ok((s, acc)),
                _ => {}
            }
        }
    }
}

/// The receiver loop: decode every frame, apply every batch, note
/// which probe each of the sender's positions names.
fn receive(
    mut s: TcpStream,
    mut acc: FrameAccumulator,
    sender: u64,
    stop: Arc<AtomicBool>,
) -> ReceiverLog {
    let lattice = ProbeLattice::new(SENDER_AT);
    let mut log = ReceiverLog::default();
    let mut base = None;
    let mut view: HashMap<u64, Point> = HashMap::new();
    let mut buf = vec![0u8; 64 * 1024];
    while !stop.load(Ordering::Relaxed) {
        let n = match s.read(&mut buf) {
            Ok(0) => {
                log.error = Some("gateway closed the receiver".into());
                break;
            }
            Ok(n) => n,
            Err(e) if is_timeout(&e) => continue,
            Err(e) => {
                log.error = Some(e.to_string());
                break;
            }
        };
        log.reads.push((Instant::now(), n as u64));
        acc.push(&buf[..n]);
        loop {
            let d0 = Instant::now();
            let Some(item) = acc.next() else { break };
            let d1 = Instant::now();
            let updates = match item {
                Ok((Frame::Server(GameToClient::UpdateBatch { updates }), _)) => updates,
                Ok((Frame::Server(_), _)) => continue,
                _ => {
                    log.bad_frames += 1;
                    continue;
                }
            };
            let Some(items) = reconstruct_updates(&mut base, &updates) else {
                log.bad_frames += 1;
                continue;
            };
            for u in &items {
                view.insert(u.entity, u.origin);
            }
            let applied = Instant::now();
            // A batch applies as a whole, so it delivers its newest
            // probe. The flush orders items by relevance, not age: a
            // batch whose last position of the sender is not its newest
            // leaves an in-order client showing a stale position.
            let mut seqs = Vec::new();
            for u in items.iter().filter(|u| u.entity == sender) {
                match lattice.seq_of(u.origin) {
                    Some(seq) => seqs.push(seq),
                    None => log.bad_frames += 1,
                }
            }
            if let (Some(&newest), Some(&last)) = (seqs.iter().max(), seqs.last()) {
                log.sender_batches += 1;
                if last != newest {
                    log.stale_batches += 1;
                }
                if newest > 0 {
                    log.applied.push((newest, applied));
                }
            }
            log.frames.push(FrameLog {
                items: items.len() as u64,
                decode: (d0, d1),
                apply: (d1, applied),
            });
        }
    }
    log
}

/// The sender: joins, reports ready, waits for its schedule, then
/// sends one probe move per due instant, reading (and discarding)
/// whatever the gateway sends in between.
fn send(
    addr: SocketAddr,
    schedule: mpsc::Receiver<Vec<Instant>>,
    ready: mpsc::Sender<Result<(), String>>,
) -> SenderLog {
    let lattice = ProbeLattice::new(SENDER_AT);
    let mut log = SenderLog::default();
    let run = async {
        let mut c = TcpGameClient::connect_with(addr, WireCodec::BinaryV2)
            .await
            .map_err(|e| e.to_string())?;
        let join = ClientToGame::Join {
            pos: lattice.position(0),
            state_bytes: 64,
        };
        c.send(&join).await.map_err(|e| e.to_string())?;
        while !matches!(
            c.recv().await.map_err(|e| e.to_string())?,
            GameToClient::Joined { .. }
        ) {}
        let _ = ready.send(Ok(()));
        // Blocking here is fine: this thread runs no other task, and
        // the socket's reader thread buffers what arrives meanwhile.
        let Ok(due) = schedule.recv() else {
            return Ok(());
        };
        for (i, at) in due.iter().enumerate() {
            while let Some(wait) = at.checked_duration_since(Instant::now()) {
                let fired = tokio::select! {
                    _ = tokio::time::sleep(wait) => { true }
                    r = c.recv() => { r.map_err(|e| e.to_string())?; false }
                };
                if fired {
                    break;
                }
            }
            let t0 = Instant::now();
            let probe = ClientToGame::Move {
                pos: lattice.position(i as u64 + 1),
            };
            c.send(&probe).await.map_err(|e| e.to_string())?;
            log.sends.push((t0, Instant::now()));
        }
        Ok::<(), String>(())
    };
    if let Err(e) = block_on(run) {
        let _ = ready.send(Err(e.clone()));
        log.error = Some(e);
    }
    log
}

/// The crowd generator: every client moves on its own 10 Hz schedule;
/// inboxes are drained once per period.
fn drive_crowd(
    mut crowd: Vec<matrix_rt::RtClient>,
    inputs: (Vec<Walker>, Vec<Duration>, SimRng),
    base: Instant,
    measure_from: Instant,
    stop: Arc<AtomicBool>,
) -> CrowdLog {
    let (mut walkers, phases, mut rng) = inputs;
    let reach = game().move_speed * MOVE_EVERY.as_secs_f64();
    let mut order: Vec<usize> = (0..crowd.len()).collect();
    order.sort_by_key(|k| phases[*k]);
    let mut log = CrowdLog::default();
    let mut cycle = 0u32;
    while !stop.load(Ordering::Relaxed) {
        for &k in &order {
            let due = base + MOVE_EVERY * cycle + phases[k];
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            } else if due >= measure_from {
                log.late_max = log.late_max.max(now - due);
            }
            let pos = walkers[k].step(&mut rng, reach);
            crowd[k].move_to(pos);
        }
        for c in &mut crowd {
            c.drain();
        }
        cycle += 1;
    }
    log
}

/// One running cluster with its load.
struct Rig {
    cluster: RtCluster,
    stop: Arc<AtomicBool>,
    crowd: JoinHandle<CrowdLog>,
    sender: JoinHandle<SenderLog>,
    receiver: JoinHandle<ReceiverLog>,
    /// When the load started.
    base: Instant,
    /// Due instant of each probe.
    due: Vec<Instant>,
}

impl Rig {
    /// Starts the cluster, the gateway and every client, then the load.
    fn start(inputs: Inputs, traced: bool) -> Result<Rig, String> {
        let Inputs {
            walkers,
            phases,
            rng,
            probes,
        } = inputs;
        let cluster = block_on(RtCluster::start(cluster_config(traced)));
        let router = cluster.router().clone();
        let addr = block_on(spawn_gateway("127.0.0.1:0", router, cluster.bootstrap_id()))
            .map_err(|e| e.to_string())?;
        // Client ids run from 1 in connection order: the crowd first,
        // then the sender.
        let crowd: Vec<_> = walkers.iter().map(|w| cluster.client(w.pos)).collect();
        let sender_id = CROWD as u64 + 1;
        let stop = Arc::new(AtomicBool::new(false));

        let (schedule_tx, schedule_rx) = mpsc::channel();
        let (ready_tx, ready_rx) = mpsc::channel();
        let sender = std::thread::spawn(move || send(addr, schedule_rx, ready_tx));
        let ready = ready_rx.recv().unwrap_or(Err("sender thread died".into()));
        if let Err(e) = ready {
            drop(schedule_tx);
            let _ = sender.join();
            return Err(e);
        }
        let (s, acc) = connect_receiver(addr).map_err(|e| e.to_string())?;
        let receiver = {
            let stop = stop.clone();
            std::thread::spawn(move || receive(s, acc, sender_id, stop))
        };

        let base = Instant::now();
        let due: Vec<Instant> = probes.iter().map(|d| base + *d).collect();
        schedule_tx
            .send(due.clone())
            .map_err(|_| "sender thread died".to_string())?;
        let crowd = {
            let stop = stop.clone();
            let from = base + WARMUP;
            std::thread::spawn(move || drive_crowd(crowd, (walkers, phases, rng), base, from, stop))
        };
        Ok(Rig {
            cluster,
            stop,
            crowd,
            sender,
            receiver,
            base,
            due,
        })
    }

    /// Waits for the sender to finish its schedule, then stops the load
    /// and the cluster and returns the threads' logs.
    fn stop(self) -> (CrowdLog, SenderLog, ReceiverLog) {
        let sender = self.sender.join().expect("sender thread");
        self.stop.store(true, Ordering::Relaxed);
        let crowd = self.crowd.join().expect("crowd thread");
        let receiver = self.receiver.join().expect("receiver thread");
        block_on(self.cluster.shutdown());
        (crowd, sender, receiver)
    }
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// One measured window of one rig.
struct Window {
    /// When the load started; ledger times count from here.
    base: Instant,
    from: Instant,
    to: Instant,
    seconds: f64,
    setup_s: f64,
    cpu_s: f64,
    /// Peak RSS of the process at the end of the window, MB.
    rss_mb: f64,
    /// Probe latencies (s) of the probes due inside the window.
    latencies: Vec<f64>,
    /// Window probes never applied, or applied too late.
    late_or_lost: u64,
    ledger: ProbeLedger,
    due: Vec<Instant>,
    crowd: CrowdLog,
    sender: SenderLog,
    receiver: ReceiverLog,
    snaps: Option<(NodeSnapshot, NodeSnapshot)>,
}

impl Window {
    fn cpu_ms_per_game_s(&self) -> f64 {
        self.cpu_s * 1e3 / self.seconds
    }

    fn inside(&self, t: Instant) -> bool {
        t >= self.from && t < self.to
    }

    fn check(&self, out: &mut Outcome) {
        out.attempted += self.latencies.len() as u64 + self.late_or_lost;
        let l = &self.ledger;
        let failed = self.late_or_lost + l.out_of_order + l.unknown + self.receiver.bad_frames;
        out.failed += failed;
        if failed > 0 {
            out.problems.push(format!(
                "probes late or lost: {}, out of order: {}, unknown: {}, bad frames: {}",
                self.late_or_lost, l.out_of_order, l.unknown, self.receiver.bad_frames
            ));
        }
        for e in [&self.sender.error, &self.receiver.error]
            .into_iter()
            .flatten()
        {
            out.problems.push(e.clone());
        }
    }

    /// How late the open-loop generators ran inside the window.
    fn gen_late_ms(&self) -> f64 {
        let probe_late = self
            .due
            .iter()
            .zip(&self.sender.sends)
            .filter(|(due, _)| self.inside(**due))
            .map(|(due, (sent, _))| sent.saturating_duration_since(*due))
            .max()
            .unwrap_or_default();
        probe_late.max(self.crowd.late_max).as_secs_f64() * 1e3
    }
}

/// Sets up a rig, measures `seconds` after the warm-up and tears it
/// down.
fn measure(seed: u64, traced: bool, seconds: f64) -> Result<Window, String> {
    let window = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let rig = Rig::start(Inputs::new(seed, WARMUP + window), traced)?;
    let from = rig.base + WARMUP;
    let to = from + window;
    sleep_until(from);
    let setup_s = t0.elapsed().as_secs_f64();
    let snapshot = || block_on(rig.cluster.snapshots()).into_iter().next();
    let snap0 = if traced { snapshot() } else { None };
    let cpu0 = crate::host::cpu_seconds();
    sleep_until(to);
    let cpu_s = crate::host::cpu_seconds() - cpu0;
    let rss_mb = crate::host::peak_rss_mb();
    let snap1 = if traced { snapshot() } else { None };
    // Late probes still count: give the last ones their full limit.
    sleep_until(to + PROBE_LIMIT);
    let base = rig.base;
    let due = rig.due.clone();
    let (crowd, sender, receiver) = rig.stop();

    let since = |t: Instant| t.saturating_duration_since(base).as_secs_f64();
    let mut ledger = ProbeLedger::new(due.iter().map(|d| since(*d)).collect());
    for (seq, at) in &receiver.applied {
        ledger.apply(seq - 1, since(*at));
    }
    let first = due.partition_point(|d| *d < from);
    let (latencies, late_or_lost) = ledger.latencies(first..due.len(), PROBE_LIMIT.as_secs_f64());
    Ok(Window {
        base,
        from,
        to,
        seconds,
        setup_s,
        cpu_s,
        rss_mb,
        latencies,
        late_or_lost,
        ledger,
        due,
        crowd,
        sender,
        receiver,
        snaps: snap0.zip(snap1),
    })
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    if cfg.trace {
        let windows = measure(cfg.seed, false, cfg.seconds / 2.0)
            .and_then(|base| Ok((base, measure(cfg.seed, true, cfg.seconds / 2.0)?)));
        let (base, w) = match windows {
            Ok(pair) => pair,
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        };
        base.check(&mut out);
        w.check(&mut out);
        let p50 = |w: &Window| {
            let mut l = w.latencies.clone();
            l.sort_by(f64::total_cmp);
            if l.is_empty() {
                f64::NAN
            } else {
                percentile(&l, 50.0) * 1e3
            }
        };
        out.metric("trace.overhead_latency_ms_p50", p50(&w) - p50(&base));
        out.metric(
            "trace.overhead_cpu_ms_per_game_s",
            w.cpu_ms_per_game_s() - base.cpu_ms_per_game_s(),
        );
        layers(&mut out, &w);
        return out;
    }

    // The measured rig comes first, so its peak RSS is its own.
    let w = match measure(cfg.seed, false, cfg.seconds) {
        Ok(w) => w,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let mut setups = vec![w.setup_s];
    for _ in 1..SETUPS {
        // Set up, warm up, tear down: only the set-up time is kept.
        match measure(cfg.seed, false, 0.0) {
            Ok(w) => setups.push(w.setup_s),
            Err(e) => out.problems.push(e),
        }
    }
    w.check(&mut out);
    let Some(lat) = Tail::of(w.latencies.iter().map(|s| s * 1e3).collect()) else {
        out.problems.push("fewer than 1000 probes measured".into());
        return out;
    };
    out.metric("setup_s", median(&setups));
    out.metric("latency_ms_p50", lat.p50);
    out.metric("latency_ms_p99", lat.p99);
    out.metric("cpu_ms_per_game_s", w.cpu_ms_per_game_s());
    out.metric("peak_rss_mb", w.rss_mb);
    out.report("probes", lat.n as f64, "count");
    out.report(&format!("latency_ms_p{}", lat.tail_pct), lat.tail, "ms");
    let late = w
        .latencies
        .iter()
        .filter(|s| **s * 1e3 > PLAYABLE_MS)
        .count();
    out.report("late_frac", late as f64 / lat.n as f64, "frac");
    let bytes: u64 = w
        .receiver
        .reads
        .iter()
        .filter(|(at, _)| w.inside(*at))
        .map(|(_, n)| n)
        .sum();
    out.report(
        "wire_kb_per_client_s",
        bytes as f64 / 1e3 / w.seconds,
        "KB/s",
    );
    out.report("gen_late_ms_max", w.gen_late_ms(), "ms");
    let r = &w.receiver;
    let stale = r.stale_batches as f64 / r.sender_batches.max(1) as f64;
    out.report("stale_batch_frac", stale, "frac");
    out
}

/// The per-layer metrics of the traced window.
fn layers(out: &mut Outcome, w: &Window) {
    let ticks = w.seconds / TICK_S;
    let mut tr = Tracer::new(w.from, true);
    let mut items = 0;
    for (i, f) in w.receiver.frames.iter().enumerate() {
        if !w.inside(f.decode.0) {
            continue;
        }
        items += f.items;
        let root = tr.record("client.frame", f.decode.0, f.apply.1, None, i as u64);
        tr.record("codec.decode", f.decode.0, f.decode.1, root, i as u64);
        tr.record("client.apply", f.apply.0, f.apply.1, root, i as u64);
    }
    for (i, (due, sent)) in w.due.iter().zip(&w.sender.sends).enumerate() {
        if !w.inside(*due) {
            continue;
        }
        let applied = w.ledger.applied_at(i);
        let end = applied.map_or(sent.1, |at| w.base + Duration::from_secs_f64(at));
        let root = tr.record("probe", *due, end, None, i as u64 + 1);
        tr.record("gen.send", sent.0, sent.1, root, i as u64 + 1);
    }
    let self_ns = tr.self_times();
    let per_tick_ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / ticks;
    out.metric("codec.decode_ms", per_tick_ms("codec.decode"));
    out.metric("client.apply_ms", per_tick_ms("client.apply"));
    out.metric("client.items", items as f64 / ticks);
    let bytes: u64 = w
        .receiver
        .reads
        .iter()
        .filter(|(at, _)| w.inside(*at))
        .map(|(_, n)| n)
        .sum();
    if items > 0 {
        out.metric("codec.bytes_per_item", bytes as f64 / items as f64);
    }
    out.metric("gen.late_ms_max", w.gen_late_ms());
    if let Some((s0, s1)) = &w.snaps {
        let (g0, g1) = (&s0.game_stats, &s1.game_stats);
        crate::game_stat_layers(out, g0, g1, ticks, w.seconds);
        crate::telemetry_layers(out, s0.telemetry.as_ref(), s1.telemetry.as_ref());
        let peer = s1.matrix_stats.bytes_to_peers - s0.matrix_stats.bytes_to_peers;
        out.metric("server.peer_bytes", peer as f64 / w.seconds);
        let flushed = g1.batches_flushed - g0.batches_flushed;
        out.metric("rt.batches_flushed", flushed as f64 / w.seconds);
    }
    out.spans = Some(tr);
}
