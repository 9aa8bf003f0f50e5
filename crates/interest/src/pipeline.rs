//! The composable per-client dissemination pipeline.
//!
//! Earlier revisions hand-wired the dissemination stages inside the game
//! server's flush path: the interest grid was queried in one method, the
//! batcher filled inline, and the flush loop called the policy and the
//! delta encoder back to back with bespoke glue. Every new stage meant
//! editing that monolith in two drivers. [`DisseminationPipeline`] makes
//! the stages an explicit, reusable component with one seam per stage:
//!
//! 1. **interest query** — the [`InterestGrid`](crate::InterestGrid)
//!    answers "who can see this point" within the outermost ring, and
//!    grades each receiver's vision ring while it is at it: one query
//!    serves every subscriber of an occupied cell, and cells whose
//!    conservative distance bounds fall inside a single ring annulus
//!    classify their whole bucket at once
//!    ([`InterestGrid::query_tiered`]);
//! 2. **ring tiering** — [`RingSampler`](crate::RingSampler)
//!    deterministically samples the outer tiers (near = every event);
//! 3. **prediction** — a [`MotionModel`](matrix_predict::MotionModel)
//!    estimates each entity's velocity and a
//!    [`PredictedStream`](matrix_predict::PredictedStream) simulates
//!    every receiver's dead-reckoning extrapolation, *suppressing* the
//!    event for receivers whose prediction stays within the ring's
//!    error budget (the near ring's budget is pinned to 0 — near means
//!    every event, preserving the delivery guarantee). Outer-ring items
//!    can additionally ship position-only
//!    ([`Disseminated::strip_payload`]);
//! 4. **entity merge + budget policy** —
//!    [`FlushPolicy`](crate::FlushPolicy) ranks the queued items by
//!    relevance, supersedes per-entity duplicates under pressure and
//!    enforces the count/byte budgets;
//! 5. **delta encoding** — [`DeltaEncoder`](crate::DeltaEncoder) turns
//!    surviving origins into exact offsets with periodic keyframes.
//!
//! A density-driven [`AutoTuner`](crate::AutoTuner) re-picks the grid
//! resolution as the subscriber count drifts (stage 1's only tunable),
//! rebuilding the index in place.
//!
//! # Sharding
//!
//! All per-*receiver* state — queued batches, sampling phase, delta
//! streams, prediction mirrors, the stage-4/5 span timers — lives in N
//! independent **shards** keyed by a stable hash of the receiver
//! ([`ShardKey`](crate::ShardKey)). Stages 4–5 touch nothing but one
//! receiver's own state, so a flush can process every shard
//! independently. With one shard the flush runs on the caller; with
//! more, each shard runs on its own scoped `std::thread` worker, under
//! the discrete-event harness and `matrix-rt` alike. Because receivers
//! partition across shards and each shard drains in receiver order,
//! merging the per-shard batch lists by receiver reconstructs the exact
//! global order — the flush output is **byte-identical for any shard
//! count**, which is what lets `flush_workers` be a pure performance
//! knob (property-pinned in `tests/interest_properties.rs`).
//!
//! The pipeline is deliberately payload-agnostic: anything implementing
//! [`Disseminated`] flows through, so the middleware's update items, the
//! property suites' synthetic payloads and the benches all drive the
//! same code. With rings untiered and the tuner disabled, the pipeline's
//! output is **byte-identical** to the hand-wired v2 flush path — a
//! property test in `tests/interest_properties.rs` pins that equivalence
//! down, which is what makes this refactor safe to sit under both the
//! discrete-event harness and the async runtime.

use crate::config::DisseminationConfig;
use crate::delta::{DeltaEncoder, EncodedOrigin};
use crate::grid::InterestGrid;
use crate::policy::{FlushPolicy, ANON_ENTITY};
use crate::rings::{RingSampler, RingSet};
use crate::shard::{shard_of, ShardKey};
use crate::tuner::AutoTuner;
use crate::UpdateBatcher;
use matrix_geometry::{Metric, Point, Rect};
use matrix_predict::{quantize_velocity, Admission, Basis, MotionModel, PredictedStream};
use matrix_telemetry::{Histogram, Stage, StageSpans};
use std::hash::Hash;

/// What the pipeline needs to know about a payload to rank, merge,
/// budget and account for it.
pub trait Disseminated {
    /// Where the event happened (already quantised by the producer if a
    /// wire lattice is in effect).
    fn origin(&self) -> Point;
    /// Source entity id (`0` = anonymous, exempt from per-entity
    /// superseding).
    fn entity(&self) -> u64;
    /// Estimated absolute wire cost, used by the byte budget.
    fn wire_bytes(&self) -> usize;
    /// The vision ring this item was admitted under (`0` = near). The
    /// producer's `make` callback receives the ring and embeds it in
    /// the payload (it usually travels to the receiver as a fidelity
    /// tag), so the pipeline queues no side-band tier state.
    fn ring(&self) -> u8 {
        0
    }
    /// Degrades this item to position-only: strip the game payload,
    /// keep the origin (and velocity). Applied by the pipeline to items
    /// admitted through rings at or beyond
    /// [`DisseminationConfig::position_only_ring`] — a far-ring entity's
    /// whereabouts matter for rendering, its full state rarely does.
    /// The default is a no-op for payloads with nothing to strip.
    fn strip_payload(&mut self) {}
    /// The causal trace tag riding this item, if the producer sampled
    /// it ([`matrix_telemetry::TraceTag`]). Untraced payloads (the
    /// default, and every payload when `trace_sample_rate` is 0) return
    /// `None` and cost the pipeline nothing.
    fn trace(&self) -> Option<matrix_telemetry::TraceTag> {
        None
    }
    /// Charges the age of an undelivered predecessor (µs before this
    /// item's ingest) to the item's trace tag, so the suppressed or
    /// policy-dropped event's latency surfaces as staleness on the next
    /// delivered rebase instead of vanishing. A no-op for untraced
    /// payloads.
    fn trace_charge(&mut self, _age_us: u64) {}
}

/// The pipeline's inputs that are not per-game dissemination knobs
/// (those arrive as a [`DisseminationConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Distance metric for interest queries and relevance ranking.
    pub metric: Metric,
    /// Fixed-point lattice the delta encoder verifies offsets against
    /// (`0.0` = no lattice requirement). Shipped velocities snap to
    /// their own, coarser lattice —
    /// [`DisseminationConfig::velocity_quantum`].
    pub origin_quantum: f64,
    /// Enables the per-stage span timers
    /// ([`DisseminationPipeline::spans`]): each stage's time per flush
    /// cycle lands in a latency histogram. Off (the default), every
    /// timing call is a branch-only no-op — no clock reads.
    pub telemetry: bool,
    /// Number of shards per-receiver state is partitioned into (clamped
    /// to ≥ 1). Above one, each shard flushes on its own scoped worker
    /// thread; the output is byte-identical for any count.
    pub shards: u32,
    /// Arms the trace plane's staleness charging (producers stamp
    /// [`matrix_telemetry::TraceTag`]s on sampled items): suppressed
    /// and policy-dropped events record the gap they leave, and the
    /// next emitted rebase of the same `(receiver, entity)` pair picks
    /// the charge up via [`Disseminated::trace_charge`]. Off, every
    /// charging site is a single branch and no map is touched.
    pub trace_charging: bool,
}

/// One receiver's flushed batch. `items` and `origins` are parallel —
/// handing back the two vectors the policy and encoder stages already
/// produced keeps the flush hot path free of intermediate copies (the
/// caller zips them while assembling its wire messages).
#[derive(Debug, Clone, PartialEq)]
pub struct FlushBatch<K, U> {
    /// The receiving subscriber.
    pub receiver: K,
    /// Kept payloads, most relevant first. Never empty. Each carries
    /// its ring tag ([`Disseminated::ring`]).
    pub items: Vec<U>,
    /// How each item's origin travels on the wire (parallel to
    /// `items`).
    pub origins: Vec<EncodedOrigin>,
    /// Items merged or dropped by the budget policy for this receiver.
    pub rate_limited: u64,
}

/// Everything one flush produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlushOutcome<K, U> {
    /// Per-receiver batches, in receiver order.
    pub batches: Vec<FlushBatch<K, U>>,
    /// Queued items discarded because their receiver vanished between
    /// enqueue and flush.
    pub orphaned: u64,
}

/// What one dissemination (stages 1–3) did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DisseminateStats {
    /// Receivers the event was delivered to (queued, or counted when
    /// emission is off).
    pub delivered: u64,
    /// Receivers inside the AOI whose ring sampled this event out.
    pub sampled_out: u64,
    /// Receivers whose dead-reckoning extrapolation held this event
    /// within the ring's error budget — nothing was queued; the
    /// receiver's prediction stands in for the transmission.
    pub suppressed: u64,
    /// Items degraded to position-only by the per-ring payload policy.
    pub stripped: u64,
    /// Sum of the simulated receiver errors over the suppressed
    /// deliveries (world units) — `sum / suppressed` is the mean error
    /// the predictions absorbed.
    pub pred_error_sum: f64,
    /// Largest simulated receiver error among the suppressed deliveries.
    pub pred_error_max: f64,
}

/// One shard of per-receiver state. Every structure in here is keyed by
/// the receiver and every flush-time access touches exactly one
/// receiver's entry, so shards are fully independent during a flush —
/// the invariant the threaded flush rests on.
#[derive(Debug, Clone)]
struct Shard<K: Ord, U> {
    sampler: RingSampler<K>,
    batcher: UpdateBatcher<K, U>,
    encoder: DeltaEncoder<K>,
    predicted: PredictedStream<K>,
    /// Stage-4/5 lap timers; stages 1–3 run on the driver thread and
    /// time into the pipeline-level spans.
    spans: StageSpans,
    /// Trace-plane staleness charges: entity → receiver → earliest
    /// undelivered event time (µs). Populated when a suppressed or
    /// policy-dropped item leaves a gap in the receiver's view; drained
    /// onto the next emitted item for that pair
    /// ([`Disseminated::trace_charge`]). Keyed entity-first so the
    /// fan-out hot loop pays one lookup per *event* (the entity is
    /// fixed across its whole receiver set), not one per delivered
    /// item. Empty — and never touched — unless trace charging is
    /// armed.
    charges: std::collections::HashMap<u64, std::collections::HashMap<K, u64>>,
}

/// The composed dissemination pipeline (see the module docs for the
/// stage walk-through).
#[derive(Debug, Clone)]
pub struct DisseminationPipeline<K: Ord + Copy + Eq + Hash, U> {
    metric: Metric,
    knobs: DisseminationConfig,
    rings: RingSet,
    grid: InterestGrid<K>,
    tuner: AutoTuner,
    vel_quantum: f64,
    origin_quantum: f64,
    telemetry: bool,
    motion: MotionModel,
    /// Driver-thread spans: stages 1–3 (Query, Tier, Predict). The
    /// per-shard spans cover stages 4–5 (Policy, Delta);
    /// [`DisseminationPipeline::stage_histogram`] merges the two views.
    spans: StageSpans,
    /// Per-receiver state, partitioned by stable receiver hash. Always
    /// at least one shard; a single shard is exactly the pre-sharding
    /// pipeline.
    shards: Vec<Shard<K, U>>,
    /// [`PipelineConfig::trace_charging`]: with it off the charge maps
    /// stay empty.
    trace_charging: bool,
    /// Reused per-dissemination candidate buffer `(key, pos, ring)` —
    /// stage 1 fills it, stages 2–3 compact and drain it in place.
    scratch: Vec<(K, Point, u8)>,
    /// Reused per-dissemination "shard holds charges for this entity"
    /// flags, one per shard: probed once per event so the delivery loop
    /// skips the charge-map lookup for the (overwhelmingly common)
    /// uncharged entities.
    charged: Vec<bool>,
}

impl<K: Ord + Copy + Eq + Hash + ShardKey, U: Disseminated> DisseminationPipeline<K, U> {
    /// Builds a pipeline over `bounds` from the dissemination knobs,
    /// with `cfg.shards` shards. Until
    /// [`DisseminationPipeline::reset`] supplies a registered radius,
    /// the area of interest is `knobs.ring_set(0.0)`.
    pub fn new(
        bounds: Rect,
        knobs: DisseminationConfig,
        cfg: PipelineConfig,
    ) -> DisseminationPipeline<K, U> {
        let cells = knobs.cells_per_axis.max(1);
        let mut p = DisseminationPipeline {
            metric: cfg.metric,
            knobs,
            rings: knobs.ring_set(0.0),
            grid: Self::make_grid(bounds, cells),
            tuner: AutoTuner::new(knobs.grid_autotune, cells),
            vel_quantum: if knobs.velocity_quantum > 0.0 {
                knobs.velocity_quantum
            } else {
                cfg.origin_quantum
            },
            origin_quantum: cfg.origin_quantum,
            telemetry: cfg.telemetry,
            motion: MotionModel::new(knobs.motion_window),
            spans: StageSpans::new(cfg.telemetry),
            shards: Vec::new(),
            trace_charging: cfg.trace_charging,
            scratch: Vec::new(),
            charged: Vec::new(),
        };
        p.shards = (0..cfg.shards.max(1)).map(|_| p.make_shard()).collect();
        p
    }

    /// The number of shards per-receiver state is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn make_shard(&self) -> Shard<K, U> {
        Shard {
            sampler: RingSampler::new(),
            batcher: UpdateBatcher::new(),
            encoder: DeltaEncoder::new(self.knobs.keyframe_every).with_quantum(self.origin_quantum),
            predicted: PredictedStream::new(),
            spans: StageSpans::new(self.telemetry),
            charges: std::collections::HashMap::new(),
        }
    }

    /// The shard a receiver's state lives in. The single-shard default
    /// skips the hash entirely — the sequential path pays nothing for
    /// the sharding seam.
    #[inline]
    fn shard_ix(&self, key: K) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            shard_of(key.shard_hash(), self.shards.len())
        }
    }

    /// Hold jittering subscribers in their cell for a tenth of a cell;
    /// the grid widens queries by the same margin, so results are exact.
    fn make_grid(bounds: Rect, cells: u32) -> InterestGrid<K> {
        let margin = 0.1 * (bounds.width() / cells as f64).min(bounds.height() / cells as f64);
        InterestGrid::new(bounds, cells).with_hysteresis(margin.max(0.0))
    }

    // -- subscribers (stage 1 state) -----------------------------------------

    /// Adds or re-adds a subscriber, resetting its delta stream (a
    /// (re)joining receiver holds no base, so its next flush keyframes)
    /// and its prediction bases (a fresh connection extrapolates from
    /// nothing, so the sender's mirror must be empty too).
    pub fn subscribe(&mut self, key: K, pos: Point) {
        self.grid.insert(key, pos);
        let si = self.shard_ix(key);
        let shard = &mut self.shards[si];
        shard.encoder.reset(key);
        shard.predicted.forget_receiver(key);
    }

    /// Repositions a subscriber.
    pub fn reposition(&mut self, key: K, pos: Point) {
        self.grid.update(key, pos);
    }

    /// Removes a subscriber, dropping its queued updates, delta stream,
    /// sampling and prediction state. Returns how many queued updates
    /// died with it.
    pub fn unsubscribe(&mut self, key: K) -> usize {
        self.grid.remove(key);
        let si = self.shard_ix(key);
        let shard = &mut self.shards[si];
        shard.encoder.forget(key);
        shard.sampler.forget(key);
        shard.predicted.forget_receiver(key);
        if !shard.charges.is_empty() {
            shard.charges.retain(|_, owed| {
                owed.remove(&key);
                !owed.is_empty()
            });
        }
        shard.batcher.forget(key)
    }

    /// Drops every trace of a departed *entity* (motion track and every
    /// receiver's prediction basis for it). Distinct from
    /// [`DisseminationPipeline::unsubscribe`], which removes a
    /// *receiver*: a client is usually both.
    pub fn forget_entity(&mut self, entity: u64) {
        self.motion.forget(entity);
        for shard in &mut self.shards {
            shard.predicted.forget_entity(entity);
            // A departed entity never rebases again; its staleness
            // charges are undeliverable and would otherwise pin the
            // charge map non-empty forever.
            shard.charges.remove(&entity);
        }
    }

    /// Re-anchors the grid to a new range with the given subscriber set
    /// (splits, reclaims, promotions — rare), keeping the tuned
    /// resolution, streams and pending batches, and re-derives the ring
    /// tiers for the game's `registered_radius` (which a binary
    /// `vision_radius` of `0.0` inherits).
    pub fn reset(
        &mut self,
        bounds: Rect,
        registered_radius: f64,
        subscribers: impl IntoIterator<Item = (K, Point)>,
    ) {
        self.rings = self.knobs.ring_set(registered_radius);
        self.grid = Self::make_grid(bounds, self.tuner.current());
        for (key, pos) in subscribers {
            self.grid.insert(key, pos);
        }
    }

    /// The current ring tiers.
    pub fn rings(&self) -> &RingSet {
        &self.rings
    }

    /// The interest grid (drivers query it for observability).
    pub fn grid(&self) -> &InterestGrid<K> {
        &self.grid
    }

    /// The grid resolution currently in effect.
    pub fn cells_per_axis(&self) -> u32 {
        self.grid.cells_per_axis()
    }

    /// The driver-thread span timers — stages 1–3 (a no-op sink unless
    /// the pipeline was built with [`PipelineConfig::telemetry`] on).
    /// Stage 4–5 time lands in per-shard spans;
    /// [`DisseminationPipeline::stage_histogram`] is the merged view.
    pub fn spans(&self) -> &StageSpans {
        &self.spans
    }

    /// The per-flush latency histogram of one stage (µs), merged across
    /// the driver-thread spans (stages 1–3) and every shard's spans
    /// (stages 4–5). With one shard this is exactly the pre-sharding
    /// histogram; with N shards the Policy/Delta histograms carry one
    /// sample per shard per flush.
    pub fn stage_histogram(&self, stage: Stage) -> Histogram {
        match stage {
            Stage::Query | Stage::Tier | Stage::Predict => self.spans.histogram(stage).clone(),
            Stage::Policy | Stage::Delta => {
                let mut merged = Histogram::new();
                for shard in &self.shards {
                    merged.merge(shard.spans.histogram(stage));
                }
                merged
            }
        }
    }

    /// Cumulative per-shard time (µs) spent in one of the sharded
    /// stages (Policy or Delta) — the flush-imbalance gauge's raw
    /// material: `max / mean` over this vector says how unevenly the
    /// receiver hash spread the stage-5 work. Stages 1–3 run unsharded
    /// on the driver thread, so they yield a single-element vector.
    pub fn shard_stage_sums(&self, stage: Stage) -> Vec<f64> {
        match stage {
            Stage::Query | Stage::Tier | Stage::Predict => {
                vec![self.spans.histogram(stage).sum()]
            }
            Stage::Policy | Stage::Delta => self
                .shards
                .iter()
                .map(|shard| shard.spans.histogram(stage).sum())
                .collect(),
        }
    }

    // -- stages 1–3: query, tier, sample, predict, queue ---------------------

    /// Disseminates one event: queries the grid within the outermost
    /// ring — grading each receiver's ring in the same pass, whole
    /// cells at a time where the cell's distance bounds allow — then
    /// samples the outer tiers, runs dead-reckoning suppression against
    /// each receiver's prediction basis, and (when `emit`) queues one
    /// item per admitted receiver. `origin` is the true event position
    /// (AOI distances); `wire_origin` is the lattice-snapped position
    /// receivers reconstruct — prediction bases are kept in wire
    /// coordinates so the sender's error simulation matches the
    /// receiver bit-for-bit. `make` produces the payload per admitted
    /// receiver, embedding the ring it was admitted under and the
    /// velocity shipped with the item (`(0.0, 0.0)` whenever prediction
    /// is off). An untiered ring set with prediction off costs exactly
    /// what the binary-radius fan-out did.
    ///
    /// `suppressible` marks events whose content a receiver can
    /// reconstruct by extrapolation — pure position updates. Events
    /// carrying payloads a prediction cannot reproduce (actions,
    /// chat, remote deliveries) must pass `false`: they still feed the
    /// motion model and *rebase* every receiver's prediction (the item
    /// carries origin + velocity like any other), but they are never
    /// suppressed — losing an action is a gameplay bug, not graceful
    /// degradation.
    #[allow(clippy::too_many_arguments)] // one seam per stage input, by design
    pub fn disseminate(
        &mut self,
        origin: Point,
        wire_origin: Point,
        entity: u64,
        now_secs: f64,
        suppressible: bool,
        exclude: Option<K>,
        emit: bool,
        mut make: impl FnMut(u8, (f64, f64)) -> U,
    ) -> DisseminateStats {
        let mut stats = DisseminateStats::default();
        let rings = self.rings;
        // Trace-plane charging works in whole microseconds of the same
        // clock the producer stamps tags with; only armed — and only
        // when items actually queue — does it cost anything.
        let charging = self.trace_charging && emit;
        let now_us = if charging { (now_secs * 1e6) as u64 } else { 0 };
        // Anonymous events carry no entity identity to model or to
        // extrapolate, so they bypass the prediction stage entirely.
        let predicting = self.knobs.predict && entity != ANON_ENTITY;
        let vel = if predicting {
            // The model observes every event — suppressed or not — so
            // the velocity estimate tracks the true trajectory. The
            // shipped velocity sits on its own (coarser) wire lattice;
            // see [`DisseminationConfig::velocity_quantum`].
            self.motion.observe(entity, wire_origin, now_secs);
            quantize_velocity(self.motion.velocity(entity), self.vel_quantum)
        } else {
            (0.0, 0.0)
        };
        self.spans.begin();
        // Stage 1: the grid answers "who can see this point" and grades
        // each receiver's ring in the same pass (amortized per cell).
        // Candidates land in a reusable scratch buffer so the later
        // stages run as plain loops the span timer can bracket;
        // iteration order is the grid's, exactly as when the stages
        // were fused in one closure.
        let mut candidates = std::mem::take(&mut self.scratch);
        candidates.clear();
        self.grid.query_tiered(
            origin,
            rings.outer_radius(),
            self.metric,
            &rings,
            |key, pos, ring| {
                if Some(key) != exclude {
                    candidates.push((key, pos, ring));
                }
            },
        );
        self.spans.lap(Stage::Query);
        // Stage 2: let the sampler thin the periphery, compacting
        // survivors in place (inner-ring admission is stateless, so the
        // untiered path touches no sampler state).
        let mut kept = 0;
        for i in 0..candidates.len() {
            let (key, pos, ring) = candidates[i];
            let si = self.shard_ix(key);
            if !self.shards[si].sampler.admit(&rings, key, ring) {
                stats.sampled_out += 1;
                continue;
            }
            candidates[kept] = (key, pos, ring);
            kept += 1;
        }
        candidates.truncate(kept);
        self.spans.lap(Stage::Tier);
        // One charge-map probe per shard for the whole event: the
        // entity is fixed across its receiver set, so these flags tell
        // the delivery loop below whether any receiver can possibly owe
        // a charge. Suppressions during this loop only insert charges
        // for receivers that were *not* delivered, so a pre-loop
        // snapshot cannot miss a drainable charge.
        if charging {
            self.charged.clear();
            self.charged
                .extend(self.shards.iter().map(|s| s.charges.contains_key(&entity)));
        }
        // Stage 3: dead-reckoning admission, payload stripping, queueing.
        for &(key, _, ring) in &candidates {
            let si = self.shard_ix(key);
            if predicting {
                // Non-suppressible events admit with budget 0:
                // always transmitted, and the transmission rebases
                // the receiver's prediction like any other.
                let budget = if suppressible {
                    self.knobs.budget_for(ring)
                } else {
                    0.0
                };
                match self.shards[si].predicted.admit(
                    key,
                    entity,
                    wire_origin,
                    vel,
                    now_secs,
                    budget,
                ) {
                    Admission::Suppress { error } => {
                        stats.suppressed += 1;
                        stats.pred_error_sum += error;
                        stats.pred_error_max = stats.pred_error_max.max(error);
                        if charging {
                            // The receiver extrapolates instead of
                            // hearing this event; remember the earliest
                            // uncovered event time so the next delivered
                            // rebase carries the staleness it papered
                            // over.
                            self.shards[si]
                                .charges
                                .entry(entity)
                                .or_default()
                                .entry(key)
                                .and_modify(|t| *t = (*t).min(now_us))
                                .or_insert(now_us);
                        }
                        continue;
                    }
                    Admission::Send => {}
                }
            }
            stats.delivered += 1;
            let strip = self.knobs.position_only_ring > 0 && ring >= self.knobs.position_only_ring;
            if strip {
                stats.stripped += 1;
            }
            if emit {
                let mut item = make(ring, vel);
                if strip {
                    item.strip_payload();
                }
                if charging && self.charged[si] {
                    // A delivered rebase closes the gap: pick up the
                    // pending charge (observed only if this item is
                    // traced — sampled observability) and clear it.
                    if let Some(owed) = self.shards[si].charges.get_mut(&entity) {
                        if let Some(first_us) = owed.remove(&key) {
                            item.trace_charge(now_us.saturating_sub(first_us));
                            if owed.is_empty() {
                                self.shards[si].charges.remove(&entity);
                            }
                        }
                    }
                }
                self.shards[si].batcher.push(key, item);
            }
        }
        self.spans.lap(Stage::Predict);
        candidates.clear();
        self.scratch = candidates;
        stats
    }

    /// Queues one already-admitted item directly (snapshot restore: the
    /// item passed sampling on the primary; it must not be re-sampled).
    pub fn enqueue(&mut self, key: K, item: U) {
        let si = self.shard_ix(key);
        self.shards[si].batcher.push(key, item);
    }

    /// Whether any updates are queued.
    pub fn has_pending(&self) -> bool {
        self.shards.iter().any(|s| !s.batcher.is_empty())
    }

    /// Visits every queued batch without consuming it (snapshots), in
    /// global receiver order regardless of the shard count.
    pub fn pending(&self) -> impl Iterator<Item = (&K, &[U])> {
        let mut all: Vec<(&K, &[U])> = self.shards.iter().flat_map(|s| s.batcher.peek()).collect();
        all.sort_by(|a, b| a.0.cmp(b.0));
        all.into_iter()
    }

    /// Drops every queued update and all sampling phase (promotions:
    /// the captured pending set describes the pairing moment, not the
    /// crash).
    pub fn clear_pending(&mut self) {
        for shard in &mut self.shards {
            shard.batcher = UpdateBatcher::new();
            shard.sampler.clear();
            shard.charges.clear();
        }
    }

    // -- stages 4+5: merge, budget, encode -----------------------------------

    /// Flushes every queued batch through the policy and the encoder,
    /// shard by shard. `viewer_of` resolves a receiver's current
    /// position; `None` means the receiver vanished between enqueue and
    /// flush (its items are discarded and counted in
    /// [`FlushOutcome::orphaned`]). A single shard flushes on the
    /// caller; above one, each shard runs on its own scoped worker
    /// thread. Either way the batches come back in global receiver
    /// order and the outcome is byte-identical for any shard count.
    pub fn flush(&mut self, viewer_of: impl Fn(K) -> Option<Point> + Sync) -> FlushOutcome<K, U>
    where
        K: Send + Sync,
        U: Send,
    {
        let metric = self.metric;
        let policy = self.knobs.policy();
        let charging = self.trace_charging;
        let (batches, orphaned) = if self.shards.len() > 1 {
            let viewer_of = &viewer_of;
            let results: Vec<(Vec<FlushBatch<K, U>>, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .map(|shard| {
                        s.spawn(move || {
                            Self::flush_shard(shard, metric, policy, charging, viewer_of)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("flush worker panicked"))
                    .collect()
            });
            let mut batches = Vec::new();
            let mut orphaned = 0;
            for (shard_batches, shard_orphaned) in results {
                batches.extend(shard_batches);
                orphaned += shard_orphaned;
            }
            // Receivers partition across shards and each shard drains
            // in receiver order, so one sort by receiver reconstructs
            // the exact global order the single-shard drain produces.
            batches.sort_by_key(|b| b.receiver);
            (batches, orphaned)
        } else {
            Self::flush_shard(&mut self.shards[0], metric, policy, charging, &viewer_of)
        };
        // One flush cycle ends here: the driver spans fold the time the
        // disseminations attributed to stages 1–3 into one histogram
        // sample each (the shard spans did the same for stages 4–5).
        self.spans.end_flush();
        FlushOutcome { batches, orphaned }
    }

    /// Stages 4–5 over one shard. Touches nothing outside the shard, so
    /// concurrent calls on distinct shards are race-free by
    /// construction.
    fn flush_shard(
        shard: &mut Shard<K, U>,
        metric: Metric,
        policy: FlushPolicy,
        charging: bool,
        viewer_of: &(impl Fn(K) -> Option<Point> + Sync),
    ) -> (Vec<FlushBatch<K, U>>, u64) {
        let mut batches = Vec::new();
        let mut orphaned = 0u64;
        shard.spans.begin();
        for (receiver, queued) in shard.batcher.drain() {
            let Some(viewer) = viewer_of(receiver) else {
                orphaned += queued.len() as u64;
                shard.encoder.forget(receiver);
                // The prediction mirror dies with the stream: these
                // queued rebases never reached the receiver, so bases
                // recorded for them describe state nobody holds.
                shard.predicted.forget_receiver(receiver);
                // And so do its staleness charges: nobody is left to
                // deliver them to.
                if !shard.charges.is_empty() {
                    shard.charges.retain(|_, owed| {
                        owed.remove(&receiver);
                        !owed.is_empty()
                    });
                }
                continue;
            };
            // Traced items the policy is about to judge: remember each
            // one's identity and earliest vouched-for event time so a
            // drop can re-charge it below.
            let queued_len = queued.len();
            let queued_traced: Vec<(u64, u32, u64)> = if charging {
                queued
                    .iter()
                    .filter_map(|u| u.trace().map(|t| (u.entity(), t.seq, t.charge_origin_us())))
                    .collect()
            } else {
                Vec::new()
            };
            let selection = policy.select(
                viewer,
                metric,
                |u: &U| u.origin(),
                |u: &U| u.entity(),
                |u: &U| u.wire_bytes(),
                queued,
            );
            // When the policy kept everything verbatim (no cap, under
            // budget), every traced item survived by construction —
            // skip the survivor matching entirely.
            if charging
                && !queued_traced.is_empty()
                && (selection.dropped > 0 || selection.kept.len() != queued_len)
            {
                // A traced item the policy merged or dropped leaves the
                // same gap a suppression does: re-charge it so the next
                // delivered rebase of its entity carries the full age
                // (chained drops keep compounding via charge_origin).
                // One pass collects the surviving trace identities so
                // the per-item check is against the (tiny) traced
                // subset, not the whole kept list.
                let kept_traced: Vec<(u64, u32)> = selection
                    .kept
                    .iter()
                    .filter_map(|u| u.trace().map(|t| (u.entity(), t.seq)))
                    .collect();
                for (entity, seq, first_us) in queued_traced {
                    if !kept_traced.contains(&(entity, seq)) {
                        shard
                            .charges
                            .entry(entity)
                            .or_default()
                            .entry(receiver)
                            .and_modify(|t| *t = (*t).min(first_us))
                            .or_insert(first_us);
                    }
                }
            }
            shard.spans.lap(Stage::Policy);
            let kept_origins: Vec<Point> = selection.kept.iter().map(|u| u.origin()).collect();
            let origins = shard.encoder.encode_flush(receiver, &kept_origins);
            batches.push(FlushBatch {
                receiver,
                items: selection.kept,
                origins,
                rate_limited: selection.dropped as u64,
            });
            shard.spans.lap(Stage::Delta);
        }
        shard.spans.end_flush();
        (batches, orphaned)
    }

    // -- delta-stream bookkeeping --------------------------------------------

    /// Marks a receiver's delta stream dirty (next flush keyframes).
    pub fn reset_stream(&mut self, key: K) {
        let si = self.shard_ix(key);
        self.shards[si].encoder.reset(key);
    }

    /// Wipes every delta stream (driver shutdown, promotions).
    pub fn clear_streams(&mut self) {
        for shard in &mut self.shards {
            shard.encoder.clear();
        }
    }

    /// Number of receivers currently holding a delta base.
    pub fn streams(&self) -> usize {
        self.shards.iter().map(|s| s.encoder.streams()).sum()
    }

    /// Exports every delta stream as `(key, base, countdown)` in global
    /// key order (region snapshots) — canonical regardless of the shard
    /// count, so a standby with a different `flush_workers` imports the
    /// same bytes.
    pub fn export_streams(&self) -> Vec<(K, Point, u32)> {
        let mut out: Vec<(K, Point, u32)> = self
            .shards
            .iter()
            .flat_map(|s| s.encoder.export_streams())
            .collect();
        out.sort_by_key(|(k, _, _)| *k);
        out
    }

    /// Replaces the delta-stream table with exported state, re-routing
    /// each entry to its shard under the *local* shard count.
    pub fn import_streams(&mut self, streams: impl IntoIterator<Item = (K, Point, u32)>) {
        let mut per_shard: Vec<Vec<(K, Point, u32)>> = vec![Vec::new(); self.shards.len()];
        for entry in streams {
            per_shard[self.shard_ix(entry.0)].push(entry);
        }
        for (shard, entries) in self.shards.iter_mut().zip(per_shard) {
            shard.encoder.import_streams(entries);
        }
    }

    // -- prediction bases ----------------------------------------------------

    /// Exports every prediction basis as `(receiver, [(entity, basis)])`
    /// in global key order (region snapshots): what each receiver
    /// currently extrapolates each entity from.
    pub fn export_bases(&self) -> Vec<(K, Vec<(u64, Basis)>)> {
        let mut out: Vec<(K, Vec<(u64, Basis)>)> = self
            .shards
            .iter()
            .flat_map(|s| s.predicted.export())
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Replaces the prediction-basis table with exported state,
    /// re-routing each receiver to its shard under the *local* shard
    /// count. A promoted standby importing the primary's bases keeps
    /// suppressing consistently with what the receivers actually hold,
    /// instead of rebasing (and retransmitting) every entity at
    /// failover — even when its `flush_workers` differs from the
    /// primary's.
    pub fn import_bases(&mut self, bases: impl IntoIterator<Item = (K, Vec<(u64, Basis)>)>) {
        let mut per_shard = vec![Vec::new(); self.shards.len()];
        for entry in bases {
            per_shard[self.shard_ix(entry.0)].push(entry);
        }
        for (shard, entries) in self.shards.iter_mut().zip(per_shard) {
            shard.predicted.import(entries);
        }
    }

    /// Wipes every prediction basis and motion track (driver shutdown:
    /// reconnecting receivers start extrapolating from nothing).
    pub fn clear_bases(&mut self) {
        for shard in &mut self.shards {
            shard.predicted.clear();
        }
        self.motion.clear();
    }

    /// Number of receivers currently holding at least one prediction
    /// basis (observability for drivers and tests).
    pub fn prediction_receivers(&self) -> usize {
        self.shards.iter().map(|s| s.predicted.receivers()).sum()
    }

    // -- auto-tuning ---------------------------------------------------------

    /// Feeds the tuner one density observation; when it decides on a new
    /// resolution, the grid is rebuilt in place (subscribers, streams
    /// and pending batches all survive) and the new value returned.
    pub fn maybe_retune(&mut self) -> Option<u32> {
        let cells = self.tuner.observe(self.grid.len())?;
        let bounds = self.grid.bounds();
        let subscribers: Vec<(K, Point)> = self.grid.subscribers().collect();
        self.grid = Self::make_grid(bounds, cells);
        for (key, pos) in subscribers {
            self.grid.insert(key, pos);
        }
        Some(cells)
    }

    /// Exports the tuner state as `(cells, streak, pending)` (region
    /// snapshots).
    pub fn tuner_state(&self) -> (u32, u32, u32) {
        self.tuner.state()
    }

    /// Whether the auto-tuner is enabled.
    pub fn autotune_enabled(&self) -> bool {
        self.tuner.is_enabled()
    }

    /// Adopts a replicated tuner state (promotions), rebuilding the
    /// grid if the inherited resolution differs from the current one —
    /// a promoted standby starts with the primary's tuned grid instead
    /// of re-learning the density.
    pub fn restore_tuner(&mut self, cells: u32, streak: u32, pending: u32) {
        self.tuner.restore(cells, streak, pending);
        if self.tuner.current() != self.grid.cells_per_axis() {
            let bounds = self.grid.bounds();
            let subscribers: Vec<(K, Point)> = self.grid.subscribers().collect();
            self.grid = Self::make_grid(bounds, self.tuner.current());
            for (key, pos) in subscribers {
                self.grid.insert(key, pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal payload for the unit suite.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Ev {
        at: Point,
        entity: u64,
        bytes: usize,
        ring: u8,
    }

    impl Disseminated for Ev {
        fn origin(&self) -> Point {
            self.at
        }
        fn entity(&self) -> u64 {
            self.entity
        }
        fn wire_bytes(&self) -> usize {
            self.bytes
        }
        fn ring(&self) -> u8 {
            self.ring
        }
        fn strip_payload(&mut self) {
            self.bytes = 0;
        }
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            metric: Metric::Euclidean,
            origin_quantum: 0.0,
            telemetry: false,
            shards: 1,
            trace_charging: false,
        }
    }

    fn sharded(shards: u32) -> PipelineConfig {
        PipelineConfig { shards, ..cfg() }
    }

    /// Unit-suite knobs: a 16-cell grid, no per-flush caps, the given
    /// ring tiers.
    fn knobs(radii: &[f64], rates: &[u32]) -> DisseminationConfig {
        DisseminationConfig {
            cells_per_axis: 16,
            max_updates_per_flush: 0,
            ..DisseminationConfig::default()
        }
        .with_rings(radii, rates)
    }

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 400.0, 400.0)
    }

    fn pipe(knobs: DisseminationConfig) -> DisseminationPipeline<u32, Ev> {
        DisseminationPipeline::new(world(), knobs, cfg())
    }

    fn ev(at: Point, ring: u8) -> Ev {
        Ev {
            at,
            entity: 1,
            bytes: 8,
            ring,
        }
    }

    #[test]
    fn untiered_pipeline_delivers_to_everyone_in_radius() {
        let mut p = pipe(knobs(&[50.0], &[]));
        p.subscribe(1, Point::new(100.0, 100.0));
        p.subscribe(2, Point::new(130.0, 100.0));
        p.subscribe(3, Point::new(300.0, 300.0));
        let origin = Point::new(100.0, 100.0);
        let stats = p.disseminate(origin, origin, 1, 0.0, true, Some(1), true, |ring, _| {
            ev(origin, ring)
        });
        assert_eq!(stats.delivered, 1, "only subscriber 2 is in radius");
        assert_eq!(stats.sampled_out, 0);
        assert_eq!(stats.suppressed, 0);
        let out = p.flush(|_| Some(Point::new(130.0, 100.0)));
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].receiver, 2);
        assert_eq!(out.batches[0].items[0].ring, 0);
        assert!(out.batches[0].origins[0].is_keyframe());
    }

    #[test]
    fn outer_rings_sample_and_tag_items() {
        let rings = knobs(&[20.0, 100.0], &[1, 2]);
        let mut p = pipe(rings);
        p.subscribe(1, Point::new(100.0, 100.0)); // near
        p.subscribe(2, Point::new(180.0, 100.0)); // far ring, rate 2
        let origin = Point::new(100.0, 100.0);
        for _ in 0..4 {
            p.disseminate(origin, origin, 1, 0.0, true, None, true, |ring, _| {
                ev(origin, ring)
            });
        }
        let out = p.flush(|k| {
            Some(if k == 1 {
                Point::new(100.0, 100.0)
            } else {
                Point::new(180.0, 100.0)
            })
        });
        let near = out.batches.iter().find(|b| b.receiver == 1).unwrap();
        let far = out.batches.iter().find(|b| b.receiver == 2).unwrap();
        assert_eq!(near.items.len(), 4, "near ring gets every event");
        assert!(near.items.iter().all(|i| i.ring == 0));
        assert_eq!(near.origins.len(), 4);
        assert_eq!(far.items.len(), 2, "far ring at rate 2 gets half");
        assert!(far.items.iter().all(|i| i.ring == 1));
    }

    #[test]
    fn vanished_receivers_are_orphaned_not_flushed() {
        let mut p = pipe(knobs(&[50.0], &[]));
        p.subscribe(1, Point::new(100.0, 100.0));
        let origin = Point::new(110.0, 100.0);
        p.disseminate(origin, origin, 1, 0.0, true, None, true, |ring, _| {
            ev(origin, ring)
        });
        let out = p.flush(|_| None);
        assert!(out.batches.is_empty());
        assert_eq!(out.orphaned, 1);
        assert_eq!(p.streams(), 0, "orphaning clears the delta stream");
    }

    #[test]
    fn retune_preserves_subscribers_and_query_results() {
        let mut p = DisseminationPipeline::<u32, Ev>::new(
            world(),
            DisseminationConfig {
                cells_per_axis: 8,
                grid_autotune: true,
                ..knobs(&[50.0], &[])
            },
            cfg(),
        );
        for i in 0..2000u32 {
            p.subscribe(i, Point::new((i % 40) as f64 * 10.0, (i / 40) as f64 * 8.0));
        }
        // 2000 subscribers at 4/cell want ~22 → pow2 16; wait out the streak.
        let mut retuned = None;
        for _ in 0..AutoTuner::STREAK {
            retuned = p.maybe_retune();
        }
        assert_eq!(retuned, Some(16));
        assert_eq!(p.cells_per_axis(), 16);
        assert_eq!(p.grid().len(), 2000, "rebuild keeps every subscriber");
        let at = Point::new(100.0, 100.0);
        let stats = p.disseminate(at, at, 1, 0.0, true, None, false, |ring, _| ev(at, ring));
        assert!(stats.delivered > 0);
    }

    #[test]
    fn tuner_state_round_trips_through_restore() {
        let p = DisseminationPipeline::<u32, Ev>::new(
            world(),
            DisseminationConfig {
                cells_per_axis: 64,
                grid_autotune: true,
                ..knobs(&[50.0], &[])
            },
            cfg(),
        );
        let (cells, streak, pending) = p.tuner_state();
        let mut q = DisseminationPipeline::<u32, Ev>::new(
            world(),
            DisseminationConfig {
                cells_per_axis: 8,
                grid_autotune: true,
                ..knobs(&[50.0], &[])
            },
            cfg(),
        );
        q.subscribe(1, Point::new(10.0, 10.0));
        q.restore_tuner(cells, streak, pending);
        assert_eq!(q.cells_per_axis(), 64, "promoted grid inherits the tuning");
        assert_eq!(q.grid().len(), 1);
    }

    /// A predicting pipeline over one far-ring receiver watching entity
    /// 9 move linearly at 10 u/s (events every 100 ms).
    fn predicting_pipe(budget: f64) -> DisseminationPipeline<u32, Ev> {
        let rings = knobs(&[20.0, 200.0], &[1, 1]);
        let mut p: DisseminationPipeline<u32, Ev> =
            DisseminationPipeline::new(world(), rings.with_predict(&[0.0, budget]), cfg());
        p.subscribe(1, Point::new(100.0, 300.0)); // far ring from the track below
        p
    }

    fn drive_linear(p: &mut DisseminationPipeline<u32, Ev>, steps: u32) -> DisseminateStats {
        let mut total = DisseminateStats::default();
        for i in 0..steps {
            let at = Point::new(100.0 + i as f64, 200.0);
            let s = p.disseminate(at, at, 9, i as f64 * 0.1, true, None, true, |ring, _| {
                ev(at, ring)
            });
            total.delivered += s.delivered;
            total.suppressed += s.suppressed;
            total.pred_error_max = total.pred_error_max.max(s.pred_error_max);
        }
        total
    }

    #[test]
    fn linear_motion_is_suppressed_within_budget() {
        let mut p = predicting_pipe(2.0);
        let stats = drive_linear(&mut p, 20);
        // The first two events establish the basis and the velocity
        // estimate; once the secant locks on, the extrapolation is exact
        // and everything else is suppressed.
        assert!(
            stats.suppressed >= 16,
            "linear motion must be suppressed: {stats:?}"
        );
        assert!(stats.pred_error_max <= 2.0, "{stats:?}");
        assert!(p.prediction_receivers() > 0);
        // Only the transmitted events were queued.
        let out = p.flush(|_| Some(Point::new(100.0, 300.0)));
        assert_eq!(out.batches[0].items.len() as u64, stats.delivered);
    }

    #[test]
    fn prediction_off_or_zero_budget_delivers_everything() {
        // Budget 0 on every ring: nothing suppressed even with predict on.
        let mut p = predicting_pipe(0.0);
        let stats = drive_linear(&mut p, 10);
        assert_eq!(stats.suppressed, 0);
        assert_eq!(stats.delivered, 10);
        // Predict off entirely: identical delivery, no bases kept.
        let rings = knobs(&[20.0, 200.0], &[1, 1]);
        let mut q: DisseminationPipeline<u32, Ev> =
            DisseminationPipeline::new(world(), rings, cfg());
        q.subscribe(1, Point::new(100.0, 300.0));
        let stats = drive_linear(&mut q, 10);
        assert_eq!(stats.suppressed, 0);
        assert_eq!(q.prediction_receivers(), 0);
    }

    #[test]
    fn near_ring_budget_is_pinned_to_zero() {
        // A (misconfigured) near budget must be ignored.
        let rings = knobs(&[50.0, 200.0], &[1, 1]).with_predict(&[100.0, 100.0]);
        let mut p: DisseminationPipeline<u32, Ev> =
            DisseminationPipeline::new(world(), rings, cfg());
        p.subscribe(1, Point::new(110.0, 200.0)); // near ring
        let stats = drive_linear(&mut p, 10);
        assert_eq!(stats.suppressed, 0, "near means every event");
        assert_eq!(stats.delivered, 10);
    }

    #[test]
    fn rejoin_resets_the_receivers_prediction_bases() {
        let mut p = predicting_pipe(2.0);
        drive_linear(&mut p, 10);
        assert!(p.prediction_receivers() > 0);
        p.subscribe(1, Point::new(100.0, 300.0)); // rejoin
        assert_eq!(
            p.prediction_receivers(),
            0,
            "a fresh connection extrapolates from nothing"
        );
        // The next event transmits (no basis to suppress against).
        let at = Point::new(120.0, 200.0);
        let s = p.disseminate(at, at, 9, 2.0, true, None, true, |ring, _| ev(at, ring));
        assert_eq!(s.delivered, 1);
        assert_eq!(s.suppressed, 0);
    }

    #[test]
    fn exported_bases_reproduce_suppression_on_import() {
        let mut p = predicting_pipe(2.0);
        drive_linear(&mut p, 10);
        let mut q = predicting_pipe(2.0);
        q.import_bases(p.export_bases());
        // Both pipelines make the same decision on the same next event —
        // but q's motion model is cold, so feed both the same history
        // first via the bases alone: the decision is basis-driven.
        let at = Point::new(110.0, 200.0);
        let sp = p.disseminate(at, at, 9, 1.0, true, None, false, |ring, _| ev(at, ring));
        let sq = q.disseminate(at, at, 9, 1.0, true, None, false, |ring, _| ev(at, ring));
        assert_eq!(sp.suppressed, sq.suppressed);
        assert_eq!(sp.delivered, sq.delivered);
        assert_eq!(p.export_bases(), q.export_bases());
    }

    #[test]
    fn outer_ring_items_ship_position_only() {
        let rings = knobs(&[20.0, 100.0], &[1, 1]);
        let mut p: DisseminationPipeline<u32, Ev> = DisseminationPipeline::new(
            world(),
            DisseminationConfig {
                position_only_ring: 1,
                ..rings
            },
            cfg(),
        );
        p.subscribe(1, Point::new(100.0, 100.0)); // near
        p.subscribe(2, Point::new(180.0, 100.0)); // far
        let origin = Point::new(100.0, 100.0);
        let stats = p.disseminate(origin, origin, 9, 0.0, true, None, true, |ring, _| {
            ev(origin, ring)
        });
        assert_eq!(stats.stripped, 1, "only the far item degrades");
        let out = p.flush(|k| {
            Some(if k == 1 {
                Point::new(100.0, 100.0)
            } else {
                Point::new(180.0, 100.0)
            })
        });
        let near = out.batches.iter().find(|b| b.receiver == 1).unwrap();
        let far = out.batches.iter().find(|b| b.receiver == 2).unwrap();
        assert_eq!(near.items[0].bytes, 8, "near ships the full payload");
        assert_eq!(far.items[0].bytes, 0, "far ships position-only");
    }

    // -- sharding ------------------------------------------------------------

    /// Drives a moderately messy workload — joins, moves, tiered
    /// disseminations, an unsubscribe, a vanished receiver — and
    /// returns every flush outcome.
    fn drive_workload(p: &mut DisseminationPipeline<u32, Ev>) -> Vec<FlushOutcome<u32, Ev>> {
        let mut rng: u64 = 0x5eed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for k in 0..40u32 {
            let x = (next() % 400) as f64;
            let y = (next() % 400) as f64;
            p.subscribe(k, Point::new(x, y));
        }
        let mut outs = Vec::new();
        for round in 0..6u32 {
            for i in 0..25u32 {
                let at = Point::new((next() % 400) as f64, (next() % 400) as f64);
                let entity = next() % 8 + 1;
                let t = (round * 25 + i) as f64 * 0.05;
                p.disseminate(
                    at,
                    at,
                    entity,
                    t,
                    i % 3 != 0,
                    Some(i % 40),
                    true,
                    |ring, _| Ev {
                        at,
                        entity,
                        bytes: 8 + (entity as usize % 4) * 16,
                        ring,
                    },
                );
            }
            if round == 2 {
                p.unsubscribe(7);
            }
            let gone = 5 + round; // receiver vanished between enqueue and flush
            outs.push(p.flush(move |k| {
                if k == gone {
                    None
                } else {
                    Some(Point::new((k % 20) as f64 * 20.0, (k / 20) as f64 * 20.0))
                }
            }));
        }
        outs
    }

    #[test]
    fn flush_output_is_byte_identical_for_any_shard_count() {
        let rings = knobs(&[40.0, 90.0, 150.0], &[1, 2, 4]);
        let knobs = DisseminationConfig {
            max_updates_per_flush: 6,
            client_budget_bytes: 200,
            position_only_ring: 2,
            ..rings.with_predict(&[0.0, 1.5, 3.0])
        };
        let make =
            |shards: u32| DisseminationPipeline::<u32, Ev>::new(world(), knobs, sharded(shards));
        let mut reference = make(1);
        let baseline = drive_workload(&mut reference);
        for shards in 2..=8u32 {
            let mut p = make(shards);
            assert_eq!(p.shard_count(), shards as usize);
            let outs = drive_workload(&mut p);
            assert_eq!(
                outs, baseline,
                "{shards}-shard flush output diverged from the sequential path"
            );
        }
    }

    #[test]
    fn exports_reroute_across_differing_shard_counts() {
        let rings = knobs(&[20.0, 200.0], &[1, 1]);
        let make = |shards: u32| {
            DisseminationPipeline::<u32, Ev>::new(
                world(),
                rings.with_predict(&[0.0, 2.0]),
                sharded(shards),
            )
        };
        let mut primary = make(4);
        for k in 0..12u32 {
            primary.subscribe(k, Point::new(100.0 + k as f64 * 5.0, 300.0));
        }
        for i in 0..10u32 {
            let at = Point::new(100.0 + i as f64, 200.0);
            primary.disseminate(at, at, 9, i as f64 * 0.1, true, None, true, |ring, _| {
                ev(at, ring)
            });
        }
        primary.flush(|_| Some(Point::new(100.0, 300.0)));
        // Promote onto a standby running a different worker count (the
        // gameserver restore flow: re-anchor the grid, then import).
        let mut standby = make(2);
        let subs: Vec<(u32, Point)> = primary.grid().subscribers().collect();
        standby.reset(world(), 0.0, subs);
        standby.import_streams(primary.export_streams());
        standby.import_bases(primary.export_bases());
        assert_eq!(standby.streams(), primary.streams());
        assert_eq!(standby.export_streams(), primary.export_streams());
        assert_eq!(standby.export_bases(), primary.export_bases());
        // Both make identical decisions on the next event and encode the
        // next flush identically.
        let at = Point::new(111.0, 200.0);
        let sp = primary.disseminate(at, at, 9, 1.1, true, None, true, |ring, _| ev(at, ring));
        let sq = standby.disseminate(at, at, 9, 1.1, true, None, true, |ring, _| ev(at, ring));
        assert_eq!(sp, sq);
        let fp = primary.flush(|_| Some(Point::new(100.0, 300.0)));
        let fq = standby.flush(|_| Some(Point::new(100.0, 300.0)));
        assert_eq!(fp, fq);
    }

    #[test]
    fn stage_histograms_merge_across_shards() {
        let rings = knobs(&[150.0], &[]);
        let mut p = DisseminationPipeline::<u32, Ev>::new(
            world(),
            rings,
            PipelineConfig {
                telemetry: true,
                ..sharded(4)
            },
        );
        for k in 0..16u32 {
            p.subscribe(k, Point::new(100.0 + k as f64, 100.0));
        }
        let origin = Point::new(100.0, 100.0);
        for _ in 0..3 {
            p.disseminate(origin, origin, 1, 0.0, true, None, true, |ring, _| {
                ev(origin, ring)
            });
            p.flush(|_| Some(origin));
        }
        // Driver-thread stages: one sample per flush.
        assert_eq!(p.stage_histogram(Stage::Query).count(), 3);
        assert_eq!(p.stage_histogram(Stage::Tier).count(), 3);
        assert_eq!(p.stage_histogram(Stage::Predict).count(), 3);
        // Sharded stages: one sample per shard per flush.
        assert_eq!(p.stage_histogram(Stage::Policy).count(), 12);
        assert_eq!(p.stage_histogram(Stage::Delta).count(), 12);
        assert_eq!(p.shard_stage_sums(Stage::Delta).len(), 4);
        assert_eq!(p.shard_stage_sums(Stage::Query).len(), 1);
    }

    // -- trace charging ------------------------------------------------------

    use matrix_telemetry::TraceTag;

    /// A traced payload for the charging tests.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Tr {
        at: Point,
        entity: u64,
        tag: Option<TraceTag>,
    }

    impl Disseminated for Tr {
        fn origin(&self) -> Point {
            self.at
        }
        fn entity(&self) -> u64 {
            self.entity
        }
        fn wire_bytes(&self) -> usize {
            8
        }
        fn trace(&self) -> Option<TraceTag> {
            self.tag
        }
        fn trace_charge(&mut self, age_us: u64) {
            if let Some(tag) = &mut self.tag {
                tag.charge(age_us);
            }
        }
    }

    fn charging() -> PipelineConfig {
        PipelineConfig {
            trace_charging: true,
            ..cfg()
        }
    }

    #[test]
    fn suppressed_events_charge_the_next_delivered_rebase() {
        let rings = knobs(&[20.0, 200.0], &[1, 1]);
        let mut p: DisseminationPipeline<u32, Tr> =
            DisseminationPipeline::new(world(), rings.with_predict(&[0.0, 2.0]), charging());
        p.subscribe(1, Point::new(100.0, 300.0)); // far ring
        let mut first_gap_us: Option<u64> = None;
        let mut expected: Vec<(u32, u64)> = Vec::new(); // (seq, stale_us)
        for i in 0..20u32 {
            let at = Point::new(100.0 + i as f64, 200.0);
            let ingest_us = i as u64 * 100_000;
            let tag = TraceTag::new(7, i, ingest_us);
            let s = p.disseminate(at, at, 9, i as f64 * 0.1, true, None, true, |_, _| Tr {
                at,
                entity: 9,
                tag: Some(tag),
            });
            if s.suppressed > 0 {
                first_gap_us.get_or_insert(ingest_us);
            } else {
                assert_eq!(s.delivered, 1);
                let stale = first_gap_us
                    .take()
                    .map_or(0, |gap| ingest_us.saturating_sub(gap));
                expected.push((i, stale));
            }
        }
        assert!(
            expected.iter().any(|&(_, stale)| stale > 0),
            "the drive must produce at least one charged rebase: {expected:?}"
        );
        let out = p.flush(|_| Some(Point::new(100.0, 300.0)));
        let items = &out.batches[0].items;
        assert_eq!(items.len(), expected.len());
        for (item, (seq, stale)) in items.iter().zip(expected) {
            let tag = item.tag.expect("every delivered item stays traced");
            assert_eq!(tag.seq, seq);
            assert_eq!(
                tag.stale_us, stale,
                "seq {seq} must carry the suppressed gap's age"
            );
        }
    }

    #[test]
    fn policy_dropped_traces_recharge_a_later_flush() {
        let mut p: DisseminationPipeline<u32, Tr> = DisseminationPipeline::new(
            world(),
            DisseminationConfig {
                max_updates_per_flush: 1,
                client_budget_bytes: 0,
                ..knobs(&[150.0], &[])
            },
            charging(),
        );
        p.subscribe(1, Point::new(100.0, 100.0));
        let send = |p: &mut DisseminationPipeline<u32, Tr>, entity, x, seq, ingest_us| {
            let at = Point::new(x, 100.0);
            p.disseminate(
                at,
                at,
                entity,
                ingest_us as f64 / 1e6,
                true,
                None,
                true,
                |_, _| Tr {
                    at,
                    entity,
                    tag: Some(TraceTag::new(7, seq, ingest_us)),
                },
            );
        };
        // Entity 8 queues first but sits farther from the viewer than
        // entity 9, so the 1-item budget drops it.
        send(&mut p, 8, 120.0, 0, 0);
        send(&mut p, 9, 105.0, 1, 100_000);
        let out = p.flush(|_| Some(Point::new(100.0, 100.0)));
        assert_eq!(out.batches[0].items.len(), 1);
        assert_eq!(out.batches[0].items[0].entity, 9);
        assert_eq!(out.batches[0].rate_limited, 1);
        // The next rebase of entity 8 carries the dropped event's age.
        send(&mut p, 8, 121.0, 2, 300_000);
        let out = p.flush(|_| Some(Point::new(100.0, 100.0)));
        let tag = out.batches[0].items[0].tag.unwrap();
        assert_eq!(tag.seq, 2);
        assert_eq!(tag.stale_us, 300_000, "charged from the dropped seq 0");
        assert_eq!(tag.staleness_us(450_000), 150_000 + 300_000);
    }
}
