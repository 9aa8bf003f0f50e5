//! Interest management for the Matrix middleware.
//!
//! Matrix routes spatially tagged packets *between* servers through
//! overlap tables (§3.2.4 of the paper), but within one game server every
//! event still has to reach the co-located clients that can see it. The
//! seed implementation did that with a linear scan over all clients —
//! O(clients) per event, O(clients²) per tick at exactly the hotspots
//! that trigger splits. This crate provides the standard cure from the
//! event-dissemination literature (D'Angelo et al., *Adaptive Event
//! Dissemination for P2P MMOGs*): relevance filtering through a spatial
//! index plus per-receiver batching.
//!
//! * [`InterestGrid`] — an incremental spatial-hash grid over client
//!   positions. Updated on every move (O(1) amortised), it answers
//!   "who can see a point" in O(cells touched + matches) instead of
//!   O(clients). Optional hysteresis keeps clients that jitter on a cell
//!   boundary from churning between buckets.
//! * [`UpdateBatcher`] — a coalescing layer that accumulates per-client
//!   updates and flushes them in batches on an interval, cutting
//!   per-message overhead and giving the transport large writes.
//! * [`FlushPolicy`] — priority-aware rate limiting applied at every
//!   flush: items are ranked by relevance (distance to the receiving
//!   client), duplicate origins are merged, and the farthest items are
//!   dropped first until the per-client count/byte budgets fit, so slow
//!   or crowded clients degrade gracefully instead of queueing
//!   unboundedly.
//! * [`DeltaEncoder`] / [`DeltaStream`] — per-client delta compression
//!   of update origins: each item is encoded as an offset from the
//!   previous one, with periodic and threshold-triggered absolute
//!   keyframes plus a resync path for joins and handovers. Offsets are
//!   only used when reconstruction is bit-exact, so the decoded stream
//!   always equals what an absolute-only encoder would have sent.
//! * [`RingSet`] / [`RingSampler`] — multi-tier areas of interest:
//!   concentric vision rings with per-ring sampling rates (near = every
//!   event, far = a deterministic sample), replacing the single binary
//!   vision radius.
//! * [`AutoTuner`] — density-driven grid resolution: re-picks
//!   `cells_per_axis` from the observed subscriber count with ratio
//!   hysteresis and streak guards, instead of trusting a static knob.
//! * **Dead reckoning** (via [`matrix_predict`]) — a sender-side
//!   [`MotionModel`] estimates per-entity velocity, a
//!   [`PredictedStream`] simulates each receiver's extrapolation and
//!   suppresses events while the predicted error stays within the
//!   ring's budget ([`DisseminationConfig::error_budgets`]), and the receiver-side
//!   [`Extrapolator`] advances entities between updates.
//! * [`DisseminationPipeline`] — the composed send path with one seam
//!   per stage: interest query → ring tiering → prediction →
//!   entity merge → budget/relevance policy → delta encoding. Both
//!   drivers (the discrete-event harness and the async runtime) flush
//!   through it.
//! * [`DisseminationConfig`] — every per-game dissemination knob in one
//!   `Copy` struct, embedded by value in the game-server config and the
//!   game specs and read directly by the pipeline.
//!
//! All of it is deliberately independent of the middleware's message
//! types: the grid is generic over the subscriber key, the batcher and
//! policy over the update payload, the pipeline over anything
//! implementing [`Disseminated`], and the delta codec speaks raw
//! [`Point`](matrix_geometry::Point)s — so the discrete-event harness,
//! the async runtime, the property suites and the benchmarks all drive
//! the same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod config;
mod delta;
mod grid;
mod pipeline;
mod policy;
mod rings;
mod shard;
mod tuner;

pub use batch::UpdateBatcher;
pub use config::DisseminationConfig;
pub use delta::{quantize, DeltaEncoder, DeltaStream, EncodedOrigin};
pub use grid::InterestGrid;
pub use matrix_predict::{
    extrapolate, quantize_velocity, Admission, Basis, Extrapolator, MotionModel, PredictedStream,
};
pub use pipeline::{
    DisseminateStats, Disseminated, DisseminationPipeline, FlushBatch, FlushOutcome, PipelineConfig,
};
pub use policy::{FlushPolicy, Selection, ANON_ENTITY};
pub use rings::{RingSampler, RingSet, MAX_RINGS};
pub use shard::{shard_of, ShardKey};
pub use tuner::AutoTuner;
