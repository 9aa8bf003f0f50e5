//! Marker-trait stand-in for the `serde` facade, for offline builds.
//!
//! The workspace builds with no network access, so the real serde cannot
//! be fetched. Runtime serialisation goes through the hand-written wire
//! protocol v2 in `matrix_core::codec_v2`; the `#[derive(Serialize, Deserialize)]`
//! annotations across the workspace are kept as documentation of which
//! types form the wire surface, and so the real serde can be dropped back
//! in later. Here the traits are blanket-implemented markers and the
//! derives (from the sibling `serde_derive` shim) expand to nothing.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`; blanket-implemented.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`; blanket-implemented.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}
