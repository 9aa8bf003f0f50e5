//! No-op `serde_derive` stand-in for offline builds.
//!
//! This workspace builds in environments with no network access and no
//! crates.io mirror, so the real `serde` cannot be fetched. The project
//! never serialises through serde at runtime (the wire codec in
//! `matrix_core::codec_v2` is hand-written), but the sources keep the
//! idiomatic `#[derive(Serialize, Deserialize)]` annotations so they can
//! be switched to the real serde by swapping this shim out of the
//! workspace. The derives therefore expand to nothing; the sibling
//! `serde` shim provides blanket marker impls.

use proc_macro::TokenStream;

/// Accepts and discards a `#[derive(Serialize)]` request.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts and discards a `#[derive(Deserialize)]` request.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
