//! Offline stand-in for `serde_derive`.
//!
//! The repository derives `Serialize`/`Deserialize` on many types but
//! contains no serializer, so the derives only need to parse: each
//! expands to nothing and accepts `#[serde(...)]` attributes.

use proc_macro::TokenStream;

/// Accepts the input and emits no code.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts the input and emits no code.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
