//! Shared primitives for the DHARMA stack.
//!
//! This crate contains the foundation every other crate builds on:
//!
//! * [`Id160`] — the 160-bit identifier used for overlay node ids and storage
//!   keys, with the XOR metric of Kademlia (Maymounkov & Mazières, 2002).
//! * [`sha1()`] — a from-scratch SHA-1 implementation (FIPS 180-1). Kademlia and
//!   the paper's block-key scheme (`H(name ‖ type)`) are defined over a
//!   160-bit hash, and SHA-1 is the hash the original systems used.
//! * [`hmac`] — HMAC-SHA1, used by the Likir-style identity layer
//!   (`dharma-likir`) to sign RPC envelopes and content records.
//! * [`wire`] — a small, explicit binary codec over [`bytes`], used for every
//!   overlay message so that UDP payload sizes can be accounted for exactly.
//! * [`BlockType`] / [`block_key`] — the DHARMA keyspace mapping of paper
//!   §IV-A: four block types (`r̄`, `t̄`, `t̂`, `r̃`) keyed by
//!   `H(name ‖ type-label)`.
//! * [`config!`] — the table each layer config and its range-validated
//!   builder are declared in.
//!
//! Everything here is dependency-light and deterministic; randomness is only
//! ever drawn from caller-provided [`rand::Rng`] instances so that whole-system
//! simulations are reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod error;
pub mod fx;
pub mod hex;
pub mod hmac;
pub mod id;
pub mod intern;
pub mod keys;
pub mod sha1;
pub mod stamp;
pub mod wire;

pub use error::{DharmaError, Result};
pub use fx::{FxHashMap, FxHashSet};
pub use id::{Distance, Id160, ID160_BITS, ID160_BYTES};
pub use intern::{NameInterner, Sym};
pub use keys::{block_key, node_id_for_user, BlockType};
pub use sha1::{sha1, Sha1};
pub use stamp::VersionStamp;
pub use wire::{ReadBytes, WireDecode, WireEncode, WriteBytes};
