//! A from-scratch Kademlia DHT (Maymounkov & Mazières, 2002) with the two
//! extensions DHARMA's block mapping needs (paper §IV-A).
//!
//! Standard Kademlia machinery:
//!
//! * 160-bit node ids and keys under the XOR metric ([`dharma_types::Id160`]);
//! * a routing table of `k`-buckets with least-recently-seen ordering and a
//!   replacement cache ([`routing`]);
//! * the four RPCs `PING`, `STORE`, `FIND_NODE`, `FIND_VALUE` ([`messages`]);
//! * iterative, `α`-parallel lookups with per-RPC timeouts ([`lookup`]);
//! * replication of values on the `k` closest nodes to the key.
//!
//! DHARMA extensions:
//!
//! * **`APPEND`** — adds one-bit tokens to a named entry of a *weighted-set*
//!   value. Appends commute, which is precisely why Approximation B makes
//!   concurrent tagging race-free (§IV-B): the paper's "block structure is
//!   modified only by the addition of one-bit tokens".
//! * **filtered `GET`** — `FIND_VALUE` carrying a `top_n` limit: the storing
//!   node answers with only the `top_n` heaviest entries that fit in one UDP
//!   payload (index-side filtering, §V-A).
//!
//! The node logic ([`node::KademliaNode`]) is a [`dharma_net::Node`] state
//! machine, so it runs identically on the discrete-event simulator and on
//! real UDP sockets. It is a small core — one way to send an RPC, to apply
//! a write, to run a lookup — plus one file per optional layer (hot-block
//! cache, version gossip, churn maintenance, latency awareness); the
//! [`node`] module docs are the map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lookup;
pub mod messages;
pub mod node;
pub mod routing;
pub mod rtt;
pub mod storage;

pub use messages::{Contact, DigestEntry, Message, StoredEntry, ValueView};
pub use node::{AdaptConfig, KadConfig, KadOutput, KademliaNode, MaintConfig, MaintConfigBuilder};
pub use routing::{KBucket, NoteOutcome, RoutingTable};
pub use rtt::{AlphaController, LatencyConfig, LatencyConfigBuilder, RttBook};
pub use storage::Storage;
