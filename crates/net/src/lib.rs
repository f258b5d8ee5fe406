//! Network substrate for the DHARMA overlay.
//!
//! The paper deploys DHARMA on Likir/Kademlia over UDP. For reproducible
//! experiments this crate provides a **deterministic discrete-event
//! simulator** ([`sim::SimNet`]): virtual microsecond clock, a seeded event
//! queue, and one per-link delay/loss model, the geo-clustered
//! [`topology::TopologyConfig`] (seeded cluster assignment, deterministic
//! per-pair base delays, per-datagram jitter, per-link loss). The paper's
//! plain overlay — one uniform delay range and loss rate — is its
//! one-cluster case, [`TopologyConfig::uniform`], which
//! [`SimConfig`]'s `latency_min_us` / `latency_max_us` / `drop_rate` are
//! shorthand for. Crucially for the paper's index-side-filtering argument
//! (§V-A), the simulator enforces the **UDP MTU**: a message whose encoded
//! payload exceeds the MTU is rejected at send time, exactly like an
//! oversized datagram.
//!
//! Protocol logic is written once against the [`node::Node`] state-machine
//! trait (messages + timers + operation completions) and can then run
//! unchanged on:
//!
//! * [`sim::SimNet`] — the DES (all experiments run here);
//! * [`udp::UdpWorker`] — real UDP sockets, one or more nodes per
//!   shared-nothing worker thread (`dharma-bench`'s `udp_search` workload
//!   and the `udp_overlay` example), demonstrating that the protocol stack
//!   is not simulation-bound.
//!
//! [`sys`] holds the `std::net` socket layer under [`udp`]. All counters
//! live in [`counters::NetCounters`], one [`Counter`] each, which Table I
//! reads to verify lookup costs.

#![warn(missing_docs)]

pub mod counters;
pub mod node;
pub mod sim;
pub mod sys;
pub mod topology;
pub mod udp;

pub use counters::{Counter, NetCounters};
pub use node::{Ctx, Instrumented, Metric, Node, NodeAddr, OutMessage};
pub use sim::{SimConfig, SimNet};
pub use topology::TopologyConfig;
