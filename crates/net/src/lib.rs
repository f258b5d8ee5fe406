//! Network substrate for the DHARMA overlay.
//!
//! The paper deploys DHARMA on Likir/Kademlia over UDP. For reproducible
//! experiments this crate provides a **deterministic discrete-event
//! simulator** ([`sim::SimNet`]): virtual microsecond clock, a seeded event
//! queue, configurable per-message latency and loss — either the classic
//! global-uniform delay range or the geo-clustered **per-link topology
//! model** of [`topology::TopologyConfig`] (seeded cluster assignment,
//! deterministic per-pair base delays, per-datagram jitter, per-link loss)
//! — and, crucially for the paper's index-side-filtering argument (§V-A),
//! **UDP MTU enforcement**: a message whose encoded payload exceeds the MTU
//! is rejected at send time, exactly like an oversized datagram.
//!
//! Protocol logic is written once against the [`node::Node`] state-machine
//! trait (messages + timers + operation completions) and can then run
//! unchanged on:
//!
//! * [`sim::SimNet`] — the DES (all experiments run here);
//! * [`udp::UdpWorker`] — real UDP sockets, several nodes per
//!   shared-nothing worker thread (`dharma-bench`'s `udp_search`
//!   workload), and [`udp::UdpRuntime`], its one-node wrapper (the
//!   `udp_overlay` example), demonstrating that the protocol stack is not
//!   simulation-bound.
//!
//! [`sys`] holds the batched `sendmmsg`/`recvmmsg` socket layer under
//! both, and [`topology`] the per-link delay model. All counters live in
//! [`counters::NetCounters`], which Table I reads to verify lookup costs.

#![warn(missing_docs)]

pub mod counters;
pub mod node;
pub mod sim;
pub mod sys;
pub mod topology;
pub mod udp;

pub use counters::NetCounters;
pub use node::{Ctx, Instrumented, Metric, Node, NodeAddr, OutMessage};
pub use sim::{SimConfig, SimNet};
pub use topology::TopologyConfig;
