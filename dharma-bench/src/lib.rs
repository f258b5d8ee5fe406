//! `dharma-bench`: the end-to-end tagging benchmark of the DHARMA
//! reproduction, and its per-layer cost ledger.
//!
//! The benchmark generates seeded Last.fm-shaped inputs, drives the
//! paper's operations — insert resource, tag, faceted-search step
//! (Table I) — end to end over the simulated overlay and over real
//! loopback sockets, checks the outputs, and prints every metric by name
//! with its unit. It measures every layer **from outside**, by timing
//! calls into public functions, and owns its drivers, its overlay
//! construction and every configuration value, so that a change to the
//! program cannot change what is measured.
//!
//! * [`inputs`] — datasets, bulk-load blocks and operation streams from
//!   the seed;
//! * [`overlay`] — the overlays and their literal configurations;
//! * [`client_driver`] — driver (a): `DharmaClient` / `DhtFacetedSearch`,
//!   blocking and closed-loop;
//! * [`script`] — driver (b): the script executor over `SimNet` and
//!   `UdpWorker`;
//! * [`traced`] — the tracing node wrapper and span buffer;
//! * [`ledger`] — layer probes and the cost ledger;
//! * [`workloads`] — `tag_plain`, `search_plain`, `mixed_full`,
//!   `udp_search`;
//! * [`calib`] — host-speed calibration of every timed figure;
//! * [`spec`], [`report`], [`stats`], [`json`], [`check`] — the metric
//!   vocabulary, output, statistics, and the A/A gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod check;
pub mod client_driver;
pub mod inputs;
pub mod json;
pub mod ledger;
pub mod overlay;
pub mod report;
pub mod script;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workloads;
