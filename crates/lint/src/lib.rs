//! `dharma-lint` — the workspace static-analysis pass that enforces the
//! DHARMA determinism contract and unsafe-FFI hygiene.
//!
//! The sharded `SimNet` engine promises bit-reproducible results,
//! invariant across shard and thread counts (see
//! `DESIGN.md`, "Sharded-engine determinism contract"). That promise is a
//! *global* property: one stray wall-clock read, ambient RNG draw, or
//! hash-order-dependent loop anywhere in a simulated component silently
//! breaks it — the worst kind of bug, because every individual run still
//! looks fine. Likewise, the hot-path libc FFI (`net::sys`) and the
//! scoped-spawn pool (`dharma-par`) carry `unsafe` whose soundness
//! arguments must stay written down next to the code.
//!
//! This crate closes both gaps mechanically. It is a dependency-free,
//! token-level scanner (see [`lexer`]) with a small rule engine (see
//! [`rules`] for the rule table D1–D5 and pragma syntax) and a workspace
//! walker (see [`walk`]). The `dharma-lint` binary runs it over the
//! repository and exits non-zero on any unsuppressed violation; CI runs
//! it in the `lint` job, and the `workspace_clean` integration test runs
//! it under plain `cargo test` too.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::{lint_source, Violation, DETERMINISTIC_CRATES, RULES, UNSAFE_ALLOWED};
pub use walk::{lint_workspace, workspace_root};
