//! Cross-crate integration tests and example applications. The sources
//! live in the top-level `tests/` and `examples/` directories (see
//! Cargo.toml `[[test]]` and `[[example]]`).

#![forbid(unsafe_code)]
