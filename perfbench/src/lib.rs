//! The repository's end-to-end benchmark.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <name> --seed <n> --seconds <n> --trace <0|1>` builds the
//! release `clockless` binary, drives it from outside over one seeded
//! workload, checks every response, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of an in-process traced
//! replay (`--trace 1`). `perfbench/README.md` documents the workloads
//! and metrics.

pub mod calib;
pub mod drive;
pub mod metrics;
pub mod program;
pub mod reference;
pub mod replay;
pub mod rng;
pub mod run;
pub mod table;
pub mod trace;
pub mod workload;
