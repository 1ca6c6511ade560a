//! `iotbench` — one end-to-end + per-layer benchmark for the
//! driver → socket → cluster → LSM path, measured from outside the
//! product crates. See `README.md`; `main.rs` is the command line.

pub mod json;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod results;
pub mod stats;
pub mod trace;
pub mod workloads;
