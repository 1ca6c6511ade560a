//! `ycsb` — a from-scratch Rust port of the Yahoo! Cloud Serving Benchmark
//! core framework.
//!
//! TPCx-IoT is specified as an extension of YCSB (the paper, §III-C: *"The
//! TPCx-IoT workload generator is based on the Yahoo! Cloud Serving
//! Benchmark framework"*), so this crate reproduces the abstractions the
//! official kit extends:
//!
//! * [`generator`] — the request-distribution generators workloads A–F
//!   draw from (uniform, zipfian, scrambled zipfian, latest, counter,
//!   discrete),
//! * [`store`] — the database interface layer ([`store::KvStore`]): the
//!   five YCSB operations against any backend,
//! * [`workload`] — the classic core workload (generates `user###` records
//!   with `fieldN` columns and mixes reads/updates/inserts/scans/RMW per
//!   configured proportions; presets A–F),
//! * [`measurement`] — per-operation latency histograms and throughput,
//! * [`runner`] — a multi-threaded closed-loop client with an optional
//!   target throughput.
//!
//! The TPCx-IoT driver in the `tpcx-iot` crate plugs its sensor workload
//! into these same abstractions.

pub mod generator;
pub mod measurement;
pub mod runner;
pub mod store;
pub mod workload;

pub use measurement::{Measurements, OpKind};
pub use runner::{RunConfig, RunReport, Runner};
pub use store::{KvStore, StoreError, StoreResult};
pub use workload::{CoreWorkload, WorkloadConfig};
