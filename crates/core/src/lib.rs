//! `tpcx-iot` — a Rust reproduction of the TPCx-IoT benchmark kit.
//!
//! TPCx-IoT (TPC Express Benchmark IoT, first released May 2017) is the
//! first industry-standard benchmark for IoT *gateway* systems. It models
//! the power substations of an electric utility: each workload driver
//! instance simulates one substation with **200 sensors**, ingesting 1 KB
//! sensor readings at high rate into the system under test while
//! concurrently running dashboard queries (five per 10,000 readings) that
//! compare the last 5 seconds of one sensor against a random 5-second
//! window from the previous 1800 seconds.
//!
//! This crate implements the complete kit:
//!
//! * [`keys`] — the key-value schema of Fig 7 (substation key, sensor
//!   key, POSIX timestamp → value, unit, padding to 1 KB),
//! * [`sensors`] — a catalogue of 200 power-substation sensor types (LTC
//!   gassing, MIS gas, PMU synchrophasors, leakage current, …),
//! * [`datagen`] — the driver-side reading generator (Fig 8's subject),
//! * [`query`] — the four dashboard query templates (max / min / avg /
//!   count) and their execution against any [`backend::GatewayBackend`],
//! * [`driver`] — one TPCx-IoT driver instance (one substation): threaded
//!   ingestion at full speed with interleaved queries,
//! * [`runner`] — the benchmark driver of Fig 6/9: prerequisite checks,
//!   two iterations of warm-up + measured executions, data checks, system
//!   cleanup, and report generation,
//! * [`rules`] — the execution-rule validation (≥1800 s per execution,
//!   ≥20 kvps/s per sensor, ≥200 readings aggregated per query),
//! * [`metrics`] — the three primary metrics: `IoTps`, `$/IoTps`, and
//!   system availability,
//! * [`pricing`] — TPC pricing: priced configuration, 3-year maintenance,
//!   component substitution rules,
//! * [`checks`] — file (md5), replication, and data checks,
//! * [`md5`] — RFC 1321 implemented in-repo,
//! * [`report`] — executive summary + full disclosure report (FDR),
//! * [`telemetry`] — per-phase latency histograms, 1 s throughput
//!   windows, engine/cluster counters, JSON + Prometheus exporters, and
//!   the sustained-rate validator,
//! * [`experiment`] — the paper's evaluation harness (Tables I–III,
//!   Figures 8 and 10–16) over either the real in-process cluster or the
//!   calibrated simulation,
//! * [`netplane`] — the networked benchmark plane: a controller driving
//!   a fleet of driver agents over the `wire` protocol, with the gateway
//!   cluster behind a real TCP socket.

pub mod backend;
pub mod checks;
pub mod datagen;
pub mod driver;
pub mod experiment;
pub mod keys;
pub mod md5;
pub mod metrics;
pub mod netplane;
pub mod pricing;
pub mod query;
pub mod report;
pub mod retry;
pub mod rules;
pub mod runner;
pub mod sensors;
pub mod telemetry;

pub use backend::GatewayBackend;
pub use datagen::ReadingGenerator;
pub use keys::{decode_reading, encode_reading, SensorReading, KVP_SIZE};
pub use metrics::{iotps, price_performance, BenchmarkMetrics};
pub use netplane::{run_agent, run_networked, spawn_local_agent, FleetConfig, NetBackend};
pub use query::{QueryKind, QueryOutcome, QuerySpec};
pub use retry::{with_retry, RetryPolicy};
pub use rules::{RuleReport, Rules};
pub use runner::{BenchmarkConfig, BenchmarkOutcome, BenchmarkRunner};
pub use telemetry::{MetricsRegistry, Phase, RunTelemetry, SustainedRateConfig};
