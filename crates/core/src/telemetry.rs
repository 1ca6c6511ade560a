//! Benchmark observability: per-thread recorders feed per-phase latency
//! histograms and time-sliced throughput series; a [`MetricsRegistry`]
//! unifies them with engine- and cluster-level counters; two exporters
//! (deterministic JSON snapshot, Prometheus text exposition) publish the
//! result; and the sustained-rate validator turns per-window throughput
//! into a [`RunValidity`](crate::metrics::RunValidity) input.
//!
//! TPCx-IoT's execution rules are time-resolved — ≥ 20 kvps/s *per
//! sensor* must be sustained over the whole measured run — but an
//! end-of-run average cannot distinguish a steady run from one that
//! stalls for a minute and catches up. The 1 s windows recorded here
//! make the difference visible and judgeable.
//!
//! Design: each driver thread owns a private [`ThreadRecorder`] (no
//! locks or shared cache lines on the hot path) and folds it into the
//! execution's [`RunTelemetry`] exactly once, when the thread finishes.
//! Histogram merge is exact on bucket counts, so merged quantiles equal
//! the quantiles a single global recorder would have produced.

use simkit::stats::{Histogram, Summary, TimeSeries};
use std::fmt::Write as _;
use std::time::Instant;

/// Default throughput window: 1 second, the spec's resolution.
pub const DEFAULT_WINDOW_NANOS: u64 = 1_000_000_000;

/// Benchmark execution phase a measurement belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Measured,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Warmup => "warmup",
            Phase::Measured => "measured",
        }
    }
}

/// Operation classes tracked per phase. `Batch` holds the end-to-end
/// latency of batched ingest flushes (one sample per batch, however many
/// kvps it carried); `Scan` holds the end-to-end latency of streaming
/// range scans, with the rows they streamed credited to a per-window
/// rows series; `Retry` holds the end-to-end latency of operations
/// that needed at least one retry (retry storms show up here long before
/// they show up in failure counts); `Failed` holds the latency of
/// operations that exhausted the retry policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    Ingest,
    Batch,
    Query,
    Scan,
    Retry,
    Failed,
}

impl OpClass {
    pub const ALL: [OpClass; 6] = [
        OpClass::Ingest,
        OpClass::Batch,
        OpClass::Query,
        OpClass::Scan,
        OpClass::Retry,
        OpClass::Failed,
    ];

    fn index(self) -> usize {
        match self {
            OpClass::Ingest => 0,
            OpClass::Batch => 1,
            OpClass::Query => 2,
            OpClass::Scan => 3,
            OpClass::Retry => 4,
            OpClass::Failed => 5,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            OpClass::Ingest => "ingest",
            OpClass::Batch => "batch",
            OpClass::Query => "query",
            OpClass::Scan => "scan",
            OpClass::Retry => "retry",
            OpClass::Failed => "failed",
        }
    }
}

/// A lock-free recorder owned by exactly one driver thread. All state is
/// thread-local; the owning thread folds it into the shared
/// [`RunTelemetry`] once, at exit.
#[derive(Clone, Debug)]
pub struct ThreadRecorder {
    window_nanos: u64,
    hists: [Histogram; 6],
    ingest_series: TimeSeries,
    query_series: TimeSeries,
    scan_rows_series: TimeSeries,
}

impl ThreadRecorder {
    pub fn new(window_nanos: u64) -> ThreadRecorder {
        ThreadRecorder {
            window_nanos,
            hists: std::array::from_fn(|_| Histogram::new()),
            ingest_series: TimeSeries::new(window_nanos),
            query_series: TimeSeries::new(window_nanos),
            scan_rows_series: TimeSeries::new(window_nanos),
        }
    }

    /// Records one successful ingest op completing at `t_nanos` (relative
    /// to the phase epoch). Ops that needed retries also land in the
    /// `Retry` histogram.
    #[inline]
    pub fn record_ingest(&mut self, t_nanos: u64, latency_nanos: u64, retries: u64) {
        self.hists[OpClass::Ingest.index()].record(latency_nanos);
        if retries > 0 {
            self.hists[OpClass::Retry.index()].record(latency_nanos);
        }
        self.ingest_series.add(t_nanos, 1);
    }

    /// Records one successful batched ingest flush completing at
    /// `t_nanos`: one `Batch` latency sample for the flush, and `fill`
    /// kvps credited to the ingest throughput series (the sustained-rate
    /// validator judges kvps, not flushes).
    #[inline]
    pub fn record_batch(&mut self, t_nanos: u64, latency_nanos: u64, fill: u64, retries: u64) {
        self.hists[OpClass::Batch.index()].record(latency_nanos);
        if retries > 0 {
            self.hists[OpClass::Retry.index()].record(latency_nanos);
        }
        self.ingest_series.add(t_nanos, fill);
    }

    /// Records one successful query completing at `t_nanos`.
    #[inline]
    pub fn record_query(&mut self, t_nanos: u64, latency_nanos: u64, retries: u64) {
        self.hists[OpClass::Query.index()].record(latency_nanos);
        if retries > 0 {
            self.hists[OpClass::Retry.index()].record(latency_nanos);
        }
        self.query_series.add(t_nanos, 1);
    }

    /// Records the streaming-scan side of one successful query: the scan
    /// latency lands in the `Scan` histogram and the `rows` the query
    /// streamed are credited to the rows-streamed series (the read-path
    /// analogue of how [`ThreadRecorder::record_batch`] credits kvps).
    #[inline]
    pub fn record_scan(&mut self, t_nanos: u64, latency_nanos: u64, rows: u64) {
        self.hists[OpClass::Scan.index()].record(latency_nanos);
        self.scan_rows_series.add(t_nanos, rows);
    }

    /// Records the end-to-end latency of an operation that failed even
    /// after retrying.
    #[inline]
    pub fn record_failed(&mut self, latency_nanos: u64) {
        self.hists[OpClass::Failed.index()].record(latency_nanos);
    }

    pub fn histogram(&self, class: OpClass) -> &Histogram {
        &self.hists[class.index()]
    }

    /// The per-window ingest throughput series (kvps per window).
    pub fn ingest_series(&self) -> &TimeSeries {
        &self.ingest_series
    }

    /// The per-window query throughput series.
    pub fn query_series(&self) -> &TimeSeries {
        &self.query_series
    }

    /// The per-window rows-streamed series.
    pub fn scan_rows_series(&self) -> &TimeSeries {
        &self.scan_rows_series
    }

    /// Rebuilds a recorder from serialized state (histograms in
    /// [`OpClass`] index order plus the three series) — the receiving end
    /// of an agent-shipped snapshot. Merging rebuilt recorders is
    /// bit-identical to merging the originals.
    pub fn from_parts(
        window_nanos: u64,
        hists: [Histogram; 6],
        ingest_series: TimeSeries,
        query_series: TimeSeries,
        scan_rows_series: TimeSeries,
    ) -> ThreadRecorder {
        ThreadRecorder {
            window_nanos,
            hists,
            ingest_series,
            query_series,
            scan_rows_series,
        }
    }

    /// Width of this recorder's throughput windows.
    pub fn window_nanos(&self) -> u64 {
        self.window_nanos
    }

    /// Exact bucket-wise merge: quantiles of the merged recorder equal
    /// the quantiles of a single recorder fed every sample.
    pub fn merge(&mut self, other: &ThreadRecorder) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        self.ingest_series.merge(&other.ingest_series);
        self.query_series.merge(&other.query_series);
        self.scan_rows_series.merge(&other.scan_rows_series);
    }

    /// Snapshot of this recorder alone, labelled with `phase`.
    pub fn snapshot(&self, phase: Phase) -> PhaseSnapshot {
        PhaseSnapshot {
            phase,
            window_secs: self.window_nanos as f64 / 1e9,
            ingest: self.hists[OpClass::Ingest.index()].summary(),
            batch: self.hists[OpClass::Batch.index()].summary(),
            query: self.hists[OpClass::Query.index()].summary(),
            scan: self.hists[OpClass::Scan.index()].summary(),
            retry: self.hists[OpClass::Retry.index()].summary(),
            failed: self.hists[OpClass::Failed.index()].summary(),
            ingest_windows: self.ingest_series.buckets().to_vec(),
            query_windows: self.query_series.buckets().to_vec(),
            scan_rows_windows: self.scan_rows_series.buckets().to_vec(),
        }
    }
}

/// The telemetry sink for one workload execution (one phase). Threads
/// fold their private recorders in under a single short-lived lock.
pub struct RunTelemetry {
    phase: Phase,
    window_nanos: u64,
    epoch: Instant,
    merged: simkit::sync::Mutex<ThreadRecorder>,
}

impl RunTelemetry {
    pub fn new(phase: Phase, window_nanos: u64) -> RunTelemetry {
        assert!(window_nanos > 0);
        RunTelemetry {
            phase,
            window_nanos,
            epoch: Instant::now(),
            merged: simkit::sync::Mutex::new(ThreadRecorder::new(window_nanos)),
        }
    }

    /// A fresh thread-local recorder compatible with this sink.
    pub fn recorder(&self) -> ThreadRecorder {
        ThreadRecorder::new(self.window_nanos)
    }

    /// Nanoseconds since this execution's telemetry epoch.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Folds a finished thread's recorder into the shared state.
    pub fn absorb(&self, recorder: &ThreadRecorder) {
        self.merged.lock().merge(recorder);
    }

    /// Snapshot of everything recorded so far.
    pub fn snapshot(&self) -> PhaseSnapshot {
        self.merged.lock().snapshot(self.phase)
    }

    /// A clone of the merged recorder's raw state — what a networked
    /// agent ships to the controller, which merges the fleet's recorders
    /// bit-identically to an in-process merge.
    pub fn merged_recorder(&self) -> ThreadRecorder {
        self.merged.lock().clone()
    }
}

/// Deterministically exportable telemetry of one execution phase.
#[derive(Clone, Debug)]
pub struct PhaseSnapshot {
    pub phase: Phase,
    pub window_secs: f64,
    pub ingest: Summary,
    /// Batched ingest flush latencies (one sample per batch).
    pub batch: Summary,
    pub query: Summary,
    /// Streaming range-scan latencies (one sample per scanned query).
    pub scan: Summary,
    pub retry: Summary,
    pub failed: Summary,
    /// Successful ingest ops per window (index 0 = first window).
    pub ingest_windows: Vec<u64>,
    /// Successful queries per window.
    pub query_windows: Vec<u64>,
    /// Readings streamed by scans per window.
    pub scan_rows_windows: Vec<u64>,
}

impl PhaseSnapshot {
    pub fn empty(phase: Phase) -> PhaseSnapshot {
        PhaseSnapshot {
            phase,
            window_secs: DEFAULT_WINDOW_NANOS as f64 / 1e9,
            ingest: Summary::default(),
            batch: Summary::default(),
            query: Summary::default(),
            scan: Summary::default(),
            retry: Summary::default(),
            failed: Summary::default(),
            ingest_windows: Vec::new(),
            query_windows: Vec::new(),
            scan_rows_windows: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Sustained-rate validation
// ---------------------------------------------------------------------------

/// Configuration of the sustained-rate validator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SustainedRateConfig {
    /// Throughput window width.
    pub window_nanos: u64,
    /// Minimum successful ingest ops/second every *full* window must
    /// sustain across the whole SUT. `0.0` disables the check.
    pub min_window_rate: f64,
}

impl Default for SustainedRateConfig {
    fn default() -> SustainedRateConfig {
        SustainedRateConfig {
            window_nanos: DEFAULT_WINDOW_NANOS,
            min_window_rate: 0.0,
        }
    }
}

impl SustainedRateConfig {
    /// The spec-shaped floor: `rate` kvps/s per sensor over `sensors`
    /// total sensors, judged on 1 s windows.
    pub fn per_sensor(rate: f64, sensors: u64) -> SustainedRateConfig {
        SustainedRateConfig {
            window_nanos: DEFAULT_WINDOW_NANOS,
            min_window_rate: rate * sensors as f64,
        }
    }
}

/// One window that fell below the floor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateViolation {
    /// Window index (0-based from the phase epoch).
    pub window: usize,
    /// Ops the window actually completed.
    pub ops: u64,
    /// Ops the floor required of a full window.
    pub required: f64,
}

/// Flags every *full* window whose throughput sits below the configured
/// floor. The final window is excluded — the run ends somewhere inside
/// it, so it is partial by construction (as is a run shorter than one
/// window, which yields no full windows at all).
pub fn validate_sustained_rate(
    windows: &[u64],
    config: &SustainedRateConfig,
) -> Vec<RateViolation> {
    if config.min_window_rate <= 0.0 || windows.len() < 2 {
        return Vec::new();
    }
    let required = config.min_window_rate * (config.window_nanos as f64 / 1e9);
    windows[..windows.len() - 1]
        .iter()
        .enumerate()
        .filter(|&(_, &ops)| (ops as f64) < required)
        .map(|(window, &ops)| RateViolation {
            window,
            ops,
            required,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Registry: unified counters from every layer
// ---------------------------------------------------------------------------

/// Storage-engine counters aggregated across all cluster nodes: the
/// engine's own statistics snapshot, where the counters are declared.
pub use iotkv::DbStats as EngineCounters;

/// Gateway-cluster counters: the cluster's own statistics snapshot, where
/// the operation and resilience counters are declared.
pub use gateway::ClusterStats as ClusterCounters;

/// One labelled phase entry in the registry ("iter1/measured",
/// "case: crash 50%", ...).
#[derive(Clone, Debug)]
pub struct PhaseEntry {
    pub label: String,
    pub snapshot: PhaseSnapshot,
    /// Full windows below the sustained-rate floor (empty when the check
    /// is disabled or passed).
    pub violations: Vec<RateViolation>,
}

/// The unified registry: driver telemetry + engine counters + cluster
/// counters + the run verdict, ready for export.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    pub phases: Vec<PhaseEntry>,
    pub engine: EngineCounters,
    pub cluster: Option<ClusterCounters>,
    /// "VALID" / "INVALID" (empty when no verdict applies).
    pub verdict: String,
    pub verdict_reasons: Vec<String>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn add_phase(
        &mut self,
        label: impl Into<String>,
        snapshot: PhaseSnapshot,
        violations: Vec<RateViolation>,
    ) {
        self.phases.push(PhaseEntry {
            label: label.into(),
            snapshot,
            violations,
        });
    }

    /// Whether any phase tripped the sustained-rate validator.
    pub fn sustained_ok(&self) -> bool {
        self.phases.iter().all(|p| p.violations.is_empty())
    }

    /// The deterministic JSON snapshot (fixed key order, no whitespace
    /// variance): identical inputs produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"tpcx-iot-metrics/v1\",\n  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"label\": ");
            json_string(&mut out, &p.label);
            let _ = write!(out, ", \"phase\": \"{}\"", p.snapshot.phase.name());
            let _ = write!(
                out,
                ", \"window_secs\": {}",
                json_f64(p.snapshot.window_secs)
            );
            for (name, s) in [
                ("ingest", &p.snapshot.ingest),
                ("batch", &p.snapshot.batch),
                ("query", &p.snapshot.query),
                ("scan", &p.snapshot.scan),
                ("retry", &p.snapshot.retry),
                ("failed", &p.snapshot.failed),
            ] {
                let _ = write!(
                    out,
                    ", \"{name}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}}}",
                    s.count,
                    s.min,
                    s.max,
                    json_f64(s.mean),
                    s.p50,
                    s.p95,
                    s.p99,
                    s.p999,
                );
            }
            out.push_str(", \"ingest_windows\": ");
            json_u64_array(&mut out, &p.snapshot.ingest_windows);
            out.push_str(", \"query_windows\": ");
            json_u64_array(&mut out, &p.snapshot.query_windows);
            out.push_str(", \"scan_rows_windows\": ");
            json_u64_array(&mut out, &p.snapshot.scan_rows_windows);
            let _ = write!(out, ", \"sustained_ok\": {}", p.violations.is_empty());
            out.push_str(", \"violations\": [");
            for (j, v) in p.violations.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"window\": {}, \"ops\": {}, \"required\": {}}}",
                    v.window,
                    v.ops,
                    json_f64(v.required)
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n  \"engine\": {");
        json_counters(&mut out, "", self.engine.counters());
        out.push_str("},\n  \"cluster\": ");
        match &self.cluster {
            None => out.push_str("null"),
            Some(c) => {
                out.push('{');
                for (name, v) in c.counters() {
                    let _ = write!(out, "\"{name}\": {v}, ");
                    // The derived batch fill sits beside its inputs.
                    if name == "put_batches" {
                        let _ = write!(out, "\"batch_fill\": {}, ", json_f64(c.batch_fill()));
                    }
                }
                let _ = write!(out, "\"regions\": {}, \"node_writes\": ", c.regions);
                json_u64_array(&mut out, &c.node_writes);
                out.push_str(", \"node_reads\": ");
                json_u64_array(&mut out, &c.node_reads);
                json_counters(&mut out, ", ", c.resilience.counters());
                let _ = write!(
                    out,
                    ", \"epoch\": {}, \"topology_ok\": {}}}",
                    c.epoch, c.topology_ok
                );
            }
        }
        out.push_str(",\n  \"verdict\": ");
        json_string(&mut out, &self.verdict);
        out.push_str(",\n  \"verdict_reasons\": [");
        for (i, r) in self.verdict_reasons.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_string(&mut out, r);
        }
        out.push_str("]\n}\n");
        out
    }

    /// Prometheus text exposition (metric families sorted and typed).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# TYPE tpcx_iot_latency_nanos summary\n");
        for p in &self.phases {
            let label = prom_label(&p.label);
            for (class, s) in [
                ("ingest", &p.snapshot.ingest),
                ("batch", &p.snapshot.batch),
                ("query", &p.snapshot.query),
                ("scan", &p.snapshot.scan),
                ("retry", &p.snapshot.retry),
                ("failed", &p.snapshot.failed),
            ] {
                for (q, v) in [
                    ("0.5", s.p50),
                    ("0.95", s.p95),
                    ("0.99", s.p99),
                    ("0.999", s.p999),
                ] {
                    let _ = writeln!(
                        out,
                        "tpcx_iot_latency_nanos{{run=\"{label}\",op=\"{class}\",quantile=\"{q}\"}} {v}"
                    );
                }
                let _ = writeln!(
                    out,
                    "tpcx_iot_latency_nanos_count{{run=\"{label}\",op=\"{class}\"}} {}",
                    s.count
                );
            }
        }
        out.push_str("# TYPE tpcx_iot_window_ops gauge\n");
        for p in &self.phases {
            let label = prom_label(&p.label);
            for (series, windows) in [
                ("ingest", &p.snapshot.ingest_windows),
                ("query", &p.snapshot.query_windows),
                ("scan_rows", &p.snapshot.scan_rows_windows),
            ] {
                for (w, ops) in windows.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "tpcx_iot_window_ops{{run=\"{label}\",op=\"{series}\",window=\"{w}\"}} {ops}"
                    );
                }
            }
        }
        out.push_str("# TYPE tpcx_iot_sustained_rate_violations gauge\n");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "tpcx_iot_sustained_rate_violations{{run=\"{}\"}} {}",
                prom_label(&p.label),
                p.violations.len()
            );
        }
        out.push_str("# TYPE tpcx_iot_engine counter\n");
        for (name, v) in self.engine.counters() {
            let _ = writeln!(out, "tpcx_iot_engine{{counter=\"{name}\"}} {v}");
        }
        if let Some(c) = &self.cluster {
            out.push_str("# TYPE tpcx_iot_cluster counter\n");
            for (name, v) in c
                .counters()
                .chain([("regions", c.regions as u64)])
                .chain(c.resilience.counters())
            {
                let _ = writeln!(out, "tpcx_iot_cluster{{counter=\"{name}\"}} {v}");
            }
            out.push_str("# TYPE tpcx_iot_cluster_batch_fill gauge\n");
            let _ = writeln!(out, "tpcx_iot_cluster_batch_fill {}", c.batch_fill());
            out.push_str("# TYPE tpcx_iot_cluster_epoch gauge\n");
            let _ = writeln!(out, "tpcx_iot_cluster_epoch {}", c.epoch);
            out.push_str("# TYPE tpcx_iot_cluster_topology_ok gauge\n");
            let _ = writeln!(
                out,
                "tpcx_iot_cluster_topology_ok {}",
                u64::from(c.topology_ok)
            );
            for (node, w) in c.node_writes.iter().enumerate() {
                let _ = writeln!(out, "tpcx_iot_cluster_node_writes{{node=\"{node}\"}} {w}");
            }
            for (node, r) in c.node_reads.iter().enumerate() {
                let _ = writeln!(out, "tpcx_iot_cluster_node_reads{{node=\"{node}\"}} {r}");
            }
        }
        if !self.verdict.is_empty() {
            out.push_str("# TYPE tpcx_iot_run_valid gauge\n");
            let _ = writeln!(
                out,
                "tpcx_iot_run_valid {}",
                if self.verdict == "VALID" { 1 } else { 0 }
            );
        }
        out
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON-legal float rendering: Rust's shortest-round-trip `{}` except
/// that non-finite values (illegal in JSON) map to 0 and integral values
/// keep a trailing `.0` so the field stays typed as a float.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Writes `"name": value` pairs, comma-separated, after `lead`.
fn json_counters(
    out: &mut String,
    lead: &str,
    counters: impl Iterator<Item = (&'static str, u64)>,
) {
    let mut sep = lead;
    for (name, v) in counters {
        let _ = write!(out, "{sep}\"{name}\": {v}");
        sep = ", ";
    }
}

fn json_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn prom_label(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' | '\\' | '\n' => '_',
            c => c,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Export validation (used by the golden tests and the CI artifact gate)
// ---------------------------------------------------------------------------

/// Minimal recursive-descent JSON validator: checks that `s` is one
/// well-formed JSON value. No external crate, no DOM — just enough to
/// fail CI when an export is empty or truncated.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_json_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_json_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_json_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if text.parse::<f64>().is_err() {
        return Err(format!("bad number '{text}' at byte {start}"));
    }
    Ok(())
}

/// Validates a Prometheus text exposition: every non-comment, non-blank
/// line must be `name{labels} value` (or `name value`) with a finite
/// numeric value, and at least one sample must be present.
pub fn validate_prometheus(s: &str) -> Result<(), String> {
    let mut samples = 0usize;
    for (i, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: '{line}'", i + 1))?;
        let metric = name_part.split('{').next().unwrap_or("");
        if metric.is_empty()
            || !metric
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name '{metric}'", i + 1));
        }
        if name_part.contains('{') && !name_part.ends_with('}') {
            return Err(format!("line {}: unterminated label set", i + 1));
        }
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {}: bad value '{value_part}'", i + 1))?;
        if !value.is_finite() {
            return Err(format!("line {}: non-finite value", i + 1));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let telemetry = RunTelemetry::new(Phase::Measured, DEFAULT_WINDOW_NANOS);
        let mut rec = telemetry.recorder();
        for i in 0..100u64 {
            rec.record_ingest(i * 20_000_000, 1_000 + i * 17, i % 10);
        }
        rec.record_query(500_000_000, 80_000, 0);
        rec.record_scan(500_000_000, 90_000, 42);
        rec.record_failed(2_000_000);
        telemetry.absorb(&rec);
        let mut registry = MetricsRegistry::new();
        let snap = telemetry.snapshot();
        let violations = validate_sustained_rate(
            &snap.ingest_windows,
            &SustainedRateConfig {
                window_nanos: DEFAULT_WINDOW_NANOS,
                min_window_rate: 10.0,
            },
        );
        registry.add_phase("iter1/measured", snap, violations);
        registry.engine.accumulate(&iotkv::DbStats {
            wal_syncs: 7,
            flushes: 3,
            cache_hits: 100,
            cache_misses: 4,
            ..Default::default()
        });
        registry.cluster = Some(ClusterCounters {
            puts: 100,
            node_writes: vec![40, 30, 30],
            node_reads: vec![1, 0, 0],
            topology_ok: true,
            ..Default::default()
        });
        registry.verdict = "VALID".into();
        registry
    }

    #[test]
    fn recorder_merge_equals_single_recorder() {
        let mut a = ThreadRecorder::new(1_000_000);
        let mut b = ThreadRecorder::new(1_000_000);
        let mut whole = ThreadRecorder::new(1_000_000);
        for i in 0..1000u64 {
            let (t, lat) = (i * 3_000, 100 + i * 7);
            if i % 2 == 0 {
                a.record_ingest(t, lat, 0);
            } else {
                b.record_ingest(t, lat, 1);
            }
            whole.record_ingest(t, lat, i % 2);
        }
        a.merge(&b);
        for class in OpClass::ALL {
            let (m, w) = (a.histogram(class), whole.histogram(class));
            assert_eq!(m.count(), w.count());
            for q in [0.5, 0.95, 0.99, 0.999] {
                assert_eq!(m.value_at_quantile(q), w.value_at_quantile(q));
            }
        }
        assert_eq!(a.ingest_series.buckets(), whole.ingest_series.buckets());
    }

    #[test]
    fn record_batch_credits_fill_to_ingest_windows() {
        let mut rec = ThreadRecorder::new(DEFAULT_WINDOW_NANOS);
        rec.record_batch(100, 5_000, 16, 0);
        rec.record_batch(200, 7_000, 16, 2);
        rec.record_batch(1_500_000_000, 6_000, 8, 0);
        let snap = rec.snapshot(Phase::Measured);
        assert_eq!(snap.batch.count, 3, "one sample per flush");
        assert_eq!(snap.ingest.count, 0, "no per-kvp samples");
        assert_eq!(snap.retry.count, 1, "retried flushes land in retry");
        assert_eq!(snap.ingest_windows, vec![32, 8], "windows count kvps");
    }

    #[test]
    fn record_scan_credits_rows_to_scan_windows() {
        let mut rec = ThreadRecorder::new(DEFAULT_WINDOW_NANOS);
        rec.record_scan(100, 5_000, 120);
        rec.record_scan(200, 7_000, 30);
        rec.record_scan(1_500_000_000, 6_000, 80);
        let snap = rec.snapshot(Phase::Measured);
        assert_eq!(snap.scan.count, 3, "one sample per scanned query");
        assert_eq!(snap.query.count, 0, "scan samples stay out of query");
        assert_eq!(snap.scan_rows_windows, vec![150, 80], "windows count rows");
    }

    #[test]
    fn sustained_rate_flags_only_full_windows_below_floor() {
        let config = SustainedRateConfig {
            window_nanos: DEFAULT_WINDOW_NANOS,
            min_window_rate: 50.0,
        };
        // Last window (partial) is never judged.
        let v = validate_sustained_rate(&[100, 0, 49, 100, 3], &config);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].window, 1);
        assert_eq!(v[0].ops, 0);
        assert_eq!(v[1].window, 2);
        // Disabled floor or sub-window runs never flag.
        assert!(validate_sustained_rate(&[0, 0, 0], &SustainedRateConfig::default()).is_empty());
        assert!(validate_sustained_rate(&[0], &config).is_empty());
    }

    #[test]
    fn per_sensor_floor_scales_with_sensor_count() {
        let c = SustainedRateConfig::per_sensor(20.0, 400);
        assert_eq!(c.min_window_rate, 8_000.0);
        assert_eq!(c.window_nanos, DEFAULT_WINDOW_NANOS);
    }

    #[test]
    fn json_export_is_valid_and_deterministic() {
        let registry = sample_registry();
        let a = registry.to_json();
        let b = registry.to_json();
        assert_eq!(a, b);
        validate_json(&a).expect("export parses");
        assert!(a.contains("\"ingest_windows\""));
        assert!(a.contains("\"scan_rows_windows\": [42]"));
        assert!(a.contains("\"epoch\": 0"));
        assert!(a.contains("\"topology_ok\": true"));
        assert!(a.contains("\"p999\""));
        assert!(a.contains("\"wal_syncs\": 7"));
        assert!(a.contains("\"verdict\": \"VALID\""));
    }

    #[test]
    fn prometheus_export_is_valid() {
        let registry = sample_registry();
        let prom = registry.to_prometheus();
        validate_prometheus(&prom).expect("exposition parses");
        assert!(prom.contains(
            "tpcx_iot_latency_nanos{run=\"iter1/measured\",op=\"ingest\",quantile=\"0.999\"}"
        ));
        assert!(prom.contains("tpcx_iot_engine{counter=\"wal_syncs\"} 7"));
        assert!(prom.contains("tpcx_iot_cluster_epoch 0"));
        assert!(prom.contains("tpcx_iot_cluster_topology_ok 1"));
        assert!(prom.contains("tpcx_iot_run_valid 1"));
    }

    /// Walks the counter declarations (engine, cluster operations,
    /// resilience): each declared name is exported exactly once by each
    /// exporter, with its value, and summed by the merges.
    #[test]
    fn every_declared_counter_is_exported_once_and_merged() {
        let mut next = 1_000u64;
        let mut fill = |counters: &mut dyn Iterator<Item = (&'static str, &mut u64)>| {
            for (_, v) in counters {
                next += 1;
                *v = next;
            }
        };
        let mut engine = EngineCounters::default();
        fill(&mut engine.counters_mut());
        let mut cluster = ClusterCounters::default();
        fill(&mut cluster.counters_mut());
        fill(&mut cluster.resilience.counters_mut());

        let mut registry = MetricsRegistry::new();
        registry.engine = engine;
        registry.cluster = Some(cluster.clone());
        let (json, prom) = (registry.to_json(), registry.to_prometheus());
        validate_json(&json).expect("export parses");
        validate_prometheus(&prom).expect("exposition parses");

        let mut twice_engine = engine;
        twice_engine.accumulate(&engine);
        let mut twice = cluster.clone();
        twice.merge(&cluster);

        let engine_rows = engine.counters().zip(twice_engine.counters());
        let cluster_rows = cluster
            .counters()
            .chain(cluster.resilience.counters())
            .zip(twice.counters().chain(twice.resilience.counters()));
        let rows = engine_rows
            .map(|row| ("tpcx_iot_engine", row))
            .chain(cluster_rows.map(|row| ("tpcx_iot_cluster", row)));
        for (family, ((name, v), (_, merged))) in rows {
            assert_eq!(json.matches(&format!("\"{name}\": ")).count(), 1, "{name}");
            assert!(json.contains(&format!("\"{name}\": {v}")), "{name}");
            let label = format!("{family}{{counter=\"{name}\"}} ");
            assert_eq!(prom.matches(&label).count(), 1, "{name}");
            assert!(prom.contains(&format!("{label}{v}\n")), "{name}");
            assert_eq!(merged, 2 * v, "{name} is summed by merge");
        }
    }

    #[test]
    fn validators_reject_garbage() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{\"a\": ").is_err());
        assert!(validate_json("{\"a\": 1} x").is_err());
        assert!(validate_json("{\"a\": [1, 2], \"b\": \"c\"}").is_ok());
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("metric 1.5\n").is_ok());
        assert!(validate_prometheus("metric{l=\"x\"} nope\n").is_err());
        assert!(validate_prometheus("bad name 1\n").is_err());
    }

    #[test]
    fn empty_phase_snapshot_exports_cleanly() {
        let mut registry = MetricsRegistry::new();
        registry.add_phase("empty", PhaseSnapshot::empty(Phase::Warmup), Vec::new());
        validate_json(&registry.to_json()).unwrap();
        validate_prometheus(&registry.to_prometheus()).unwrap();
    }
}
