//! The networked benchmark plane: a controller driving a fleet of
//! remote driver agents over the `wire` protocol, with the gateway
//! cluster behind a real TCP socket ([`gateway::GatewayServer`]).
//!
//! Topology of a networked run:
//!
//! ```text
//!   controller ──RunPhase/PhaseDone──▶ agent 0 ─┐
//!       │       (control channel)      agent 1 ─┤ Put/PutBatch/Scan
//!       │                              agent N ─┘ (data channel)
//!       └── hosts gateway::Cluster ◀── GatewayServer socket
//! ```
//!
//! The controller owns the cluster, the prerequisite checks, the data
//! checks, cleanup, and metric derivation — the whole benchmark
//! protocol of [`BenchmarkRunner::run_with`]. What it delegates is the
//! workload execution: each agent receives a [`RunPhaseSpec`] naming a
//! contiguous substation range and the *phase* seed, runs the in-process
//! runner's own execution routine over that range against the gateway
//! socket (so every driver gets the seed and kvp share it would get
//! in-process), and ships back per-substation
//! [`OpSummary`] rows plus the raw merged telemetry recorder. Raw
//! histogram buckets — not quantile summaries — cross the wire, so the
//! controller-side merge is bit-identical to an in-process merge: the
//! same root seed produces the same merged FDR verdict and aggregate
//! counters whether the fleet has 1, 2, or N agents, or no network at
//! all.
//!
//! An agent that dies mid-phase surfaces as a connection error on the
//! controller's bounded read (never a hang: every `FrameConn` read has
//! a mandatory timeout) and aborts the run with an INVALID verdict
//! naming the agent.

use crate::backend::{BackendError, BackendResult, GatewayBackend};
use crate::retry::RetryPolicy;
use crate::runner::{
    drive_substations, fold_execution, BenchmarkConfig, BenchmarkOutcome, BenchmarkRunner,
    ExecutionOutcome, GatewaySut,
};
use crate::telemetry::{OpClass, Phase, ThreadRecorder};
use bytes::Bytes;
use gateway::server::GatewayServer;
use simkit::stats::{Histogram, TimeSeries};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::msg::{ROLE_AGENT, ROLE_DRIVER};
use wire::{
    FrameConn, HistogramState, Message, OpSummary, RecorderState, RetryState, RunPhaseSpec,
    SeriesState, WireError,
};

// ---------------------------------------------------------------------------
// State conversions: telemetry/retry types ↔ wire payloads
// ---------------------------------------------------------------------------

/// Serializes a histogram's raw state (exact moments + nonzero buckets).
pub fn histogram_to_state(h: &Histogram) -> HistogramState {
    let sum = h.sum();
    HistogramState {
        count: h.count(),
        sum_hi: (sum >> 64) as u64,
        sum_lo: sum as u64,
        sum_sq_bits: h.sum_sq().to_bits(),
        min: h.min(),
        max: h.max(),
        buckets: h.nonzero_buckets().map(|(i, c)| (i as u32, c)).collect(),
    }
}

/// Rebuilds a histogram from shipped state. Merging rebuilt histograms
/// is bit-identical to merging the originals.
pub fn histogram_from_state(s: &HistogramState) -> Histogram {
    let sum = ((s.sum_hi as u128) << 64) | s.sum_lo as u128;
    Histogram::from_parts(
        s.count,
        sum,
        f64::from_bits(s.sum_sq_bits),
        s.min,
        s.max,
        s.buckets.iter().map(|&(i, c)| (i as usize, c)),
    )
}

fn series_to_state(s: &TimeSeries) -> SeriesState {
    SeriesState {
        interval_nanos: s.interval_nanos(),
        buckets: s.buckets().to_vec(),
    }
}

fn series_from_state(s: &SeriesState) -> Result<TimeSeries, String> {
    if s.interval_nanos == 0 {
        return Err("series interval must be nonzero".into());
    }
    Ok(TimeSeries::from_buckets(
        s.interval_nanos,
        s.buckets.clone(),
    ))
}

/// Serializes a telemetry recorder: the six per-class histograms in
/// [`OpClass`] index order plus the three throughput series.
pub fn recorder_to_state(rec: &ThreadRecorder) -> RecorderState {
    RecorderState {
        window_nanos: rec.window_nanos(),
        hists: OpClass::ALL
            .iter()
            .map(|&class| histogram_to_state(rec.histogram(class)))
            .collect(),
        ingest: series_to_state(rec.ingest_series()),
        query: series_to_state(rec.query_series()),
        scan_rows: series_to_state(rec.scan_rows_series()),
    }
}

/// Rebuilds a recorder from shipped state.
pub fn recorder_from_state(state: &RecorderState) -> Result<ThreadRecorder, String> {
    if state.hists.len() != OpClass::ALL.len() {
        return Err(format!(
            "recorder state must carry {} histograms, got {}",
            OpClass::ALL.len(),
            state.hists.len()
        ));
    }
    if state.window_nanos == 0 {
        return Err("recorder window must be nonzero".into());
    }
    let mut hists = state.hists.iter().map(histogram_from_state);
    let hists: [Histogram; 6] = std::array::from_fn(|_| {
        hists.next().unwrap_or_default() // length checked above; unreachable
    });
    Ok(ThreadRecorder::from_parts(
        state.window_nanos,
        hists,
        series_from_state(&state.ingest)?,
        series_from_state(&state.query)?,
        series_from_state(&state.scan_rows)?,
    ))
}

fn saturating_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Flattens a retry policy to wire scalars (durations saturate at
/// `u64::MAX` nanoseconds — `RetryPolicy::NONE`'s infinite deadline
/// survives as "longer than any benchmark run").
pub fn retry_to_state(p: &RetryPolicy) -> RetryState {
    RetryState {
        max_attempts: p.max_attempts,
        base_backoff_nanos: saturating_nanos(p.base_backoff),
        max_backoff_nanos: saturating_nanos(p.max_backoff),
        deadline_nanos: saturating_nanos(p.deadline),
        jitter: p.jitter,
    }
}

pub fn retry_from_state(s: &RetryState) -> RetryPolicy {
    RetryPolicy {
        max_attempts: s.max_attempts,
        base_backoff: Duration::from_nanos(s.base_backoff_nanos),
        max_backoff: Duration::from_nanos(s.max_backoff_nanos),
        deadline: Duration::from_nanos(s.deadline_nanos),
        jitter: s.jitter,
    }
}

// ---------------------------------------------------------------------------
// NetBackend: the gateway socket as a driver backend
// ---------------------------------------------------------------------------

/// A [`GatewayBackend`] speaking the wire protocol to a remote
/// [`GatewayServer`]. Connections are pooled per backend; a connection
/// that sees a wire error is dropped (not pooled), so the retry layer's
/// next attempt dials fresh — transient network failures heal exactly
/// like transient cluster faults.
pub struct NetBackend {
    addr: String,
    read_timeout: Duration,
    pool: parking_lot::Mutex<Vec<FrameConn>>,
}

impl NetBackend {
    /// Creates a backend for the gateway at `addr`, verifying
    /// reachability with one handshake + ping up front.
    pub fn connect(addr: &str, read_timeout: Duration) -> Result<NetBackend, String> {
        let backend = NetBackend {
            addr: addr.to_string(),
            read_timeout,
            pool: parking_lot::Mutex::new(Vec::new()),
        };
        let mut conn = backend.checkout().map_err(|e| e.to_string())?;
        match conn.request(&Message::Ping) {
            Ok(Message::Pong) => {
                backend.checkin(conn);
                Ok(backend)
            }
            Ok(other) => Err(format!(
                "gateway {addr}: expected Pong, got {}",
                other.name()
            )),
            Err(e) => Err(format!("gateway {addr}: {e}")),
        }
    }

    fn checkout(&self) -> Result<FrameConn, WireError> {
        if let Some(conn) = self.pool.lock().pop() {
            return Ok(conn);
        }
        let mut conn = FrameConn::connect(&self.addr, self.read_timeout)?;
        conn.client_handshake(ROLE_DRIVER)?;
        Ok(conn)
    }

    fn checkin(&self, conn: FrameConn) {
        self.pool.lock().push(conn);
    }

    /// One request/reply RPC over a pooled connection. The connection
    /// returns to the pool only if the exchange succeeded at the wire
    /// level; an `Err` *frame* is a healthy connection reporting a
    /// gateway failure.
    fn rpc(&self, msg: &Message) -> Result<Message, BackendError> {
        let mut conn = self.checkout()?;
        match conn.request(msg) {
            Ok(reply) => {
                self.checkin(conn);
                Ok(reply)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn expect_ok(&self, reply: Message) -> BackendResult<()> {
        match reply {
            Message::Ok => Ok(()),
            Message::Err { transient, message } => Err(gateway_error(transient, message)),
            other => Err(BackendError::permanent(format!(
                "unexpected gateway reply {}",
                other.name()
            ))),
        }
    }
}

/// An `Err` frame as the backend error it carries.
fn gateway_error(transient: bool, message: String) -> BackendError {
    if transient {
        BackendError::transient(message)
    } else {
        BackendError::permanent(message)
    }
}

impl GatewayBackend for NetBackend {
    fn insert(&self, key: &[u8], value: &[u8]) -> BackendResult<()> {
        let reply = self.rpc(&Message::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })?;
        self.expect_ok(reply)
    }

    fn insert_batch(&self, items: &[(Bytes, Bytes)]) -> BackendResult<()> {
        let reply = self.rpc(&Message::PutBatch {
            items: items
                .iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect(),
        })?;
        self.expect_ok(reply)
    }

    /// Streams one remote scan: `ScanRow` frames until `ScanDone`. The
    /// visitor's early stop only mutes delivery — the frame stream is
    /// drained to `ScanDone` so the connection stays frame-aligned and
    /// poolable.
    fn scan_fold(
        &self,
        start: &[u8],
        end: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> BackendResult<u64> {
        let mut conn = self.checkout()?;
        conn.send(&Message::Scan {
            start: start.to_vec(),
            end: end.to_vec(),
            limit: u64::MAX,
        })?;
        let mut visited = 0u64;
        let mut stopped = false;
        loop {
            match conn.recv()? {
                Message::ScanRow { key, value } => {
                    if !stopped {
                        visited += 1;
                        if !visit(&key, &value) {
                            stopped = true;
                        }
                    }
                }
                Message::ScanDone { .. } => {
                    self.checkin(conn);
                    return Ok(visited);
                }
                Message::Err { transient, message } => {
                    // The stream is interrupted; the connection's frame
                    // alignment is still intact (Err ends the scan), so
                    // it is poolable.
                    self.checkin(conn);
                    return Err(gateway_error(transient, message));
                }
                other => {
                    return Err(BackendError::permanent(format!(
                        "unexpected frame {} inside scan stream",
                        other.name()
                    )));
                }
            }
        }
    }

    fn replication_factor(&self) -> usize {
        match self.rpc(&Message::GetStats) {
            Ok(Message::Stats { replication, .. }) => replication as usize,
            _ => 0,
        }
    }

    fn ingested_count(&self) -> u64 {
        match self.rpc(&Message::GetStats) {
            Ok(Message::Stats { ingested, .. }) => ingested,
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Agent: the remote driver host
// ---------------------------------------------------------------------------

/// Executes one phase of the workload for the agent's substation range
/// against the gateway socket — [`drive_substations`], the routine the
/// in-process runner uses, behind the protocol-boundary checks.
fn execute_phase(spec: &RunPhaseSpec) -> Result<(Vec<OpSummary>, RecorderState), String> {
    if spec.sub_hi < spec.sub_lo || spec.sub_hi > spec.substations {
        return Err(format!(
            "bad substation range [{}, {}) of {}",
            spec.sub_lo, spec.sub_hi, spec.substations
        ));
    }
    // The spec arrives over the wire; reject it at the protocol boundary
    // instead of letting the driver's or the telemetry's own invariant
    // checks panic a whole agent on a malformed controller.
    if spec.threads == 0 {
        return Err("phase spec requires at least one driver thread".to_string());
    }
    if spec.window_nanos == 0 {
        return Err("phase spec requires a nonzero telemetry window".to_string());
    }
    let backend = NetBackend::connect(&spec.gateway_addr, wire::DEFAULT_READ_TIMEOUT)?;
    let (rows, recorder) = drive_substations(spec, Arc::new(backend));
    Ok((rows, recorder_to_state(&recorder)))
}

/// Serves one agent: accepts controller connections on `listener` and
/// executes `RunPhase` commands until a `Shutdown` arrives. A dropped
/// controller connection returns the agent to accepting — a restarted
/// controller can re-adopt a surviving fleet.
pub fn run_agent(listener: TcpListener) -> Result<(), String> {
    loop {
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        let mut conn = match FrameConn::new(stream, wire::DEFAULT_READ_TIMEOUT) {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if conn.server_handshake().is_err() {
            continue;
        }
        loop {
            match conn.recv() {
                Ok(Message::Ping) => {
                    if conn.send(&Message::Pong).is_err() {
                        break;
                    }
                }
                Ok(Message::RunPhase(spec)) => {
                    let reply = match execute_phase(&spec) {
                        Ok((summaries, recorder)) => Message::PhaseDone {
                            summaries,
                            recorder,
                        },
                        Err(message) => Message::Err {
                            transient: false,
                            message,
                        },
                    };
                    if conn.send(&reply).is_err() {
                        break;
                    }
                }
                Ok(Message::Shutdown) => {
                    let _ = conn.send(&Message::Ok);
                    return Ok(());
                }
                Ok(other) => {
                    let refused = Message::Err {
                        transient: false,
                        message: format!("agent cannot serve {}", other.name()),
                    };
                    if conn.send(&refused).is_err() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }
}

/// Binds an ephemeral loopback port and serves an agent on a background
/// thread — the in-process harness for fleet tests and benches.
pub fn spawn_local_agent() -> Result<(String, std::thread::JoinHandle<Result<(), String>>), String>
{
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    Ok((addr, std::thread::spawn(move || run_agent(listener))))
}

// ---------------------------------------------------------------------------
// Controller: the benchmark protocol over a fleet
// ---------------------------------------------------------------------------

/// Controller-side knobs of a networked run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Control-channel addresses of the agents, one per agent.
    pub agent_addrs: Vec<String>,
    /// How long the controller waits for an agent to finish one phase
    /// before declaring the run dead. Bounded by construction — a hung
    /// or crashed agent yields INVALID, never a wedged controller.
    pub phase_timeout: Duration,
    /// Read timeout for handshakes and pings.
    pub control_timeout: Duration,
}

impl FleetConfig {
    pub fn new(agent_addrs: Vec<String>) -> FleetConfig {
        FleetConfig {
            agent_addrs,
            phase_timeout: Duration::from_secs(600),
            control_timeout: Duration::from_secs(10),
        }
    }
}

struct AgentHandle {
    addr: String,
    conn: FrameConn,
    /// This agent's contiguous substation range `[lo, hi)`.
    sub_lo: u32,
    sub_hi: u32,
}

/// Runs the complete TPCx-IoT benchmark with workload executions
/// delegated to the agent fleet: hosts `cluster` behind a gateway
/// socket, connects and pings every agent, then drives the standard
/// two-iteration protocol. Same root seed ⇒ same merged verdict and
/// aggregate counters as [`BenchmarkRunner::run`] in-process.
pub fn run_networked(
    runner: &BenchmarkRunner,
    cluster: gateway::Cluster,
    fleet: &FleetConfig,
) -> Result<BenchmarkOutcome, String> {
    if fleet.agent_addrs.is_empty() {
        return Err("a networked run needs at least one agent".into());
    }
    let mut sut = GatewaySut::new(cluster);
    let server = GatewayServer::start(sut.shared(), "127.0.0.1:0", wire::DEFAULT_READ_TIMEOUT)
        .map_err(|e| format!("gateway server: {e}"))?;
    let gateway_addr = server.local_addr().to_string();

    // Contiguous substation ranges, balanced across the fleet.
    let substations = runner.config.substations as u32;
    let agents_n = fleet.agent_addrs.len() as u32;
    let mut agents = Vec::with_capacity(fleet.agent_addrs.len());
    for (a, addr) in fleet.agent_addrs.iter().enumerate() {
        let a = a as u32;
        let mut conn = FrameConn::connect(addr, fleet.control_timeout)
            .map_err(|e| format!("agent {addr}: {e}"))?;
        conn.client_handshake(ROLE_AGENT)
            .map_err(|e| format!("agent {addr}: {e}"))?;
        match conn.request(&Message::Ping) {
            Ok(Message::Pong) => {}
            Ok(other) => return Err(format!("agent {addr}: expected Pong, got {}", other.name())),
            Err(e) => return Err(format!("agent {addr}: {e}")),
        }
        agents.push(AgentHandle {
            addr: addr.clone(),
            conn,
            sub_lo: a * substations / agents_n,
            sub_hi: (a + 1) * substations / agents_n,
        });
    }

    let config = runner.config.clone();
    let phase_timeout = fleet.phase_timeout;
    let outcome = runner.run_with(&mut sut, |_, seed, epoch_ms, phase| {
        run_fleet_phase(
            &mut agents,
            &config,
            &gateway_addr,
            seed,
            epoch_ms,
            phase,
            phase_timeout,
        )
    });

    // Best-effort fleet shutdown; agents also exit on a dead socket.
    for agent in &mut agents {
        if agent.conn.set_read_timeout(fleet.control_timeout).is_ok()
            && agent.conn.send(&Message::Shutdown).is_ok()
        {
            let _ = agent.conn.recv();
        }
    }
    drop(server);
    Ok(outcome)
}

/// One fleet-wide workload execution: fan the phase spec out, collect
/// every agent's `PhaseDone`, merge the shipped recorders, and fold the
/// substation rows exactly as the in-process runner does.
fn run_fleet_phase(
    agents: &mut [AgentHandle],
    config: &BenchmarkConfig,
    gateway_addr: &str,
    seed: u64,
    epoch_ms: u64,
    phase: Phase,
    phase_timeout: Duration,
) -> Result<ExecutionOutcome, String> {
    let started = Instant::now();
    let template = config.phase_spec(seed, epoch_ms, phase);
    for agent in agents.iter_mut() {
        let spec = RunPhaseSpec {
            sub_lo: agent.sub_lo,
            sub_hi: agent.sub_hi,
            gateway_addr: gateway_addr.to_string(),
            ..template.clone()
        };
        agent
            .conn
            .set_read_timeout(phase_timeout)
            .map_err(|e| format!("agent {}: {e}", agent.addr))?;
        agent
            .conn
            .send(&Message::RunPhase(spec))
            .map_err(|e| format!("agent {} rejected the phase: {e}", agent.addr))?;
    }

    let mut summaries: Vec<OpSummary> = Vec::with_capacity(config.substations);
    let mut merged: Option<ThreadRecorder> = None;
    for agent in agents.iter_mut() {
        match agent.conn.recv() {
            Ok(Message::PhaseDone {
                summaries: agent_summaries,
                recorder,
            }) => {
                let rec = recorder_from_state(&recorder)
                    .map_err(|e| format!("agent {}: {e}", agent.addr))?;
                match merged.as_mut() {
                    Some(m) => m.merge(&rec),
                    None => merged = Some(rec),
                }
                summaries.extend(agent_summaries);
            }
            Ok(Message::Err { message, .. }) => {
                return Err(format!("agent {} failed the phase: {message}", agent.addr));
            }
            Ok(other) => {
                return Err(format!(
                    "agent {}: expected PhaseDone, got {}",
                    agent.addr,
                    other.name()
                ));
            }
            Err(e) => {
                // Crash (EOF/reset) or hang (bounded-read timeout):
                // either way the run is unjudgeable — INVALID, no hang.
                return Err(format!("agent {} died mid-phase: {e}", agent.addr));
            }
        }
    }
    let elapsed_secs = started.elapsed().as_secs_f64();

    // Every substation must report exactly once.
    summaries.sort_by_key(|s| s.substation);
    let expected: Vec<u32> = (0..config.substations as u32).collect();
    let got: Vec<u32> = summaries.iter().map(|s| s.substation).collect();
    if got != expected {
        return Err(format!(
            "fleet covered substations {got:?}, expected {expected:?}"
        ));
    }
    let merged = merged.ok_or("no agent shipped telemetry")?;
    Ok(fold_execution(
        &summaries,
        &merged,
        elapsed_secs,
        phase,
        &config.sustained,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_round_trips() {
        for policy in [RetryPolicy::DEFAULT, RetryPolicy::NONE] {
            let state = retry_to_state(&policy);
            let back = retry_from_state(&state);
            assert_eq!(back.max_attempts, policy.max_attempts);
            assert_eq!(back.base_backoff, policy.base_backoff);
            assert_eq!(back.max_backoff, policy.max_backoff);
            assert_eq!(back.jitter, policy.jitter);
            // Duration::MAX saturates to u64::MAX nanos — still longer
            // than any run, and stable across further round trips.
            let again = retry_to_state(&back);
            assert_eq!(again, state);
        }
    }

    #[test]
    fn recorder_round_trips_through_wire_state() {
        let mut rec = ThreadRecorder::new(1_000_000);
        rec.record_ingest(10, 1_500, 0);
        rec.record_ingest(1_000_100, 900, 2);
        rec.record_batch(2_000_000, 40_000, 16, 1);
        rec.record_query(2_500_000, 120_000, 0);
        rec.record_scan(2_500_000, 110_000, 230);
        rec.record_failed(5_000_000);
        let state = recorder_to_state(&rec);
        let back = recorder_from_state(&state).expect("valid state");
        for class in OpClass::ALL {
            let a = rec.histogram(class).summary();
            let b = back.histogram(class).summary();
            assert_eq!(a, b, "{class:?} summary must survive the wire");
        }
        assert_eq!(
            rec.ingest_series().buckets(),
            back.ingest_series().buckets()
        );
        assert_eq!(rec.query_series().buckets(), back.query_series().buckets());
        assert_eq!(
            rec.scan_rows_series().buckets(),
            back.scan_rows_series().buckets()
        );
    }

    #[test]
    fn malformed_recorder_state_is_rejected() {
        let rec = ThreadRecorder::new(1_000_000);
        let mut state = recorder_to_state(&rec);
        state.hists.pop();
        assert!(recorder_from_state(&state).is_err(), "five histograms");
        let mut state = recorder_to_state(&rec);
        state.ingest.interval_nanos = 0;
        assert!(recorder_from_state(&state).is_err(), "zero interval");
        let mut state = recorder_to_state(&rec);
        state.window_nanos = 0;
        assert!(recorder_from_state(&state).is_err(), "zero window");
    }

    #[test]
    fn kvp_split_matches_equation_3_across_any_partition() {
        // Three substations driven at once, or split over two agents'
        // ranges: every substation gets the same kvp share, seed and
        // query schedule either way.
        let config = BenchmarkConfig::new(3, 30_001);
        let whole = config.phase_spec(7, 1_700_000_000_000, Phase::Measured);
        let drive = |lo, hi| {
            let spec = RunPhaseSpec {
                sub_lo: lo,
                sub_hi: hi,
                ..whole.clone()
            };
            drive_substations(&spec, Arc::new(crate::backend::MemBackend::new())).0
        };
        let mut split = drive(0, 1);
        split.extend(drive(1, 3));
        let key = |r: &OpSummary| (r.substation, r.ingested, r.queries, r.rows.mean.to_bits());
        let whole_rows = drive(0, 3);
        assert_eq!(
            whole_rows.iter().map(key).collect::<Vec<_>>(),
            split.iter().map(key).collect::<Vec<_>>()
        );
        let ingested: Vec<u64> = whole_rows.iter().map(|r| r.ingested).collect();
        assert_eq!(ingested, [10_000, 10_000, 10_001]);
    }
}
