//! The benchmark driver (spec Fig 6 / Fig 9): prerequisite checks, two
//! iterations of warm-up + measured workload executions with data checks,
//! system cleanup between iterations, and metric derivation.

use crate::backend::GatewayBackend;
use crate::checks::{data_check, file_check, replication_check, CheckResult, KitManifest};
use crate::driver::{run_driver_with_telemetry, DriverConfig};
use crate::metrics::{
    apply_sustained_rate, apply_topology_check, degraded_run_verdict, BenchmarkMetrics,
    MeasuredRun, ResilienceSummary, RunValidity,
};
use crate::netplane::{retry_from_state, retry_to_state};
use crate::pricing::PriceSheet;
use crate::retry::RetryPolicy;
use crate::rules::{validate, RuleReport, Rules, RunFacts};
use crate::sensors::SENSORS_PER_SUBSTATION;
use crate::telemetry::{
    validate_sustained_rate, ClusterCounters, EngineCounters, MetricsRegistry, OpClass, Phase,
    PhaseSnapshot, RateViolation, RunTelemetry, SustainedRateConfig, ThreadRecorder,
};
use simkit::rng::derive_seed;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use wire::{MomentsState, OpSummary, RunPhaseSpec};

/// Everything the benchmark driver needs of the system under test.
pub trait SystemUnderTest: Send {
    /// The data-plane handle driver instances write to and query.
    fn backend(&self) -> Arc<dyn GatewayBackend>;
    /// TPCx-IoT *system cleanup*: purge all ingested data, delete
    /// temporary files, restart the data management system.
    fn cleanup(&mut self) -> Result<(), String>;
    /// A short description for reports (nodes, storage, software).
    fn describe(&self) -> String;
    /// Storage-engine counters aggregated over all nodes, if this SUT
    /// exposes an engine (sampled before cleanup resets them).
    fn engine_counters(&self) -> Option<EngineCounters> {
        None
    }
    /// Gateway-cluster counters, if this SUT is a cluster.
    fn cluster_counters(&self) -> Option<ClusterCounters> {
        None
    }
}

/// Benchmark invocation parameters — the two arguments of the real kit
/// (driver instance count and total kvps) plus knobs this reproduction
/// exposes.
#[derive(Clone, Debug)]
pub struct BenchmarkConfig {
    /// Number of simulated power substations / driver instances.
    pub substations: usize,
    /// Total kvps ingested per workload execution (default 1 billion in
    /// the kit; scale down for laptop runs).
    pub total_kvps: u64,
    /// Threads per driver instance.
    pub threads_per_driver: usize,
    /// Root seed.
    pub seed: u64,
    /// Rule thresholds to validate against.
    pub rules: Rules,
    /// Optional kit-file check: `(kit root, reference manifest)`.
    pub kit: Option<(PathBuf, KitManifest)>,
    /// Replication the SUT must provide (spec: 3).
    pub required_replication: usize,
    /// Retry policy handed to every driver instance.
    pub retry: RetryPolicy,
    /// Per-thread write-buffer size handed to every driver instance
    /// (1 = classic per-kvp ingest; larger values flush through the
    /// backend's batched path).
    pub batch_size: usize,
    /// Sustained-rate floor judged on per-window throughput of each
    /// measured execution (disabled by default — laptop runs cannot hold
    /// spec rates; [`SustainedRateConfig::per_sensor`] builds the
    /// spec-shaped floor).
    pub sustained: SustainedRateConfig,
}

impl BenchmarkConfig {
    pub fn new(substations: usize, total_kvps: u64) -> BenchmarkConfig {
        BenchmarkConfig {
            substations,
            total_kvps,
            threads_per_driver: 10,
            seed: 0x10_7057,
            rules: Rules::SPEC,
            kit: None,
            required_replication: 3,
            retry: RetryPolicy::DEFAULT,
            batch_size: 1,
            sustained: SustainedRateConfig::default(),
        }
    }

    /// The spec of one workload execution over every substation: the
    /// phase seed and epoch plus the driver template all instances share
    /// (threads, batch size, retry, sweep cadence, query mix). Built here
    /// once for both planes: the in-process runner drives it as is, the
    /// fleet narrows the range per agent and ships it.
    pub(crate) fn phase_spec(&self, seed: u64, epoch_ms: u64, phase: Phase) -> RunPhaseSpec {
        let defaults = DriverConfig::new(0, 0);
        RunPhaseSpec {
            phase: if phase == Phase::Warmup { 0 } else { 1 },
            seed,
            epoch_ms,
            sub_lo: 0,
            sub_hi: self.substations as u32,
            substations: self.substations as u32,
            total_kvps: self.total_kvps,
            threads: self.threads_per_driver as u32,
            batch_size: self.batch_size as u32,
            sweep_ms: defaults.sweep_ms,
            queries_per_10k: defaults.queries_per_10k,
            retry: retry_to_state(&self.retry),
            window_nanos: self.sustained.window_nanos,
            gateway_addr: String::new(),
        }
    }
}

/// Per the spec's equation (3): of `substations` instances, instance `i`
/// ingests `⌊K/P⌋` kvps and the last also takes `K mod P`.
pub fn kvps_for_instance(total_kvps: u64, substations: usize, i: usize) -> u64 {
    let per = total_kvps / substations as u64;
    if i + 1 == substations {
        per + total_kvps % substations as u64
    } else {
        per
    }
}

/// Runs the driver instances of substations `[spec.sub_lo, spec.sub_hi)`
/// concurrently against `backend`: the one execution routine of both
/// planes. The in-process runner passes every substation and the SUT's
/// backend, an agent its own range and a `NetBackend`. Each instance
/// takes its Eq. (3) share and a seed derived from its *global* index,
/// so how a fleet partitions substations never changes any driver's
/// schedule. Returns one row per substation, in order, and the
/// instances' merged telemetry recorder.
pub(crate) fn drive_substations(
    spec: &RunPhaseSpec,
    backend: Arc<dyn GatewayBackend>,
) -> (Vec<OpSummary>, ThreadRecorder) {
    let phase = if spec.phase == 0 {
        Phase::Warmup
    } else {
        Phase::Measured
    };
    let telemetry = RunTelemetry::new(phase, spec.window_nanos);
    let retry = retry_from_state(&spec.retry);
    let rows = std::thread::scope(|scope| {
        let handles: Vec<_> = (spec.sub_lo..spec.sub_hi)
            .map(|i| {
                let config = DriverConfig {
                    substation_index: i as usize,
                    kvps: kvps_for_instance(spec.total_kvps, spec.substations as usize, i as usize),
                    threads: spec.threads as usize,
                    seed: derive_seed(spec.seed, i as u64),
                    epoch_ms: spec.epoch_ms,
                    sweep_ms: spec.sweep_ms,
                    queries_per_10k: spec.queries_per_10k,
                    retry,
                    batch_size: spec.batch_size as usize,
                };
                let (backend, telemetry) = (Arc::clone(&backend), &telemetry);
                let handle =
                    scope.spawn(move || run_driver_with_telemetry(&config, backend, telemetry));
                (i, handle)
            })
            .collect();
        handles
            .into_iter()
            .map(|(i, h)| {
                let r = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                let (n, mean, m2, min, max) = r.rows_per_query.parts();
                OpSummary {
                    substation: i,
                    ingested: r.ingested,
                    insert_failures: r.insert_failures,
                    insert_retries: r.insert_retries,
                    queries: r.queries_executed,
                    query_failures: r.query_failures,
                    query_retries: r.query_retries,
                    rows: MomentsState {
                        n,
                        mean,
                        m2,
                        min,
                        max,
                    },
                    elapsed_secs: r.elapsed_secs,
                }
            })
            .collect()
    });
    (rows, telemetry.merged_recorder())
}

/// Folds one execution's per-substation rows (in substation order) and
/// merged recorder into its outcome. The one place an
/// [`ExecutionOutcome`] is built: the in-process runner and the fleet
/// controller both call it, so the two planes cannot drift apart.
pub(crate) fn fold_execution(
    rows: &[OpSummary],
    recorder: &ThreadRecorder,
    elapsed_secs: f64,
    phase: Phase,
    sustained: &SustainedRateConfig,
) -> ExecutionOutcome {
    let telemetry = recorder.snapshot(phase);
    // Only measured executions are judged: the spec's sustained-rate
    // contract covers the measurement interval, not warm-up.
    let rate_violations = if phase == Phase::Measured {
        validate_sustained_rate(&telemetry.ingest_windows, sustained)
    } else {
        Vec::new()
    };
    let queries: u64 = rows.iter().map(|r| r.queries).sum();
    // Mean × count per substation; an empty accumulator has mean 0.0,
    // so the product is exact.
    let rows_sum: f64 = rows.iter().map(|r| r.rows.mean * r.rows.n as f64).sum();
    ExecutionOutcome {
        elapsed_secs,
        ingested: rows.iter().map(|r| r.ingested).sum(),
        insert_failures: rows.iter().map(|r| r.insert_failures).sum(),
        insert_retries: rows.iter().map(|r| r.insert_retries).sum(),
        queries,
        query_retries: rows.iter().map(|r| r.query_retries).sum(),
        avg_rows_per_query: if queries == 0 {
            0.0
        } else {
            rows_sum / queries as f64
        },
        driver_secs: rows.iter().map(|r| r.elapsed_secs).collect(),
        query_latency: recorder.histogram(OpClass::Query).summary(),
        telemetry,
        rate_violations,
    }
}

/// Metrics of one workload execution.
#[derive(Clone, Debug)]
pub struct ExecutionOutcome {
    pub elapsed_secs: f64,
    pub ingested: u64,
    pub insert_failures: u64,
    /// Insert attempts beyond the first (transient failures absorbed by
    /// the retry layer).
    pub insert_retries: u64,
    pub queries: u64,
    pub query_retries: u64,
    pub avg_rows_per_query: f64,
    /// Per-substation ingest completion seconds.
    pub driver_secs: Vec<f64>,
    /// Query latency summary (nanoseconds, from the merged recorder's
    /// `Query` histogram).
    pub query_latency: simkit::stats::Summary,
    /// Per-phase telemetry: latency histograms and windowed throughput.
    pub telemetry: PhaseSnapshot,
    /// Full 1 s windows whose ingest throughput fell below the
    /// configured sustained-rate floor.
    pub rate_violations: Vec<RateViolation>,
}

/// One benchmark iteration: warm-up + measured + data check.
#[derive(Clone, Debug)]
pub struct IterationOutcome {
    pub warmup: ExecutionOutcome,
    pub measured: ExecutionOutcome,
    pub data_check: CheckResult,
    pub rule_report: RuleReport,
    /// Retry/failover accounting over the whole iteration (warm-up +
    /// measured; the backend counters reset with system cleanup).
    pub resilience: ResilienceSummary,
    /// Degraded-run verdict: acknowledged-data loss, sensor starvation,
    /// or a sustained-rate window violation invalidates the iteration.
    pub validity: RunValidity,
    /// Engine counters sampled after the measured execution, before the
    /// cleanup that resets them (`None` for engine-less SUTs).
    pub engine: Option<EngineCounters>,
    /// Gateway-cluster counters sampled at the same point.
    pub cluster: Option<ClusterCounters>,
}

/// The full benchmark outcome.
#[derive(Clone, Debug)]
pub struct BenchmarkOutcome {
    pub prerequisite_checks: Vec<CheckResult>,
    pub iterations: Vec<IterationOutcome>,
    /// None when a prerequisite check aborted the run.
    pub metrics: Option<BenchmarkMetrics>,
    pub sut_description: String,
    /// Unified observability registry (driver telemetry + engine +
    /// cluster counters), ready for JSON / Prometheus export.
    pub registry: MetricsRegistry,
}

impl BenchmarkOutcome {
    /// A result is publishable when every check and rule passed and no
    /// iteration lost acknowledged data or starved its sensors.
    pub fn publishable(&self) -> bool {
        self.prerequisite_checks.iter().all(|c| c.passed)
            && self.iterations.len() == 2
            && self
                .iterations
                .iter()
                .all(|it| it.data_check.passed && it.rule_report.valid() && it.validity.valid)
    }
}

/// The benchmark driver.
pub struct BenchmarkRunner {
    pub config: BenchmarkConfig,
    /// Priced configuration used for `$/IoTps`.
    pub price_sheet: PriceSheet,
}

impl BenchmarkRunner {
    pub fn new(config: BenchmarkConfig, price_sheet: PriceSheet) -> BenchmarkRunner {
        BenchmarkRunner {
            config,
            price_sheet,
        }
    }

    /// Runs the complete benchmark against `sut` (Fig 6's flow) with
    /// in-process driver instances: each workload execution drives every
    /// substation concurrently against the SUT's backend.
    pub fn run(&self, sut: &mut dyn SystemUnderTest) -> BenchmarkOutcome {
        self.run_with(sut, |sut, seed, epoch_ms, phase| {
            let spec = self.config.phase_spec(seed, epoch_ms, phase);
            let backend = sut.backend();
            let started = Instant::now();
            let (rows, recorder) = drive_substations(&spec, backend);
            let elapsed_secs = started.elapsed().as_secs_f64();
            Ok(fold_execution(
                &rows,
                &recorder,
                elapsed_secs,
                phase,
                &self.config.sustained,
            ))
        })
    }

    /// The benchmark protocol with the workload execution abstracted
    /// out: prerequisite checks, two iterations of warm-up + measured
    /// with data checks and cleanup in between, metric derivation.
    /// `exec` performs one workload execution — in-process driver
    /// threads for [`BenchmarkRunner::run`], a remote agent fleet for
    /// the networked controller. An `Err` from `exec` (e.g. an agent
    /// died mid-run) aborts the benchmark with an INVALID verdict
    /// carrying the reason — never a hang, never a silent VALID.
    pub(crate) fn run_with(
        &self,
        sut: &mut dyn SystemUnderTest,
        mut exec: impl FnMut(&dyn SystemUnderTest, u64, u64, Phase) -> Result<ExecutionOutcome, String>,
    ) -> BenchmarkOutcome {
        let mut prerequisite_checks = Vec::new();
        if let Some((root, manifest)) = &self.config.kit {
            prerequisite_checks.push(file_check(root, manifest));
        }
        prerequisite_checks.push(replication_check(
            sut.backend().as_ref(),
            self.config.required_replication,
        ));
        if prerequisite_checks.iter().any(|c| !c.passed) {
            // Fig 6: a failed prerequisite aborts the run.
            return BenchmarkOutcome {
                prerequisite_checks,
                iterations: Vec::new(),
                metrics: None,
                sut_description: sut.describe(),
                registry: MetricsRegistry::new(),
            };
        }

        let mut iterations = Vec::new();
        for iteration in 0..2u64 {
            let plan = iteration_plan(self.config.seed, iteration);
            let warmup = match exec(&*sut, plan.warm_seed, plan.warm_epoch_ms, Phase::Warmup) {
                Ok(outcome) => outcome,
                Err(reason) => {
                    return self.abort_outcome(sut, prerequisite_checks, iterations, reason)
                }
            };
            let measured = match exec(&*sut, plan.meas_seed, plan.meas_epoch_ms, Phase::Measured) {
                Ok(outcome) => outcome,
                Err(reason) => {
                    return self.abort_outcome(sut, prerequisite_checks, iterations, reason)
                }
            };
            iterations.push(judge_iteration(&self.config, &*sut, warmup, measured));
            // System cleanup between iterations (and after the last, so
            // the SUT is left pristine).
            if let Err(e) = sut.cleanup() {
                if let Some(iteration) = iterations.last_mut() {
                    iteration.data_check = CheckResult {
                        name: "data check",
                        passed: false,
                        detail: format!("system cleanup failed: {e}"),
                    };
                }
                break;
            }
        }

        let metrics = if iterations.len() == 2 {
            Some(BenchmarkMetrics::derive(
                MeasuredRun {
                    ingested: iterations[0].measured.ingested,
                    elapsed_secs: iterations[0].measured.elapsed_secs,
                },
                MeasuredRun {
                    ingested: iterations[1].measured.ingested,
                    elapsed_secs: iterations[1].measured.elapsed_secs,
                },
                self.price_sheet.total_cost(),
                self.price_sheet.availability_date().unwrap_or("n/a"),
            ))
        } else {
            None
        };

        let registry = build_registry(&iterations);
        BenchmarkOutcome {
            prerequisite_checks,
            iterations,
            metrics,
            sut_description: sut.describe(),
            registry,
        }
    }

    /// The outcome of a run a failed execution cut short: whatever
    /// iterations completed, no derived metrics, and an INVALID verdict
    /// naming the failure.
    fn abort_outcome(
        &self,
        sut: &mut dyn SystemUnderTest,
        prerequisite_checks: Vec<CheckResult>,
        iterations: Vec<IterationOutcome>,
        reason: String,
    ) -> BenchmarkOutcome {
        let mut registry = build_registry(&iterations);
        registry.verdict = "INVALID".into();
        registry.verdict_reasons.push(reason);
        BenchmarkOutcome {
            prerequisite_checks,
            iterations,
            metrics: None,
            sut_description: sut.describe(),
            registry,
        }
    }
}

/// Seeds and virtual acquisition epochs of one iteration's two workload
/// executions. One virtual hour between executions keeps their key
/// ranges disjoint, as wall-clock time does in a real run. Derived only
/// from the root seed and iteration number, so the in-process runner and
/// the networked controller replay identical schedules.
pub(crate) struct IterationPlan {
    pub warm_seed: u64,
    pub meas_seed: u64,
    pub warm_epoch_ms: u64,
    pub meas_epoch_ms: u64,
}

pub(crate) fn iteration_plan(root_seed: u64, iteration: u64) -> IterationPlan {
    let base_epoch = 1_700_000_000_000u64 + iteration * 7_200_000;
    IterationPlan {
        warm_seed: derive_seed(root_seed, iteration * 2),
        meas_seed: derive_seed(root_seed, iteration * 2 + 1),
        warm_epoch_ms: base_epoch,
        meas_epoch_ms: base_epoch + 3_600_000,
    }
}

/// Judges one completed iteration: data check (warm-up and measured each
/// ingested the full workload into the un-purged store), execution
/// rules, resilience accounting, the degraded-run verdict, and the
/// engine/cluster counter sample — which must happen here, *before* the
/// cleanup that resets them.
pub(crate) fn judge_iteration(
    config: &BenchmarkConfig,
    sut: &dyn SystemUnderTest,
    warmup: ExecutionOutcome,
    measured: ExecutionOutcome,
) -> IterationOutcome {
    let expected = 2 * config.total_kvps;
    let check = data_check(sut.backend().as_ref(), expected);
    let facts = RunFacts {
        elapsed_secs: measured.elapsed_secs.min(warmup.elapsed_secs),
        ingested_kvps: measured.ingested,
        substations: config.substations,
        sensors_per_substation: SENSORS_PER_SUBSTATION as u64,
        avg_rows_per_query: measured.avg_rows_per_query,
    };
    let rule_report = validate(&config.rules, &facts);
    let resilience = ResilienceSummary {
        insert_retries: warmup.insert_retries + measured.insert_retries,
        query_retries: warmup.query_retries + measured.query_retries,
        insert_failures: warmup.insert_failures + measured.insert_failures,
        backend: sut.backend().resilience(),
    };
    // Acknowledged = what the drivers saw succeed across both
    // executions; persisted = what the backend reports ingested.
    let acknowledged = warmup.ingested + measured.ingested;
    let mut validity = degraded_run_verdict(
        acknowledged,
        sut.backend().ingested_count(),
        facts.per_sensor_rate(),
        config.rules.min_per_sensor_rate,
    );
    apply_sustained_rate(&mut validity, &measured.rate_violations);
    let engine = sut.engine_counters();
    let cluster = sut.cluster_counters();
    // An inconsistent routing table after online splits, migrations, or
    // drains invalidates the iteration.
    apply_topology_check(&mut validity, cluster.as_ref());
    IterationOutcome {
        warmup,
        measured,
        data_check: check,
        rule_report,
        resilience,
        validity,
        engine,
        cluster,
    }
}

/// Assembles the unified [`MetricsRegistry`] from completed iterations:
/// every execution phase labelled `iter<N>/<phase>`, engine and cluster
/// counters summed across iterations, and the overall verdict (an
/// invalid iteration invalidates the whole result).
pub(crate) fn build_registry(iterations: &[IterationOutcome]) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    let mut engine = EngineCounters::default();
    let mut saw_engine = false;
    let mut cluster: Option<ClusterCounters> = None;
    let mut valid = true;
    for (i, it) in iterations.iter().enumerate() {
        let n = i + 1;
        registry.add_phase(
            format!("iter{n}/warmup"),
            it.warmup.telemetry.clone(),
            it.warmup.rate_violations.clone(),
        );
        registry.add_phase(
            format!("iter{n}/measured"),
            it.measured.telemetry.clone(),
            it.measured.rate_violations.clone(),
        );
        if let Some(e) = &it.engine {
            engine.accumulate(e);
            saw_engine = true;
        }
        if let Some(c) = &it.cluster {
            match cluster.as_mut() {
                Some(total) => total.merge(c),
                None => cluster = Some(c.clone()),
            }
        }
        if !it.validity.valid {
            valid = false;
            for reason in &it.validity.reasons {
                registry
                    .verdict_reasons
                    .push(format!("iteration {n}: {reason}"));
            }
        }
    }
    if saw_engine {
        registry.engine = engine;
    }
    registry.cluster = cluster;
    registry.verdict = if valid { "VALID" } else { "INVALID" }.into();
    registry
}

/// A [`SystemUnderTest`] over the in-process gateway cluster.
pub struct GatewaySut {
    cluster: Arc<parking_lot::RwLock<gateway::Cluster>>,
}

impl GatewaySut {
    pub fn new(cluster: gateway::Cluster) -> GatewaySut {
        GatewaySut {
            cluster: Arc::new(parking_lot::RwLock::new(cluster)),
        }
    }

    /// Wraps an already-shared cluster — the networked controller hands
    /// the same handle to the socket server and the benchmark protocol.
    pub fn from_shared(cluster: Arc<parking_lot::RwLock<gateway::Cluster>>) -> GatewaySut {
        GatewaySut { cluster }
    }

    /// The shared cluster handle (e.g. to start a
    /// [`gateway::GatewayServer`] over it).
    pub fn shared(&self) -> Arc<parking_lot::RwLock<gateway::Cluster>> {
        Arc::clone(&self.cluster)
    }
}

impl SystemUnderTest for GatewaySut {
    fn backend(&self) -> Arc<dyn GatewayBackend> {
        self.shared()
    }

    fn cleanup(&mut self) -> Result<(), String> {
        self.cluster.write().purge().map_err(|e| e.to_string())
    }

    fn describe(&self) -> String {
        let c = self.cluster.read();
        format!(
            "in-process gateway cluster: {} nodes, {}-way replication, iotkv storage",
            c.node_count(),
            c.effective_replication()
        )
    }

    fn engine_counters(&self) -> Option<EngineCounters> {
        Some(self.cluster.read().stats().engine)
    }

    fn cluster_counters(&self) -> Option<ClusterCounters> {
        Some(self.cluster.read().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    /// A trivial SUT over the in-memory backend.
    struct MemSut {
        backend: Arc<MemBackend>,
        cleanups: u32,
    }

    impl SystemUnderTest for MemSut {
        fn backend(&self) -> Arc<dyn GatewayBackend> {
            Arc::clone(&self.backend) as Arc<dyn GatewayBackend>
        }
        fn cleanup(&mut self) -> Result<(), String> {
            self.backend = Arc::new(MemBackend::new());
            self.cleanups += 1;
            Ok(())
        }
        fn describe(&self) -> String {
            "in-memory test SUT".into()
        }
    }

    fn config() -> BenchmarkConfig {
        let mut c = BenchmarkConfig::new(2, 30_000);
        c.threads_per_driver = 3;
        // Laptop-scale floors: rates can't hit spec numbers in a unit test.
        c.rules = Rules {
            min_elapsed_secs: 0.0,
            min_per_sensor_rate: 0.0,
            min_rows_per_query: 0.0,
        };
        c
    }

    #[test]
    fn kvp_split_follows_equation_3() {
        assert_eq!(kvps_for_instance(100_001, 3, 0), 33_333);
        assert_eq!(kvps_for_instance(100_001, 3, 1), 33_333);
        assert_eq!(kvps_for_instance(100_001, 3, 2), 33_335);
        let total: u64 = (0..3).map(|i| kvps_for_instance(100_001, 3, i)).sum();
        assert_eq!(total, 100_001);
    }

    #[test]
    fn full_benchmark_flow() {
        let runner = BenchmarkRunner::new(config(), PriceSheet::sample_cluster(2));
        let mut sut = MemSut {
            backend: Arc::new(MemBackend::new()),
            cleanups: 0,
        };
        let outcome = runner.run(&mut sut);
        assert_eq!(outcome.iterations.len(), 2);
        assert_eq!(sut.cleanups, 2, "cleanup between and after iterations");
        for it in &outcome.iterations {
            assert_eq!(it.measured.ingested, 30_000);
            assert_eq!(it.warmup.ingested, 30_000);
            assert!(it.data_check.passed, "{}", it.data_check.detail);
            assert!(it.rule_report.valid());
            assert!(it.measured.queries > 0);
            assert!(it.measured.avg_rows_per_query > 0.0);
        }
        let metrics = outcome.metrics.as_ref().expect("metrics derived");
        assert!(metrics.iotps > 0.0);
        assert!(metrics.price_per_iotps > 0.0);
        assert!(outcome.publishable());
    }

    #[test]
    fn batched_benchmark_flow_is_equivalent() {
        let mut c = config();
        c.batch_size = 16;
        let runner = BenchmarkRunner::new(c, PriceSheet::sample_cluster(2));
        let mut sut = MemSut {
            backend: Arc::new(MemBackend::new()),
            cleanups: 0,
        };
        let outcome = runner.run(&mut sut);
        assert_eq!(outcome.iterations.len(), 2);
        for it in &outcome.iterations {
            assert_eq!(it.measured.ingested, 30_000);
            assert!(it.data_check.passed, "{}", it.data_check.detail);
            assert!(it.measured.queries > 0);
            assert!(it.measured.avg_rows_per_query > 0.0);
        }
        assert!(outcome.publishable());
    }

    #[test]
    fn failed_replication_check_aborts() {
        struct WeakSut(Arc<MemBackend>);
        struct WeakBackend(Arc<MemBackend>);
        impl GatewayBackend for WeakBackend {
            fn insert(&self, k: &[u8], v: &[u8]) -> crate::backend::BackendResult<()> {
                self.0.insert(k, v)
            }
            fn scan_fold(
                &self,
                s: &[u8],
                e: &[u8],
                visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
            ) -> crate::backend::BackendResult<u64> {
                self.0.scan_fold(s, e, visit)
            }
            fn replication_factor(&self) -> usize {
                1 // no replication: must fail the prerequisite
            }
            fn ingested_count(&self) -> u64 {
                self.0.ingested_count()
            }
        }
        impl SystemUnderTest for WeakSut {
            fn backend(&self) -> Arc<dyn GatewayBackend> {
                Arc::new(WeakBackend(Arc::clone(&self.0)))
            }
            fn cleanup(&mut self) -> Result<(), String> {
                Ok(())
            }
            fn describe(&self) -> String {
                "unreplicated SUT".into()
            }
        }

        let runner = BenchmarkRunner::new(config(), PriceSheet::sample_cluster(2));
        let mut sut = WeakSut(Arc::new(MemBackend::new()));
        let outcome = runner.run(&mut sut);
        assert!(outcome.iterations.is_empty(), "run aborted");
        assert!(outcome.metrics.is_none());
        assert!(!outcome.publishable());
    }

    #[test]
    fn spec_rules_fail_a_laptop_run() {
        let mut c = config();
        c.rules = Rules::SPEC; // 1800s floor cannot hold in a unit test
        let runner = BenchmarkRunner::new(c, PriceSheet::sample_cluster(2));
        let mut sut = MemSut {
            backend: Arc::new(MemBackend::new()),
            cleanups: 0,
        };
        let outcome = runner.run(&mut sut);
        assert!(!outcome.publishable());
        assert!(!outcome.iterations[0].rule_report.valid());
    }
}
