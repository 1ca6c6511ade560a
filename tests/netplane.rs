//! The networked benchmark plane end to end over loopback TCP: a
//! controller, a fleet of driver agents, and the gateway cluster behind
//! a real socket. The contract under test is the tentpole invariant —
//! same root seed ⇒ same merged verdict and aggregate counters as the
//! in-process runner — plus the failure side: a crashed agent must
//! surface as an INVALID verdict, never a hang.

use std::net::TcpListener;
use std::time::Duration;

use gateway::server::GatewayServer;
use tpcx_iot::netplane::{retry_to_state, run_networked, spawn_local_agent, FleetConfig};
use tpcx_iot::pricing::PriceSheet;
use tpcx_iot::rules::Rules;
use tpcx_iot::runner::{BenchmarkConfig, BenchmarkOutcome, BenchmarkRunner, GatewaySut};
use tpcx_iot::RetryPolicy;
use wire::{FrameConn, Message, RunPhaseSpec};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tpcx-netplane-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn cluster(dir: &std::path::Path, nodes: usize) -> gateway::Cluster {
    let mut config = gateway::ClusterConfig::new(dir, nodes);
    config.storage = iotkv::Options {
        memtable_bytes: 2 << 20,
        block_bytes: 4 << 10,
        l1_bytes: 8 << 20,
        table_bytes: 2 << 20,
        ..iotkv::Options::default()
    };
    gateway::Cluster::start(config).unwrap()
}

fn lab_config() -> BenchmarkConfig {
    // 16k kvps over 2 substations × 2 threads = 4k readings per thread:
    // enough that every thread crosses the query cadence (one dashboard
    // query per 2,000 readings at the spec's 5-per-10k mix).
    let mut config = BenchmarkConfig::new(2, 16_000);
    config.threads_per_driver = 2;
    config.rules = Rules {
        min_elapsed_secs: 0.0,
        min_per_sensor_rate: 0.0,
        min_rows_per_query: 0.0,
    };
    config
}

fn run_fleet(name: &str, agents: usize) -> BenchmarkOutcome {
    let dir = tmpdir(name);
    let fleet = FleetConfig::new(
        (0..agents)
            .map(|_| spawn_local_agent().expect("agent").0)
            .collect(),
    );
    let runner = BenchmarkRunner::new(lab_config(), PriceSheet::sample_cluster(3));
    let outcome = run_networked(&runner, cluster(&dir, 3), &fleet).expect("networked run");
    std::fs::remove_dir_all(dir).ok();
    outcome
}

/// The counters that must be invariant across execution planes. Latency
/// summaries legitimately differ (network latency); the work counters
/// must not, and neither must rows-per-query: each thread queries only
/// its own sensors after flushing its own writes, and both planes fold
/// the same substation rows in one routine.
type Invariants = (u64, u64, u64, u64, bool, u64, u64);

fn invariant_counters(outcome: &BenchmarkOutcome) -> Vec<Invariants> {
    outcome
        .iterations
        .iter()
        .map(|it| {
            (
                it.warmup.ingested,
                it.measured.ingested,
                it.warmup.queries,
                it.measured.queries,
                it.data_check.passed,
                it.measured.insert_retries,
                it.measured.avg_rows_per_query.to_bits(),
            )
        })
        .collect()
}

#[test]
fn networked_fleet_matches_in_process_run_on_same_seed() {
    let dir = tmpdir("inproc");
    let runner = BenchmarkRunner::new(lab_config(), PriceSheet::sample_cluster(3));
    let mut sut = GatewaySut::new(cluster(&dir, 3));
    let inproc = runner.run(&mut sut);
    std::fs::remove_dir_all(dir).ok();

    let one = run_fleet("one-agent", 1);
    let two = run_fleet("two-agents", 2);

    for (label, outcome) in [
        ("in-process", &inproc),
        ("1 agent", &one),
        ("2 agents", &two),
    ] {
        assert!(
            outcome.prerequisite_checks.iter().all(|c| c.passed),
            "{label}: {:?}",
            outcome.prerequisite_checks
        );
        assert_eq!(outcome.iterations.len(), 2, "{label}");
        assert_eq!(
            outcome.registry.verdict, "VALID",
            "{label}: {:?}",
            outcome.registry.verdict_reasons
        );
        assert!(outcome.publishable(), "{label}");
        assert!(outcome.metrics.is_some(), "{label}");
        for it in &outcome.iterations {
            assert!(it.measured.queries > 0, "{label}: queries ran");
            assert!(it.measured.query_latency.count > 0, "{label}");
            assert_eq!(it.measured.insert_failures, 0, "{label}");
            assert_eq!(
                it.measured.telemetry.ingest.count, it.measured.ingested,
                "{label}: merged telemetry must count every ingested kvp"
            );
        }
    }

    // Same seed, same counters — regardless of the execution plane or
    // how the fleet partitions the substations.
    let baseline = invariant_counters(&inproc);
    assert_eq!(baseline, invariant_counters(&one), "1-agent fleet");
    assert_eq!(baseline, invariant_counters(&two), "2-agent fleet");

    // IoTps depends on wall-clock, but the workload scale must agree.
    let kvps = |o: &BenchmarkOutcome| o.iterations[0].measured.ingested;
    assert_eq!(kvps(&inproc), 16_000);
}

#[test]
fn crashed_agent_yields_invalid_verdict_not_a_hang() {
    // A saboteur agent: handshakes, answers the liveness ping, accepts
    // the first RunPhase — then drops the connection mid-phase.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let saboteur = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream, Duration::from_secs(30)).unwrap();
        conn.server_handshake().unwrap();
        loop {
            match conn.recv().unwrap() {
                Message::Ping => conn.send(&Message::Pong).unwrap(),
                Message::RunPhase(_) => return, // crash: drop the socket
                other => panic!("unexpected {}", other.name()),
            }
        }
    });

    let dir = tmpdir("crash");
    let mut fleet = FleetConfig::new(vec![addr.clone()]);
    // Keep the failure path fast: the dropped connection surfaces as an
    // immediate EOF, the timeout only bounds a silently hung agent.
    fleet.phase_timeout = Duration::from_secs(30);
    let runner = BenchmarkRunner::new(lab_config(), PriceSheet::sample_cluster(3));
    let outcome = run_networked(&runner, cluster(&dir, 3), &fleet).expect("aborted, not failed");
    saboteur.join().unwrap();
    std::fs::remove_dir_all(dir).ok();

    assert_eq!(outcome.registry.verdict, "INVALID");
    assert!(
        outcome
            .registry
            .verdict_reasons
            .iter()
            .any(|r| r.contains(&addr) && r.contains("died mid-phase")),
        "verdict must name the dead agent: {:?}",
        outcome.registry.verdict_reasons
    );
    assert!(outcome.metrics.is_none(), "no metrics from an aborted run");
    assert!(!outcome.publishable());
    assert!(outcome.iterations.is_empty(), "first phase never completed");
}

/// A `RunPhase` with a zero telemetry window is refused at the protocol
/// boundary with an `Err` reply, and the agent keeps serving — it must
/// not reach the telemetry's own nonzero-window assertion.
#[test]
fn zero_window_phase_is_refused_and_agent_survives() {
    let dir = tmpdir("zero-window");
    let sut = GatewaySut::new(cluster(&dir, 1));
    let server = GatewayServer::start(sut.shared(), "127.0.0.1:0", Duration::from_secs(10))
        .expect("gateway server");
    let (addr, handle) = spawn_local_agent().expect("agent");
    let mut conn = FrameConn::connect(&addr, Duration::from_secs(30)).unwrap();
    conn.client_handshake(wire::msg::ROLE_AGENT).unwrap();

    let spec = RunPhaseSpec {
        phase: 1,
        seed: 1,
        epoch_ms: 1_700_000_000_000,
        sub_lo: 0,
        sub_hi: 1,
        substations: 1,
        total_kvps: 100,
        threads: 1,
        batch_size: 1,
        sweep_ms: 10,
        queries_per_10k: 5,
        retry: retry_to_state(&RetryPolicy::DEFAULT),
        window_nanos: 0,
        gateway_addr: server.local_addr().to_string(),
    };
    match conn.request(&Message::RunPhase(spec)) {
        Ok(Message::Err { message, .. }) => assert!(message.contains("window"), "{message}"),
        other => panic!("expected an Err reply, got {other:?}"),
    }
    assert_eq!(conn.request(&Message::Ping).unwrap(), Message::Pong);

    assert_eq!(conn.request(&Message::Shutdown).unwrap(), Message::Ok);
    handle.join().unwrap().expect("agent exits cleanly");
    drop(server);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn fleet_shutdown_terminates_agents() {
    let (addr, handle) = spawn_local_agent().expect("agent");
    let mut conn = FrameConn::connect(&addr, Duration::from_secs(5)).unwrap();
    conn.client_handshake(wire::msg::ROLE_AGENT).unwrap();
    assert_eq!(conn.request(&Message::Ping).unwrap(), Message::Pong);
    assert_eq!(conn.request(&Message::Shutdown).unwrap(), Message::Ok);
    handle.join().unwrap().expect("agent exits cleanly");
}
