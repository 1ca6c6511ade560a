//! Runs all four workloads, both passes, at `--seconds 0.4` through the
//! real binary, and checks what it wrote against the metric table.

use iotbench::json::Json;
use iotbench::metrics::{valid_name, valid_unit, END_TO_END, PER_LAYER, WORKLOADS};
use iotbench::results::{self, Results, Verdict};
use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn every_workload_and_pass_runs_gated_and_named() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let started = Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_iotbench"))
        .args(["run", "--seed", "3", "--seconds", "0.4", "--out"])
        .arg(&out)
        .status()
        .expect("iotbench starts");
    assert!(status.success(), "iotbench run failed: {status}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "smoke run took {:?}",
        started.elapsed()
    );

    let run = Results::load(out.to_str().unwrap()).expect("result file loads");
    for w in &WORKLOADS {
        let e2e = &run.end_to_end[w.name];
        assert_eq!(e2e.len(), END_TO_END.len(), "{}", w.name);
        for m in &END_TO_END {
            let value = e2e[m.name];
            assert!(
                value.is_finite() && value > 0.0,
                "{} on {}: {value}",
                m.name,
                w.name
            );
        }
        let layers = &run.per_layer[w.name];
        assert_eq!(layers.len(), PER_LAYER.len(), "{}", w.name);
        for m in &PER_LAYER {
            assert!(layers[m.name].is_finite(), "{} on {}", m.name, w.name);
        }
        for name in e2e.keys().chain(layers.keys()) {
            assert!(valid_name(name), "{name}");
        }
        let (attempted, failed) = run.ops[w.name];
        assert!(
            attempted > 0 && failed == 0,
            "{}: {failed} of {attempted} failed",
            w.name
        );
        assert!(out.with_extension(format!("spans-{}.csv", w.name)).exists());
    }
    assert_eq!(run.env["scale"], "0.02");

    // The same op stream whichever plane carried it, and exact counts.
    let count = |w: &str, m: &str| run.per_layer[w][m];
    assert_eq!(
        count("tpcx_inproc", "gateway.cluster.puts"),
        count("tpcx_net", "gateway.cluster.puts")
    );
    assert_eq!(
        count("tpcx_inproc", "gateway.cluster.replica_writes_per_put"),
        3.0
    );
    assert_eq!(
        count("ingest_batch256", "gateway.cluster.batch_fill"),
        256.0
    );
    assert_eq!(
        count("query_scan", "gateway.cluster.rows_streamed"),
        count("query_scan", "core.driver.rows_read")
    );

    // A run compared with itself has no regression, in either direction.
    let rows = results::compare(&run, &run, None);
    assert_eq!(rows.len(), WORKLOADS.len() * (END_TO_END.len() + 1));
    assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
}

/// The single-pass entry point the driver calls prints the contract's
/// line last: exactly `correct`, `attempted`, `failed`, `metrics`.
#[test]
fn one_pass_prints_the_contract_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_iotbench"))
        .args([
            "--workload",
            "tpcx_net",
            "--seed",
            "9",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ])
        .output()
        .expect("iotbench starts");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let doc = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
    assert_eq!(metrics.len(), END_TO_END.len());
    for m in &END_TO_END {
        let entry = &metrics[m.name];
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        assert!(valid_unit(m.unit));
        assert!(entry.get("value").and_then(Json::as_f64).unwrap() > 0.0);
    }

    // Bad arguments fail without printing a result.
    let bad = Command::new(env!("CARGO_BIN_EXE_iotbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .unwrap();
    assert!(!bad.status.success() && bad.stdout.is_empty());
}
