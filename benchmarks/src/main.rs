//! `iotbench` — one end-to-end + per-layer benchmark for the
//! driver → socket → cluster → LSM path. See `README.md`.
//!
//! ```text
//! iotbench --workload W --seed N --seconds S --trace 0|1   one pass of one workload; last stdout line is JSON
//! iotbench run [--seed N] [--seconds S] [--out FILE]       every workload, both passes, each in a child process
//! iotbench compare A.json B.json [--spreads FILE]          B against base A, one row per (metric, workload)
//! iotbench spread OUT.json RUN.json...                     run-to-run spread of several result files
//! iotbench manifest                                        BENCHMARK.json, generated from the metric table
//! iotbench metrics                                         every workload and metric with its definition
//! ```

use iotbench::json::Json;
use iotbench::metrics::{self, END_TO_END, PER_LAYER, REFERENCE_SECONDS};
use iotbench::report;
use iotbench::results::{self, Results, Verdict};
use iotbench::workloads::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("spread") => spread(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(())
        }
        Some("metrics") => {
            print!("{}", metrics::describe());
            Ok(())
        }
        _ => run_one(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("iotbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Splits `--flag value` pairs from positional arguments.
fn parse_flags(args: &[String]) -> Result<(BTreeMap<&str, &str>, Vec<&str>), String> {
    let mut flags = BTreeMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(flag) => {
                let value = it.next().ok_or(format!("--{flag} needs a value"))?;
                flags.insert(flag, value.as_str());
            }
            None => positional.push(arg.as_str()),
        }
    }
    Ok((flags, positional))
}

fn flag<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v.parse().map_err(|_| format!("bad --{name} {v:?}")),
        None => default.ok_or(format!("--{name} is required")),
    }
}

fn seconds_flag(flags: &BTreeMap<&str, &str>, default: Option<f64>) -> Result<f64, String> {
    let seconds: f64 = flag(flags, "seconds", default)?;
    if seconds.is_finite() && seconds > 0.0 && seconds <= 60.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is outside (0, 60]"))
    }
}

/// The driver's entry point: one pass of one workload.
fn run_one(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {:?}", positional[0]));
    }
    let name: String = flag(&flags, "workload", None)?;
    let args = report::Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?,
        seed: flag(&flags, "seed", None)?,
        seconds: seconds_flag(&flags, None)?,
        trace: match flag::<u8>(&flags, "trace", Some(0))? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
        spans_out: flags.get("spans").map(PathBuf::from),
    };
    let outcome = report::run(&args)?;
    for problem in &outcome.problems {
        eprintln!("iotbench: {name}: WRONG OUTPUT: {problem}");
    }
    let line = Json::obj([
        ("correct", Json::Bool(outcome.problems.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(name, value)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(metrics::unit_of(name).into())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", line.to_line());
    if outcome.problems.is_empty() {
        Ok(())
    } else {
        Err(format!("{name}: outputs are wrong"))
    }
}

/// One pass in a child process, so every workload starts from a fresh
/// address space and its `VmHWM` is its own.
fn child_pass(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<&Path>,
) -> Result<(BTreeMap<String, f64>, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(path) = spans {
        command.arg("--spans").arg(path);
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let pass = if trace { "traced" } else { "untraced" };
    if !output.status.success() {
        return Err(format!("{} ({pass}): {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| format!("{} ({pass}): {e}", workload.name()))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{} ({pass}): outputs are wrong", workload.name()));
    }
    let count = |k| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let mut values = BTreeMap::new();
    for (name, metric) in doc
        .get("metrics")
        .and_then(Json::as_obj)
        .into_iter()
        .flatten()
    {
        let value = metric.get("value").and_then(Json::as_f64);
        values.insert(name.clone(), value.ok_or(format!("{name}: no value"))?);
    }
    Ok((values, count("attempted"), count("failed")))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a run happened — recorded in every result file.
fn environment(seed: u64, seconds: f64) -> BTreeMap<String, String> {
    let config = gateway::ClusterConfig::new("<work dir>", 3);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    [
        ("nproc", nproc.to_string()),
        (
            "clients",
            "closed-loop: tpcx_* 2 substations x 4 threads, ingest_batch256 2 threads, query_scan 1 thread".into(),
        ),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_rev", command_line("git", &["rev-parse", "HEAD"])),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("scale", (seconds / REFERENCE_SECONDS).to_string()),
        (
            "cluster",
            format!(
                "ClusterConfig::new(dir, 3): {} nodes, replication {}, fault_plan {:?}",
                config.nodes, config.replication_factor, config.fault_plan
            ),
        ),
        ("storage", format!("{:?}", config.storage)),
        (
            "flush_policy",
            format!("{:?} (the shipped default)", config.storage.sync),
        ),
        ("transport", "127.0.0.1 loopback, not a real link".into()),
        (
            "reads",
            "served from the operating system's page cache".into(),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn print_pass(
    title: &str,
    names: impl Iterator<Item = &'static str>,
    values: &BTreeMap<String, f64>,
) {
    println!("  {title}");
    for name in names {
        if let Some(value) = values.get(name) {
            println!("    {name:<42} {value:>16.4} {}", metrics::unit_of(name));
        }
    }
}

/// `iotbench run`: every workload, untraced then traced, gates, table,
/// result file. Nothing is written if anything fails.
fn run_all(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let seed: u64 = flag(&flags, "seed", Some(1))?;
    let seconds = seconds_flag(&flags, Some(REFERENCE_SECONDS))?;
    let results_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&results_dir).map_err(|e| e.to_string())?;
    let out: PathBuf = flag(
        &flags,
        "out",
        Some(results_dir.join(format!("seed-{seed}.json"))),
    )?;

    let mut results = Results {
        env: environment(seed, seconds),
        ..Results::default()
    };
    for workload in Workload::ALL {
        let name = workload.name();
        eprintln!("iotbench: {name}: untraced pass");
        let (e2e, attempted, failed) = child_pass(workload, seed, seconds, false, None)?;
        eprintln!("iotbench: {name}: traced pass");
        let spans = out.with_extension(format!("spans-{name}.csv"));
        let (layers, _, _) = child_pass(workload, seed, seconds, true, Some(&spans))?;

        println!("{name}  ({attempted} ops attempted, {failed} failed)");
        print_pass(
            "end to end (untraced)",
            END_TO_END.iter().map(|m| m.name),
            &e2e,
        );
        print_pass(
            "per layer (traced)",
            PER_LAYER.iter().map(|m| m.name),
            &layers,
        );
        let overhead = 1.0 - layers["trace.kvps_per_s"] / e2e["kvps_per_s"];
        println!("    {:<42} {overhead:>16.4} ratio", "trace.overhead_share");
        // The client operation as the traced pass's driver threads saw it.
        let op_us = match workload {
            Workload::QueryScan => layers["core.query.p50_us"],
            _ => layers["core.backend.insert_us_p50"],
        };
        println!(
            "    ladder: driver self + single-thread probe of the op's backend calls = {:.1} us beside the driver-side op p50 {op_us:.1} us (residual {:+.0}%)",
            layers["trace.ladder_sum_us"],
            100.0 * (op_us - layers["trace.ladder_sum_us"]) / op_us,
        );
        if workload == Workload::TpcxNet {
            let rf = layers["gateway.cluster.replica_writes_per_put"];
            println!(
                "    rungs: netplane self {:.1} + server and wire self {:.1} + cluster self {:.1} + {rf} x engine put {:.1} = {:.1} us",
                layers["core.netplane.self_us_per_put"],
                layers["gateway.server.self_us_per_put"],
                layers["gateway.cluster.self_us_per_put"],
                layers["iotkv.db.put_us_p50"],
                layers["core.netplane.insert_us_p50"],
            );
        }
        for zero in [
            "gateway.cluster.unavailable_errors",
            "gateway.cluster.failover_reads",
            "gateway.cluster.hinted_writes",
        ] {
            if layers[zero] != 0.0 {
                return Err(format!(
                    "{name}: {zero} = {} in a fault-free run",
                    layers[zero]
                ));
            }
        }
        results.end_to_end.insert(name.into(), e2e);
        results.per_layer.insert(name.into(), layers);
        results.ops.insert(name.into(), (attempted, failed));
    }
    // The same protocol, seed and op stream must read the same rows
    // whichever plane carried it.
    for count in [
        "core.driver.acked_kvps",
        "core.driver.queries",
        "core.driver.rows_read",
    ] {
        let (a, b) = (
            results.per_layer["tpcx_inproc"][count],
            results.per_layer["tpcx_net"][count],
        );
        if a != b {
            return Err(format!("{count}: {a} on tpcx_inproc, {b} on tpcx_net"));
        }
    }
    std::fs::write(&out, results.to_json().to_line() + "\n")
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

fn default_spreads() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("spreads.json")
}

fn load_spreads(path: &Path) -> Result<results::Spreads, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = results::Spreads::new();
    for (workload, row) in doc
        .get("spread")
        .and_then(Json::as_obj)
        .into_iter()
        .flatten()
    {
        for (metric, value) in row.as_obj().into_iter().flatten() {
            if let Some(v) = value.as_f64() {
                out.entry(workload.clone())
                    .or_default()
                    .insert(metric.clone(), v);
            }
        }
    }
    Ok(out)
}

/// `iotbench compare A B`: non-zero exit on any regression.
fn compare(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args)?;
    let [a, b] = positional[..] else {
        return Err("usage: iotbench compare A.json B.json [--spreads FILE]".into());
    };
    let spreads_path: PathBuf = flag(&flags, "spreads", Some(default_spreads()))?;
    let spreads = if spreads_path.exists() {
        Some(load_spreads(&spreads_path)?)
    } else {
        None
    };
    let rows = results::compare(&Results::load(a)?, &Results::load(b)?, spreads.as_ref());
    println!(
        "{:<26} {:<16} {:>14} {:>14} {:>9}  verdict",
        "metric", "workload", "A", "B", "change"
    );
    for row in &rows {
        let change = if row.a == 0.0 {
            0.0
        } else {
            100.0 * (row.b - row.a) / row.a
        };
        println!(
            "{:<26} {:<16} {:>14.4} {:>14.4} {:>+8.1}%  {}",
            row.metric,
            row.workload,
            row.a,
            row.b,
            change,
            row.verdict.name()
        );
    }
    let regressions = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regression)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows, {regressions} regressions, {unresolved} unresolved",
        rows.len()
    );
    if regressions > 0 {
        Err(format!("{regressions} regression(s)"))
    } else {
        Ok(())
    }
}

/// `iotbench spread OUT RUN...`: quartile spread and median of every
/// end-to-end metric over several result files of one commit.
fn spread(args: &[String]) -> Result<(), String> {
    let (_, positional) = parse_flags(args)?;
    let [out, runs @ ..] = &positional[..] else {
        return Err("usage: iotbench spread OUT.json RUN.json RUN.json...".into());
    };
    if runs.len() < 2 {
        return Err("a spread needs at least two result files".into());
    }
    let runs: Vec<Results> = runs
        .iter()
        .map(|p| Results::load(p))
        .collect::<Result<_, _>>()?;
    let spreads = results::spreads(&runs);
    let medians = results::medians(&runs);
    println!(
        "{:<26} {:<16} {:>14} {:>8} {:>6}",
        "metric", "workload", "median", "spread", "bound"
    );
    for (workload, row) in &spreads {
        for def in &END_TO_END {
            if let Some(s) = row.get(def.name) {
                let note = if *s > def.bound {
                    "  > bound"
                } else if *s > def.bound / 3.0 {
                    "  > bound/3"
                } else {
                    ""
                };
                println!(
                    "{:<26} {:<16} {:>14.4} {:>8.4} {:>6.2}{note}",
                    def.name, workload, medians[workload][def.name], s, def.bound
                );
            }
        }
    }
    let table = |t: &results::Table| {
        Json::obj(t.iter().map(|(w, row)| {
            (
                w.clone(),
                Json::obj(row.iter().map(|(m, v)| (m.clone(), Json::Num(*v)))),
            )
        }))
    };
    let doc = Json::obj([
        ("schema", Json::Str("iotbench-spreads/v1".into())),
        ("runs", Json::Num(runs.len() as f64)),
        (
            "env",
            runs[0].to_json().get("env").cloned().unwrap_or(Json::Null),
        ),
        ("spread", table(&spreads)),
        ("median", table(&medians)),
    ]);
    std::fs::write(out, doc.to_line() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}
