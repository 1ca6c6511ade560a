//! The one place every workload and metric is declared: name, unit,
//! direction, regression bound and absolute floor for the end-to-end
//! metrics; layer and the end-to-end metric it should move for the
//! per-layer ones. `BENCHMARK.json` mirrors this table (a unit test
//! keeps the two equal).

use std::fmt::Write as _;

/// `run_seconds` of `BENCHMARK.json`: the length every bound and
/// recorded spread in this directory belongs to.
pub const REFERENCE_SECONDS: f64 = 20.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "tpcx_inproc",
        why: "full TPCx-IoT protocol at batch 1 on the in-process cluster: per-kvp cost of cluster put and the engine commit round trip; wire, server and netplane do nothing",
    },
    WorkloadDef {
        name: "tpcx_net",
        why: "same protocol, seed and op stream through NetBackend and a loopback GatewayServer: smallest messages, so per-message netplane, wire and server cost dominates; the network tax",
    },
    WorkloadDef {
        name: "ingest_batch256",
        why: "one batch-256 driver execution, queries off: per-op gateway cost amortised 256x, so WAL, memtable, flush, compaction and write stalls in iotkv do the work",
    },
    WorkloadDef {
        name: "query_scan",
        why: "dashboard queries over a preloaded, flushed data set larger than the block cache, write path idle: iotkv iterators, blocks, cache, ClusterScan and the query fold",
    },
];

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
    /// Absolute difference below which a change is ignored.
    pub floor: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEndDef; 3] = [
    EndToEndDef {
        name: "kvps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 50.0,
        what: "readings through the gateway per second: acked kvps / elapsed over all four executions of the protocol on tpcx_* (the paper's IoTps, the slower measured execution alone, is per-layer core.runner.iotps), acked kvps / elapsed on ingest_batch256, readings aggregated / elapsed of the median round on query_scan",
    },
    EndToEndDef {
        name: "rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        floor: 8.0,
        what: "mean VmRSS of the benchmark process, sampled every 20 ms through the measured section (the peak is per-layer process.peak_rss_mib)",
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0005,
        what: "median time of one set-up: data directory, free-disk check, cluster start (tpcx_net: server start and connect; query_scan: preload and wait for background quiet)",
    },
];

pub struct PerLayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Where the number comes from: a span, a count, or a ladder probe.
    pub source: &'static str,
    /// The end-to-end metric and workload it is predicted to move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
    moves: &'static str,
) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Better::{Higher, Lower};

/// The layer of a per-layer metric is the first two name segments
/// (`iotkv.compaction`); the crate is the first.
pub const PER_LAYER: [PerLayerDef; 69] = [
    // core
    pl("core.datagen.ns_per_kvp", "ns", Lower, "probe", "kvps_per_s on ingest_batch256"),
    pl("core.driver.self_us_per_op", "us", Lower, "span", "kvps_per_s on ingest_batch256"),
    pl("core.driver.acked_kvps", "count", Higher, "count", "exact repeat: kvps acknowledged in the measured section"),
    pl("core.driver.queries", "count", Higher, "count", "exact repeat; equal on tpcx_inproc and tpcx_net"),
    pl("core.driver.rows_read", "count", Higher, "count", "exact repeat; equal on tpcx_inproc and tpcx_net"),
    pl("core.driver.rows_per_query", "count", Higher, "count", "exact repeat; equal on tpcx_inproc and tpcx_net"),
    pl("core.backend.insert_us_p50", "us", Lower, "span", "driver-side insert latency on tpcx_* and ingest_batch256; demoted from end-to-end op_p50_us"),
    pl("core.backend.insert_us_tail", "us", Lower, "span", "insert latency at the highest of p99/p95/p90 with ten samples beyond it; demoted from end-to-end op_tail_us"),
    pl("core.backend.scan_fold_us_p50", "us", Lower, "span", "kvps_per_s on query_scan; query time on tpcx_*"),
    pl("core.query.p50_us", "us", Lower, "count", "query_scan: median per-query latency (two scans + fold) of the median round; demoted from end-to-end op_p50_us, like core.backend.insert_us_p50 on the writers (a closed loop's median latency is its client count over kvps_per_s: a second gate on the same number)"),
    pl("core.query.tail_us", "us", Lower, "count", "query_scan: per-query latency at the highest of p99/p95/p90 with ten samples beyond it; demoted from end-to-end op_tail_us"),
    pl("core.query.mean_us", "us", Lower, "count", "paper Fig 13 query time on tpcx_*; mean of the timed execute calls on query_scan"),
    pl("core.runner.iotps", "1/s", Higher, "count", "tpcx_*: IoTps by the paper's rule as the kit reports it, acked kvps / elapsed of the slower measured execution; demoted from end-to-end kvps_per_s (one 3 s execution is half as steady as four)"),
    pl("core.runner.cleanup_ms", "ms", Lower, "span", "run_s on tpcx_*"),
    pl("core.retry.insert_retries", "count", Lower, "count", "fault-free: 0"),
    pl("core.retry.query_retries", "count", Lower, "count", "fault-free: 0"),
    pl("core.netplane.insert_us_p50", "us", Lower, "probe", "kvps_per_s on tpcx_net only"),
    pl("core.netplane.insert_batch256_us_per_kvp", "us", Lower, "probe", "none today (no networked batch workload)"),
    pl("core.netplane.scan_ns_per_row", "ns", Lower, "probe", "query time on tpcx_net only"),
    pl("core.netplane.self_us_per_put", "us", Lower, "ladder", "kvps_per_s on tpcx_net only"),
    // ycsb
    pl("ycsb.measurement.record_ns", "ns", Lower, "probe", "kvps_per_s on ingest_batch256 and tpcx_inproc"),
    // wire
    pl("wire.codec.put_ns", "ns", Lower, "probe", "kvps_per_s on tpcx_net; no change elsewhere"),
    pl("wire.codec.putbatch256_ns_per_kvp", "ns", Lower, "probe", "none today"),
    pl("wire.codec.scanrow_ns", "ns", Lower, "probe", "query time on tpcx_net"),
    pl("wire.frame.bytes_per_put", "count", Lower, "count", "kvps_per_s on tpcx_net"),
    pl("wire.frame.ping_rtt_us_p50", "us", Lower, "probe", "kvps_per_s on tpcx_net: the socket + handler-thread floor"),
    // gateway
    pl("gateway.server.put_rtt_us_p50", "us", Lower, "probe", "kvps_per_s on tpcx_net"),
    pl("gateway.server.self_us_per_put", "us", Lower, "ladder", "kvps_per_s on tpcx_net: server + wire self time"),
    pl("gateway.cluster.put_us_p50", "us", Lower, "probe", "kvps_per_s on tpcx_inproc most"),
    pl("gateway.cluster.put_batch256_us_per_kvp", "us", Lower, "probe", "kvps_per_s on ingest_batch256"),
    pl("gateway.cluster.scan_ns_per_row", "ns", Lower, "probe", "kvps_per_s on query_scan"),
    pl("gateway.cluster.self_us_per_put", "us", Lower, "ladder", "kvps_per_s on tpcx_inproc most, ingest_batch256 little"),
    pl("gateway.cluster.puts", "count", Higher, "count", "exact repeat"),
    pl("gateway.cluster.put_batches", "count", Higher, "count", "exact repeat on ingest_batch256"),
    pl("gateway.cluster.batch_fill", "count", Higher, "count", "256 on ingest_batch256"),
    pl("gateway.cluster.replica_writes_per_put", "ratio", Lower, "count", "exact repeat: rf"),
    pl("gateway.cluster.scans", "count", Higher, "count", "exact repeat"),
    pl("gateway.cluster.rows_streamed", "count", Higher, "count", "exact repeat"),
    pl("gateway.cluster.node_write_skew", "ratio", Lower, "count", "max / mean node writes: 1 with rf = nodes"),
    pl("gateway.cluster.unavailable_errors", "count", Lower, "count", "fault-free: 0"),
    pl("gateway.cluster.failover_reads", "count", Lower, "count", "fault-free: 0"),
    pl("gateway.cluster.hinted_writes", "count", Lower, "count", "fault-free: 0"),
    // iotkv
    pl("iotkv.db.put_us_p50", "us", Lower, "probe", "kvps_per_s on tpcx_inproc"),
    pl("iotkv.db.put_us_p99", "us", Lower, "probe", "core.backend.insert_us_tail on tpcx_inproc"),
    pl("iotkv.db.write256_us_per_kvp", "us", Lower, "probe", "kvps_per_s on ingest_batch256"),
    pl("iotkv.db.flush_ms", "ms", Lower, "probe", "kvps_per_s and core.backend.insert_us_tail on ingest_batch256"),
    pl("iotkv.db.scan_ns_per_row", "ns", Lower, "probe", "kvps_per_s on query_scan"),
    pl("iotkv.db.recover_ms", "ms", Lower, "probe", "setup_s"),
    pl("iotkv.commit.groups", "count", Lower, "count", "kvps_per_s on tpcx_*"),
    pl("iotkv.commit.group_size", "ratio", Higher, "count", "about 1 with two closed-loop clients: group commit cannot help until clients rise"),
    pl("iotkv.wal.syncs", "count", Lower, "count", "0 under SyncMode::None"),
    pl("iotkv.flush.count", "count", Lower, "count", "kvps_per_s on ingest_batch256"),
    pl("iotkv.flush.bytes", "bytes", Lower, "count", "kvps_per_s on ingest_batch256"),
    pl("iotkv.compaction.count", "count", Lower, "count", "kvps_per_s, core.backend.insert_us_tail on ingest_batch256"),
    pl("iotkv.compaction.bytes", "bytes", Lower, "count", "kvps_per_s, disk_bytes_per_user_byte on ingest_batch256"),
    pl("iotkv.write_amp", "ratio", Lower, "count", "kvps_per_s on ingest_batch256; flat on tpcx_* medians"),
    pl("iotkv.stall.ms", "ms", Lower, "count", "core.backend.insert_us_tail then kvps_per_s on ingest_batch256"),
    pl("iotkv.tables", "count", Lower, "count", "kvps_per_s on query_scan"),
    pl("iotkv.l0_tables", "count", Lower, "count", "kvps_per_s on query_scan (read amplification)"),
    pl("iotkv.disk_bytes_per_user_byte", "ratio", Lower, "count", "space amplification: bytes under the data directory at the end of the measured section / (kvps stored x 1024); demoted from end-to-end (unsteady on query_scan)"),
    pl("iotkv.drain_ms", "ms", Lower, "span", "compaction debt left behind by ingest_batch256: work moved out of the timed section shows here"),
    pl("iotkv.cache.hit_rate", "ratio", Higher, "count", "kvps_per_s on query_scan"),
    pl("iotkv.cache.misses_per_row", "ratio", Lower, "count", "kvps_per_s on query_scan"),
    // trace: how far the per-layer numbers can be trusted
    pl("process.peak_rss_mib", "MiB", Lower, "count", "VmHWM when the measured section ends; demoted from end-to-end (one moment's coincidence of frozen memtables and compaction buffers)"),
    pl("workload.run_s", "s", Lower, "span", "wall time of the measured section (tpcx_*: checks, four executions, data checks, both cleanups); demoted from end-to-end (the inverse of kvps_per_s on two workloads)"),
    pl("trace.kvps_per_s", "1/s", Higher, "span", "kvps_per_s of the traced pass; 1 - traced / untraced is the tracing overhead"),
    pl("trace.spans", "count", Higher, "span", "spans recorded"),
    pl("trace.ladder_closure", "ratio", Higher, "ladder", "matching single-thread probe / workload core.backend.insert_us_p50: 1 means the ladder explains the workload"),
    pl("trace.ladder_sum_us", "us", Lower, "ladder", "driver self + netplane self + server self + cluster self + rf x engine put, beside core.backend.insert_us_p50 on tpcx_net"),
];

/// Names follow `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`, units
/// `[A-Za-z0-9_/%.-]{1,16}` — the driver refuses anything else.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// `BENCHMARK.json`, generated: the driver's contract fixes its keys, so
/// floors, sources and predictions live only in this table and the README.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmarks/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmarks\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {REFERENCE_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.name()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Every workload and metric with its definition, as markdown tables.
pub fn describe() -> String {
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for w in &WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} |", w.name, w.why);
    }
    out.push_str("\n| end-to-end metric | unit | better | bound | floor | definition |\n|---|---|---|---|---|---|\n");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.name(),
            m.bound,
            m.floor,
            m.what
        );
    }
    out.push_str(
        "\n| per-layer metric | unit | better | source | should move |\n|---|---|---|---|---|\n",
    );
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.name(),
            m.source,
            m.moves
        );
    }
    out
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_follow_the_driver_rules_and_are_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("rows per s") && !valid_unit(""));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// `BENCHMARK.json` at the repository root is `iotbench manifest`,
    /// byte for byte, and parses with exactly the contract's keys.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(text, manifest(), "regenerate with `iotbench manifest`");
        let doc = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(text.len() <= 64 << 10);
    }
}
