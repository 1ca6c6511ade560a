//! Result disclosure: the executive summary and the full disclosure
//! report (FDR) required of every published result (spec §IV-C).

use crate::pricing::PriceSheet;
use crate::runner::{BenchmarkConfig, BenchmarkOutcome};
use std::fmt::Write;

/// The executive summary: the three primary metrics plus headline
/// configuration facts on one page.
pub fn executive_summary(
    outcome: &BenchmarkOutcome,
    config: &BenchmarkConfig,
    sheet: &PriceSheet,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "==================================================");
    let _ = writeln!(out, " TPCx-IoT Executive Summary");
    let _ = writeln!(out, "==================================================");
    let _ = writeln!(out, "System under test : {}", outcome.sut_description);
    let _ = writeln!(out, "Driver instances  : {}", config.substations);
    let _ = writeln!(out, "Total kvps/run    : {}", config.total_kvps);
    match &outcome.metrics {
        Some(m) => {
            let _ = writeln!(out, "Performance       : {:.1} IoTps", m.iotps);
            let _ = writeln!(out, "Price-performance : {:.4} $/IoTps", m.price_per_iotps);
            let _ = writeln!(out, "Availability date : {}", m.availability_date);
        }
        None => {
            let _ = writeln!(out, "Performance       : RUN ABORTED");
        }
    }
    let _ = writeln!(out, "Total 3-yr cost   : ${:.2}", sheet.total_cost());
    let _ = writeln!(
        out,
        "Publishable       : {}",
        if outcome.publishable() { "YES" } else { "NO" }
    );
    out
}

/// The FDR: checks, per-iteration measurements, rule verdicts, priced
/// configuration, and all tunables changed from defaults.
pub fn full_disclosure_report(
    outcome: &BenchmarkOutcome,
    config: &BenchmarkConfig,
    sheet: &PriceSheet,
    tunables: &[(String, String)],
) -> String {
    let mut out = executive_summary(outcome, config, sheet);
    let _ = writeln!(out, "\n--- Prerequisite checks ---");
    for c in &outcome.prerequisite_checks {
        let _ = writeln!(
            out,
            "[{}] {}: {}",
            if c.passed { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for (i, it) in outcome.iterations.iter().enumerate() {
        let _ = writeln!(out, "\n--- Iteration {} ---", i + 1);
        for (label, exec) in [("warm-up", &it.warmup), ("measured", &it.measured)] {
            let _ = writeln!(
                out,
                "{label}: {:.2}s elapsed, {} kvps, {} queries, {:.0} avg rows/query, \
                 query latency avg {:.2}ms p95 {:.2}ms max {:.2}ms",
                exec.elapsed_secs,
                exec.ingested,
                exec.queries,
                exec.avg_rows_per_query,
                exec.query_latency.mean / 1e6,
                exec.query_latency.p95 as f64 / 1e6,
                exec.query_latency.max as f64 / 1e6,
            );
            let t = &exec.telemetry;
            let _ = writeln!(
                out,
                "{label} telemetry: ingest p50 {:.1}us p95 {:.1}us p99 {:.1}us \
                 p999 {:.1}us over {} windows ({:.0}s each); {} retried ops, \
                 {} failed ops",
                t.ingest.p50 as f64 / 1e3,
                t.ingest.p95 as f64 / 1e3,
                t.ingest.p99 as f64 / 1e3,
                t.ingest.p999 as f64 / 1e3,
                t.ingest_windows.len(),
                t.window_secs,
                t.retry.count,
                t.failed.count,
            );
            if exec.rate_violations.is_empty() {
                let _ = writeln!(out, "{label} sustained rate: no windows below floor");
            } else {
                let _ = writeln!(
                    out,
                    "{label} sustained rate: {} window(s) below floor",
                    exec.rate_violations.len()
                );
            }
        }
        let _ = writeln!(
            out,
            "[{}] {}: {}",
            if it.data_check.passed { "PASS" } else { "FAIL" },
            it.data_check.name,
            it.data_check.detail
        );
        let _ = writeln!(out, "{}", it.rule_report.summary());
        let r = &it.resilience;
        if r.clean() {
            let _ = writeln!(out, "resilience: clean run (no retries, no failovers)");
        } else {
            let _ = writeln!(
                out,
                "resilience: {} insert retries, {} query retries, {} insert \
                 failures; {} failover reads, {} under-replicated writes, \
                 {} hinted, {} replayed, {} unavailable errors; \
                 {} scan retries, {} mid-scan failovers",
                r.insert_retries,
                r.query_retries,
                r.insert_failures,
                r.backend.failover_reads,
                r.backend.under_replicated_writes,
                r.backend.hinted_writes,
                r.backend.replayed_hints,
                r.backend.unavailable_errors,
                r.backend.scan_retries,
                r.backend.scan_resumes,
            );
        }
        let b = &r.backend;
        if b.splits + b.drains + b.migrations_started + b.stale_route_retries > 0 {
            let _ = writeln!(
                out,
                "topology: {} splits, {} drains; migrations {} started / \
                 {} completed / {} aborted / {} throttle pauses; \
                 {} stale-route retries",
                b.splits,
                b.drains,
                b.migrations_started,
                b.migrations_completed,
                b.migrations_aborted,
                b.migration_throttled,
                b.stale_route_retries,
            );
        }
        if let Some(e) = &it.engine {
            let lookups = e.cache_hits + e.cache_misses;
            let _ = writeln!(
                out,
                "engine: {} wal syncs, {} flushes, {} compactions, \
                 {:.1}% cache hit rate",
                e.wal_syncs,
                e.flushes,
                e.compactions,
                if lookups == 0 {
                    100.0
                } else {
                    100.0 * e.cache_hits as f64 / lookups as f64
                },
            );
        }
        let _ = writeln!(out, "run validity: {}", it.validity.verdict());
        for reason in &it.validity.reasons {
            let _ = writeln!(out, "  - {reason}");
        }
    }
    let _ = writeln!(out, "\n--- Priced configuration ---");
    for item in &sheet.items {
        let _ = writeln!(
            out,
            "{:<14} x{:<3} ${:>10.2}  maint ${:>9.2}  avail {}  {}{}",
            item.part_number,
            item.quantity,
            item.unit_price_usd,
            item.maintenance_3yr_usd,
            item.available,
            item.description,
            if item.excluded { "  [EXCLUDED]" } else { "" }
        );
    }
    let _ = writeln!(out, "\n--- Tunables changed from defaults ---");
    if tunables.is_empty() {
        let _ = writeln!(out, "(none)");
    }
    for (key, value) in tunables {
        let _ = writeln!(out, "{key} = {value}");
    }
    let _ = writeln!(out, "\n--- Metrics snapshot ---");
    let _ = writeln!(
        out,
        "phases exported: {}",
        outcome
            .registry
            .phases
            .iter()
            .map(|p| p.label.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "sustained-rate check: {}",
        if outcome.registry.sustained_ok() {
            "OK"
        } else {
            "VIOLATED"
        }
    );
    if let Some(c) = &outcome.registry.cluster {
        if c.put_batches > 0 {
            let _ = writeln!(
                out,
                "batched ingest: {} kvps in {} batches (mean fill {:.1})",
                c.batched_puts,
                c.put_batches,
                c.batch_fill(),
            );
        }
        if c.scans > 0 {
            let _ = writeln!(
                out,
                "streamed scans: {} rows in {} scans ({} mid-scan failovers)",
                c.rows_streamed, c.scans, c.resilience.scan_resumes,
            );
        }
        if c.resilience.splits + c.resilience.drains + c.resilience.migrations_started > 0 {
            let _ = writeln!(
                out,
                "online reconfiguration: {} splits, {} drains, {} migrations \
                 completed at epoch {} (topology {})",
                c.resilience.splits,
                c.resilience.drains,
                c.resilience.migrations_completed,
                c.epoch,
                if c.topology_ok {
                    "consistent"
                } else {
                    "CORRUPT"
                },
            );
        }
    }
    if !outcome.registry.verdict.is_empty() {
        let _ = writeln!(out, "overall verdict: {}", outcome.registry.verdict);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::rules::Rules;
    use crate::runner::{BenchmarkRunner, SystemUnderTest};
    use std::sync::Arc;

    struct MemSut(Arc<MemBackend>);
    impl SystemUnderTest for MemSut {
        fn backend(&self) -> Arc<dyn crate::backend::GatewayBackend> {
            Arc::clone(&self.0) as _
        }
        fn cleanup(&mut self) -> Result<(), String> {
            self.0 = Arc::new(MemBackend::new());
            Ok(())
        }
        fn describe(&self) -> String {
            "mem SUT".into()
        }
    }

    fn run() -> (BenchmarkOutcome, BenchmarkConfig, PriceSheet) {
        let mut config = crate::runner::BenchmarkConfig::new(1, 4_000);
        config.threads_per_driver = 2;
        config.rules = Rules {
            min_elapsed_secs: 0.0,
            min_per_sensor_rate: 0.0,
            min_rows_per_query: 0.0,
        };
        let sheet = PriceSheet::sample_cluster(2);
        let runner = BenchmarkRunner::new(config.clone(), sheet.clone());
        let outcome = runner.run(&mut MemSut(Arc::new(MemBackend::new())));
        (outcome, config, sheet)
    }

    #[test]
    fn executive_summary_has_all_three_metrics() {
        let (outcome, config, sheet) = run();
        let es = executive_summary(&outcome, &config, &sheet);
        assert!(es.contains("IoTps"));
        assert!(es.contains("$/IoTps"));
        assert!(es.contains("Availability date"));
        assert!(es.contains("Publishable       : YES"));
    }

    #[test]
    fn fdr_discloses_everything() {
        let (outcome, config, sheet) = run();
        let fdr = full_disclosure_report(
            &outcome,
            &config,
            &sheet,
            &[("hbase.client.write.buffer".into(), "8GB".into())],
        );
        assert!(fdr.contains("Iteration 1"));
        assert!(fdr.contains("Iteration 2"));
        assert!(fdr.contains("data replication check"));
        assert!(fdr.contains("UCSB-B200-M4"));
        assert!(fdr.contains("[EXCLUDED]"));
        assert!(fdr.contains("hbase.client.write.buffer = 8GB"));
        assert!(fdr.contains("warm-up"));
        assert!(fdr.contains("measured"));
        assert!(fdr.contains("resilience: clean run"));
        assert!(fdr.contains("run validity: VALID"));
    }

    #[test]
    fn empty_tunables_disclosed_as_none() {
        let (outcome, config, sheet) = run();
        let fdr = full_disclosure_report(&outcome, &config, &sheet, &[]);
        assert!(fdr.contains("(none)"));
    }
}
