//! The three primary metrics (spec §III-F).
//!
//! * **IoTps** — `N_m / (TS_end,m − TS_start,m)` where *m* is the
//!   *performance run*: of the two measured runs, the one with the lower
//!   ingested count (ties broken by the longer elapsed time, i.e. the
//!   lower rate — conservative either way),
//! * **$/IoTps** — 3-year total cost of ownership per unit IoTps,
//! * **system availability** — the date all priced components are
//!   generally available.

/// The facts of one measured run needed for metric derivation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasuredRun {
    /// kvps ingested (N_i).
    pub ingested: u64,
    /// `TS_end − TS_start` in seconds.
    pub elapsed_secs: f64,
}

impl MeasuredRun {
    pub fn rate(&self) -> f64 {
        self.ingested as f64 / self.elapsed_secs.max(1e-9)
    }
}

/// Picks the performance run *m* from the two iterations' measured runs:
/// the run with the lower `N`; if both ingested the same count (the
/// common case — the kit ingests a fixed number), the slower run.
pub fn performance_run(run1: MeasuredRun, run2: MeasuredRun) -> MeasuredRun {
    match run1.ingested.cmp(&run2.ingested) {
        std::cmp::Ordering::Less => run1,
        std::cmp::Ordering::Greater => run2,
        std::cmp::Ordering::Equal => {
            if run1.elapsed_secs >= run2.elapsed_secs {
                run1
            } else {
                run2
            }
        }
    }
}

/// `IoTps` of a measured run (equation 4).
pub fn iotps(run: MeasuredRun) -> f64 {
    run.rate()
}

/// `$/IoTps` (equation 5): ownership cost divided by the performance
/// run's IoTps.
pub fn price_performance(ownership_cost_usd: f64, run: MeasuredRun) -> f64 {
    ownership_cost_usd * run.elapsed_secs / run.ingested as f64
}

/// The complete primary-metric triple of a benchmark result.
#[derive(Clone, Debug)]
pub struct BenchmarkMetrics {
    pub iotps: f64,
    pub price_per_iotps: f64,
    /// ISO-8601 date all priced line items are generally available.
    pub availability_date: String,
}

impl BenchmarkMetrics {
    pub fn derive(
        run1: MeasuredRun,
        run2: MeasuredRun,
        ownership_cost_usd: f64,
        availability_date: impl Into<String>,
    ) -> BenchmarkMetrics {
        let m = performance_run(run1, run2);
        BenchmarkMetrics {
            iotps: iotps(m),
            price_per_iotps: price_performance(ownership_cost_usd, m),
            availability_date: availability_date.into(),
        }
    }
}

/// Degraded-run accounting for one benchmark iteration: what the retry
/// layer and the cluster's failover path had to absorb.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceSummary {
    /// Insert attempts beyond the first, across every driver thread.
    pub insert_retries: u64,
    /// Query attempts beyond the first.
    pub query_retries: u64,
    /// Inserts that failed even after retrying.
    pub insert_failures: u64,
    /// Backend-side failover/under-replication counters.
    pub backend: crate::backend::ResilienceCounters,
}

impl ResilienceSummary {
    /// Whether the iteration ran completely fault-free.
    pub fn clean(&self) -> bool {
        *self == ResilienceSummary::default()
    }
}

/// The validity verdict of a (possibly degraded) run.
///
/// TPCx-IoT's execution rules make a run unpublishable when the SUT
/// cannot sustain the ingest contract; this verdict applies the same
/// logic to fault-injected runs: losing acknowledged data or starving
/// the sensors below the per-sensor rate floor invalidates the run,
/// while retries, failovers, and under-replicated-but-recovered writes
/// merely degrade it.
#[derive(Clone, Debug, PartialEq)]
pub struct RunValidity {
    pub valid: bool,
    /// Why the run is invalid (empty when valid).
    pub reasons: Vec<String>,
}

impl RunValidity {
    pub fn verdict(&self) -> &'static str {
        if self.valid {
            "VALID"
        } else {
            "INVALID"
        }
    }
}

/// Judges a degraded run: `acknowledged` is the number of inserts the
/// driver saw succeed, `persisted` what the backend reports as ingested,
/// and `per_sensor_rate` the measured execution's average rate judged
/// against `min_per_sensor_rate` (spec: 20 kvps/s).
pub fn degraded_run_verdict(
    acknowledged: u64,
    persisted: u64,
    per_sensor_rate: f64,
    min_per_sensor_rate: f64,
) -> RunValidity {
    let mut reasons = Vec::new();
    if persisted < acknowledged {
        reasons.push(format!(
            "acknowledged data lost: {acknowledged} inserts acknowledged, \
             only {persisted} persisted"
        ));
    }
    if per_sensor_rate < min_per_sensor_rate {
        reasons.push(format!(
            "sensor starvation: {per_sensor_rate:.2} kvps/s per sensor \
             below the {min_per_sensor_rate:.0} kvps/s floor"
        ));
    }
    RunValidity {
        valid: reasons.is_empty(),
        reasons,
    }
}

/// Folds the sustained-rate validator's output into a run verdict: any
/// full 1 s window below the throughput floor invalidates the run, even
/// if the end-of-run average recovered.
pub fn apply_sustained_rate(
    validity: &mut RunValidity,
    violations: &[crate::telemetry::RateViolation],
) {
    let Some(worst) = violations.iter().min_by_key(|v| v.ops) else {
        return;
    };
    validity.valid = false;
    validity.reasons.push(format!(
        "sustained-rate violation: {} window(s) below the {:.0} ops floor \
         (worst: window {} completed {} ops)",
        violations.len(),
        worst.required,
        worst.window,
        worst.ops,
    ));
}

/// Folds the online-reconfiguration outcome into a run verdict: a
/// routing table left inconsistent by a split, migration, or drain
/// (dangling node references, drained nodes still routed, broken range
/// coverage) invalidates the run even when every individual operation
/// succeeded — acknowledged data behind a corrupt route is lost data.
pub fn apply_topology_check(
    validity: &mut RunValidity,
    cluster: Option<&crate::telemetry::ClusterCounters>,
) {
    let Some(c) = cluster else {
        return;
    };
    if c.topology_ok {
        return;
    }
    validity.valid = false;
    validity.reasons.push(format!(
        "topology corruption: routing table inconsistent after online \
         reconfiguration (epoch {}, {} split(s), {} migration(s) completed, \
         {} drain(s))",
        c.epoch, c.resilience.splits, c.resilience.migrations_completed, c.resilience.drains,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iotps_is_rate() {
        let run = MeasuredRun {
            ingested: 400_000_000,
            elapsed_secs: 2_149.0,
        };
        // The paper's 32-substation row: ~186k IoTps.
        assert!((iotps(run) - 186_133.0).abs() < 1.0);
    }

    #[test]
    fn performance_run_prefers_lower_count_then_slower() {
        let fast = MeasuredRun {
            ingested: 100,
            elapsed_secs: 1.0,
        };
        let slow = MeasuredRun {
            ingested: 100,
            elapsed_secs: 2.0,
        };
        assert_eq!(performance_run(fast, slow), slow);
        assert_eq!(performance_run(slow, fast), slow);

        let fewer = MeasuredRun {
            ingested: 50,
            elapsed_secs: 0.1,
        };
        assert_eq!(performance_run(fast, fewer), fewer);
        assert_eq!(performance_run(fewer, fast), fewer);
    }

    #[test]
    fn price_performance_consistent_with_iotps() {
        let run = MeasuredRun {
            ingested: 1_000_000,
            elapsed_secs: 2000.0,
        };
        let cost = 500_000.0;
        let ppp = price_performance(cost, run);
        assert!((ppp - cost / iotps(run)).abs() < 1e-9);
        assert!((ppp - 1000.0).abs() < 1e-9); // $500k at 500 IoTps
    }

    #[test]
    fn verdict_flags_loss_and_starvation() {
        let ok = degraded_run_verdict(1000, 1000, 25.0, 20.0);
        assert!(ok.valid);
        assert_eq!(ok.verdict(), "VALID");

        let lost = degraded_run_verdict(1000, 990, 25.0, 20.0);
        assert!(!lost.valid);
        assert!(lost.reasons[0].contains("acknowledged data lost"));

        let starved = degraded_run_verdict(1000, 1000, 12.5, 20.0);
        assert!(!starved.valid);
        assert!(starved.reasons[0].contains("sensor starvation"));

        let both = degraded_run_verdict(10, 5, 1.0, 20.0);
        assert_eq!(both.reasons.len(), 2);
    }

    #[test]
    fn sustained_rate_violations_invalidate() {
        use crate::telemetry::RateViolation;
        let mut v = degraded_run_verdict(1000, 1000, 25.0, 20.0);
        apply_sustained_rate(&mut v, &[]);
        assert!(v.valid, "no violations leave the verdict untouched");
        apply_sustained_rate(
            &mut v,
            &[
                RateViolation {
                    window: 3,
                    ops: 40,
                    required: 100.0,
                },
                RateViolation {
                    window: 4,
                    ops: 0,
                    required: 100.0,
                },
            ],
        );
        assert!(!v.valid);
        assert!(v.reasons[0].contains("sustained-rate violation"));
        assert!(v.reasons[0].contains("window 4"), "worst window named");
    }

    #[test]
    fn topology_corruption_invalidates() {
        use crate::telemetry::ClusterCounters;
        let mut v = degraded_run_verdict(1000, 1000, 25.0, 20.0);
        apply_topology_check(&mut v, None);
        assert!(v.valid, "no cluster sample leaves the verdict untouched");
        let healthy = ClusterCounters {
            topology_ok: true,
            epoch: 4,
            ..Default::default()
        };
        apply_topology_check(&mut v, Some(&healthy));
        assert!(
            v.valid,
            "a consistent topology leaves the verdict untouched"
        );
        let corrupt = ClusterCounters {
            topology_ok: false,
            epoch: 4,
            resilience: crate::backend::ResilienceCounters {
                splits: 1,
                migrations_completed: 2,
                drains: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        apply_topology_check(&mut v, Some(&corrupt));
        assert!(!v.valid);
        assert!(v.reasons[0].contains("topology corruption"));
        assert!(v.reasons[0].contains("epoch 4"));
    }

    #[test]
    fn clean_summary_detects_degradation() {
        let mut s = ResilienceSummary::default();
        assert!(s.clean());
        s.insert_retries = 1;
        assert!(!s.clean());
    }

    #[test]
    fn derive_assembles_all_three() {
        let m = BenchmarkMetrics::derive(
            MeasuredRun {
                ingested: 1000,
                elapsed_secs: 10.0,
            },
            MeasuredRun {
                ingested: 1000,
                elapsed_secs: 12.5,
            },
            800.0,
            "2026-07-01",
        );
        assert_eq!(m.iotps, 80.0); // slower run governs
        assert_eq!(m.price_per_iotps, 10.0);
        assert_eq!(m.availability_date, "2026-07-01");
    }
}
