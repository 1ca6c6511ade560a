//! Result files (`iotbench/v1`), the regression comparison between two
//! of them, and the run-to-run spread over several.

use crate::json::Json;
use crate::metrics::{Better, EndToEndDef, END_TO_END, WORKLOADS};
use crate::stats::{median, relative_spread};
use std::collections::BTreeMap;

pub const SCHEMA: &str = "iotbench/v1";

/// `workload → metric → value` for one pass.
pub type Table = BTreeMap<String, BTreeMap<String, f64>>;

/// One `iotbench run`: both passes of every workload plus where and how
/// it ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Results {
    pub env: BTreeMap<String, String>,
    pub end_to_end: Table,
    pub per_layer: Table,
    /// `workload → (attempted, failed)` of the untraced pass.
    pub ops: BTreeMap<String, (u64, u64)>,
}

fn table_to_json(table: &Table) -> Json {
    Json::obj(table.iter().map(|(workload, metrics)| {
        (
            workload.clone(),
            Json::obj(metrics.iter().map(|(name, value)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(crate::metrics::unit_of(name).into())),
                    ]),
                )
            })),
        )
    }))
}

fn table_from_json(doc: &Json, key: &str) -> Result<Table, String> {
    let mut table = Table::new();
    let section = doc
        .get(key)
        .and_then(Json::as_obj)
        .ok_or(format!("missing object {key:?}"))?;
    for (workload, metrics) in section {
        let metrics = metrics
            .as_obj()
            .ok_or(format!("{key}.{workload} is not an object"))?;
        let row = table.entry(workload.clone()).or_default();
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{key}.{workload}.{name} has no numeric value"))?;
            row.insert(name.clone(), value);
        }
    }
    Ok(table)
}

impl Results {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            (
                "env",
                Json::obj(
                    self.env
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                ),
            ),
            ("end_to_end", table_to_json(&self.end_to_end)),
            ("per_layer", table_to_json(&self.per_layer)),
            (
                "ops",
                Json::obj(self.ops.iter().map(|(w, (attempted, failed))| {
                    (
                        w.clone(),
                        Json::obj([
                            ("attempted", Json::Num(*attempted as f64)),
                            ("failed", Json::Num(*failed as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Results, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} result file"));
        }
        let mut results = Results {
            end_to_end: table_from_json(doc, "end_to_end")?,
            per_layer: table_from_json(doc, "per_layer")?,
            ..Results::default()
        };
        if let Some(env) = doc.get("env").and_then(Json::as_obj) {
            for (k, v) in env {
                results
                    .env
                    .insert(k.clone(), v.as_str().unwrap_or_default().to_string());
            }
        }
        if let Some(ops) = doc.get("ops").and_then(Json::as_obj) {
            for (w, o) in ops {
                let field = |k| o.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                results
                    .ops
                    .insert(w.clone(), (field("attempted"), field("failed")));
            }
        }
        Ok(results)
    }

    pub fn load(path: &str) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Results::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    }

    fn failed_share(&self, workload: &str) -> f64 {
        match self.ops.get(workload) {
            Some((attempted, failed)) if *attempted > 0 => *failed as f64 / *attempted as f64,
            _ => 0.0,
        }
    }
}

/// `workload → metric → quartile spread as a share of the median`, over
/// several runs of one commit.
pub type Spreads = Table;

/// Reduces every (workload, end-to-end metric) pair present in at least
/// `min_runs` of `runs` to one number.
fn reduce(runs: &[Results], min_runs: usize, f: impl Fn(&[f64]) -> f64) -> Table {
    let mut out = Table::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.end_to_end.get(w.name)?.get(m.name).copied())
                .collect();
            if values.len() >= min_runs {
                out.entry(w.name.into())
                    .or_default()
                    .insert(m.name.into(), f(&values));
            }
        }
    }
    out
}

pub fn spreads(runs: &[Results]) -> Spreads {
    reduce(runs, 2, relative_spread)
}

pub fn medians(runs: &[Results]) -> Table {
    reduce(runs, 1, median)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    /// The recorded run-to-run spread exceeds the bound, so neither
    /// "unchanged" nor "worse" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one (metric, workload) pair: `b` against base `a`. Worsening
/// counts only beyond both the relative bound and the absolute floor.
pub fn judge(def: &EndToEndDef, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    let worse_by = match def.better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if spread.is_some_and(|s| s > def.bound) {
        return Verdict::Unresolved;
    }
    let rel = worse_by / a.abs().max(f64::MIN_POSITIVE);
    if worse_by > def.floor && rel > def.bound {
        Verdict::Regression
    } else if -worse_by > def.floor && -rel > def.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

pub struct Row {
    pub metric: &'static str,
    pub workload: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// One row per (metric, workload) present in both files, plus a
/// `failed_ops_share` row per workload: any rise there is a regression.
pub fn compare(a: &Results, b: &Results, spreads: Option<&Spreads>) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let (Some(ma), Some(mb)) = (a.end_to_end.get(w.name), b.end_to_end.get(w.name)) else {
            continue;
        };
        for def in &END_TO_END {
            let (Some(&va), Some(&vb)) = (ma.get(def.name), mb.get(def.name)) else {
                continue;
            };
            let spread = spreads.and_then(|s| s.get(w.name)?.get(def.name).copied());
            rows.push(Row {
                metric: def.name,
                workload: w.name,
                a: va,
                b: vb,
                verdict: judge(def, va, vb, spread),
            });
        }
        let (fa, fb) = (a.failed_share(w.name), b.failed_share(w.name));
        rows.push(Row {
            metric: "failed_ops_share",
            workload: w.name,
            a: fa,
            b: fb,
            verdict: if fb > fa {
                Verdict::Regression
            } else {
                Verdict::Ok
            },
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn results(kvps: f64, rss: f64, failed: u64) -> Results {
        let mut r = Results::default();
        r.env.insert("seed".into(), "7".into());
        let row = r.end_to_end.entry("tpcx_net".into()).or_default();
        row.insert("kvps_per_s".into(), kvps);
        row.insert("rss_mib".into(), rss);
        r.per_layer
            .entry("tpcx_net".into())
            .or_default()
            .insert("gateway.cluster.puts".into(), 76000.0);
        r.ops.insert("tpcx_net".into(), (1000, failed));
        r
    }

    #[test]
    fn results_round_trip_through_json() {
        let r = results(8123.456789012345, 171.25, 0);
        let text = r.to_json().to_line();
        assert_eq!(Results::from_json(&Json::parse(&text).unwrap()).unwrap(), r);
        assert!(Results::from_json(&Json::parse("{\"schema\": \"x\"}").unwrap()).is_err());
    }

    #[test]
    fn judge_applies_bound_floor_and_direction() {
        let iotps = end_to_end("kvps_per_s").unwrap(); // higher, 0.25, floor 50
        assert_eq!(judge(iotps, 8000.0, 7000.0, None), Verdict::Ok);
        assert_eq!(judge(iotps, 8000.0, 5000.0, None), Verdict::Regression);
        assert_eq!(judge(iotps, 8000.0, 11000.0, None), Verdict::Improved);
        // Beyond the bound but under the absolute floor: ignored.
        assert_eq!(judge(iotps, 100.0, 60.0, None), Verdict::Ok);
        let rss = end_to_end("rss_mib").unwrap(); // lower, 0.25, floor 8
        assert_eq!(judge(rss, 100.0, 130.0, None), Verdict::Regression);
        assert_eq!(judge(rss, 100.0, 70.0, None), Verdict::Improved);
        assert_eq!(judge(rss, 5.0, 6.5, None), Verdict::Ok);
        // A spread wider than the bound leaves the pair unresolved.
        assert_eq!(judge(rss, 100.0, 130.0, Some(0.3)), Verdict::Unresolved);
        assert_eq!(judge(rss, 100.0, 130.0, Some(0.1)), Verdict::Regression);
    }

    #[test]
    fn compare_reports_each_pair_and_any_rise_in_failures() {
        let base = results(8000.0, 170.0, 0);
        let rows = compare(&base, &results(5000.0, 171.0, 0), None);
        let verdict =
            |rows: &[Row], metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(rows.len(), 3, "two metrics present + failed_ops_share");
        assert_eq!(verdict(&rows, "kvps_per_s"), Verdict::Regression);
        assert_eq!(verdict(&rows, "rss_mib"), Verdict::Ok);
        assert_eq!(verdict(&rows, "failed_ops_share"), Verdict::Ok);
        let rows = compare(&base, &results(8000.0, 170.0, 1), None);
        assert_eq!(verdict(&rows, "failed_ops_share"), Verdict::Regression);
    }

    #[test]
    fn spreads_and_medians_over_runs() {
        let runs: Vec<Results> = (1..=10).map(|i| results(i as f64, 100.0, 0)).collect();
        let s = spreads(&runs);
        assert_eq!(s["tpcx_net"]["kvps_per_s"], 1.0);
        assert_eq!(s["tpcx_net"]["rss_mib"], 0.0);
        assert_eq!(medians(&runs)["tpcx_net"]["kvps_per_s"], 5.5);
    }
}
