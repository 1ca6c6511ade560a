//! Property-based tests over the reproduction's core invariants.

use proptest::prelude::*;
use tpcx_iot::keys::{decode_reading, encode_reading, sensor_time_range, SensorReading, KVP_SIZE};
use tpcx_iot::metrics::{performance_run, MeasuredRun};

/// Characters legal in substation/sensor keys and values for these tests
/// (the schema uses `|` as separator, so components exclude it).
fn component(max: usize) -> impl Strategy<Value = String> {
    proptest::string::string_regex(&format!("[a-zA-Z0-9_.-]{{1,{max}}}")).expect("valid regex")
}

fn reading() -> impl Strategy<Value = SensorReading> {
    (
        component(64),
        component(64),
        0u64..9_999_999_999_999u64,
        proptest::string::string_regex("[0-9]{1,12}(\\.[0-9]{1,6})?").expect("regex"),
        component(30).prop_map(|s| format!("u-{s}").chars().take(34).collect::<String>()),
    )
        .prop_filter("unit must be 4-34 chars", |(_, _, _, _, u)| {
            u.len() >= 4 && u.len() <= 34
        })
        .prop_filter("value 1-20 chars", |(_, _, _, v, _)| v.len() <= 20)
        .prop_map(
            |(substation, sensor, timestamp_ms, value, unit)| SensorReading {
                substation,
                sensor,
                timestamp_ms,
                value,
                unit,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode ∘ decode is the identity and always produces exactly 1 KB.
    #[test]
    fn kvp_round_trip(r in reading()) {
        let (k, v) = encode_reading(&r);
        prop_assert_eq!(k.len() + v.len(), KVP_SIZE);
        let back = decode_reading(&k, &v).expect("decodes");
        prop_assert_eq!(back, r);
    }

    /// Within one sensor, key order equals timestamp order.
    #[test]
    fn key_order_is_time_order(
        r in reading(),
        t1 in 0u64..9_999_999_999_999u64,
        t2 in 0u64..9_999_999_999_999u64,
    ) {
        let mut a = r.clone();
        a.timestamp_ms = t1;
        let mut b = r;
        b.timestamp_ms = t2;
        let (ka, _) = encode_reading(&a);
        let (kb, _) = encode_reading(&b);
        prop_assert_eq!(ka.cmp(&kb), t1.cmp(&t2));
    }

    /// A reading falls inside a sensor-time-range window iff its
    /// timestamp does.
    #[test]
    fn range_membership_matches_timestamps(
        r in reading(),
        from in 0u64..9_999_999_999_000u64,
        span in 1u64..600_000u64,
    ) {
        let to = from + span;
        let (start, end) = sensor_time_range(&r.substation, &r.sensor, from, to);
        let (k, _) = encode_reading(&r);
        let inside = k.as_ref() >= start.as_slice() && k.as_ref() < end.as_slice();
        let expected = r.timestamp_ms >= from && r.timestamp_ms < to;
        prop_assert_eq!(inside, expected);
    }

    /// The performance run is always the slower-or-equal rate of the two.
    #[test]
    fn performance_run_is_conservative(
        n1 in 1u64..1_000_000u64,
        n2 in 1u64..1_000_000u64,
        e1 in 0.1f64..10_000.0,
        e2 in 0.1f64..10_000.0,
    ) {
        let r1 = MeasuredRun { ingested: n1, elapsed_secs: e1 };
        let r2 = MeasuredRun { ingested: n2, elapsed_secs: e2 };
        let m = performance_run(r1, r2);
        // The chosen run never has more ingested kvps than either input.
        prop_assert!(m.ingested <= n1.max(n2));
        prop_assert!(m.ingested == n1 || m.ingested == n2);
        // With equal counts it is the slower one.
        if n1 == n2 {
            prop_assert!(m.elapsed_secs >= e1.min(e2));
            prop_assert!((m.elapsed_secs - e1.max(e2)).abs() < 1e-12);
        }
    }
}

mod md5_props {
    use super::*;
    use tpcx_iot::md5::{md5_hex, Md5};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Incremental hashing equals one-shot for arbitrary chunkings.
        #[test]
        fn md5_chunking_invariant(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            chunk in 1usize..512,
        ) {
            let whole = md5_hex(&data);
            let mut ctx = Md5::new();
            for part in data.chunks(chunk) {
                ctx.update(part);
            }
            let digest = ctx.finish();
            let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
            prop_assert_eq!(hex, whole);
        }

        /// Distinct single-byte perturbations change the digest.
        #[test]
        fn md5_sensitive_to_flips(
            data in proptest::collection::vec(any::<u8>(), 1..1024),
            idx in any::<prop::sample::Index>(),
        ) {
            let i = idx.index(data.len());
            let mut flipped = data.clone();
            flipped[i] ^= 0x01;
            prop_assert_ne!(md5_hex(&data), md5_hex(&flipped));
        }
    }
}

mod histogram_props {
    use super::*;
    use simkit::stats::Histogram;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Histogram quantiles track exact quantiles within the bucket
        /// error bound, and min/max/count/sum are exact.
        #[test]
        fn histogram_tracks_exact_stats(
            mut values in proptest::collection::vec(0u64..1_000_000_000u64, 1..500),
        ) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.min(), values[0]);
            prop_assert_eq!(h.max(), *values.last().unwrap());
            prop_assert_eq!(h.sum(), values.iter().map(|&v| v as u128).sum::<u128>());
            for q in [0.25, 0.5, 0.9, 0.99] {
                let exact = values[(((q * values.len() as f64).ceil() as usize).max(1) - 1).min(values.len() - 1)];
                let approx = h.value_at_quantile(q);
                // Log-linear buckets bound relative error at ~1/32 plus
                // the one-value granularity at small counts.
                let tolerance = (exact as f64 * 0.04).max(1.0);
                prop_assert!(
                    (approx as f64 - exact as f64).abs() <= tolerance
                        || (approx >= values[0] && approx <= *values.last().unwrap()),
                    "q={} approx={} exact={}", q, approx, exact
                );
            }
        }
    }
}

mod telemetry_props {
    use super::*;
    use simkit::stats::Histogram;
    use tpcx_iot::telemetry::{OpClass, Phase, ThreadRecorder};

    fn hist_of(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    /// Exact-equality fingerprint of a histogram: counts and sums are
    /// integers, quantiles are bucket boundaries — all deterministic.
    fn fingerprint(h: &Histogram) -> (u64, u128, u64, u64, Vec<u64>) {
        (
            h.count(),
            h.sum(),
            if h.count() == 0 { 0 } else { h.min() },
            h.max(),
            [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999]
                .iter()
                .map(|&q| h.value_at_quantile(q))
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Histogram merge is commutative: a ⊕ b == b ⊕ a.
        #[test]
        fn histogram_merge_commutes(
            a in proptest::collection::vec(0u64..10_000_000_000u64, 0..300),
            b in proptest::collection::vec(0u64..10_000_000_000u64, 0..300),
        ) {
            let (ha, hb) = (hist_of(&a), hist_of(&b));
            let mut ab = ha.clone();
            ab.merge(&hb);
            let mut ba = hb.clone();
            ba.merge(&ha);
            prop_assert_eq!(fingerprint(&ab), fingerprint(&ba));
        }

        /// Histogram merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        #[test]
        fn histogram_merge_associates(
            a in proptest::collection::vec(0u64..10_000_000_000u64, 0..200),
            b in proptest::collection::vec(0u64..10_000_000_000u64, 0..200),
            c in proptest::collection::vec(0u64..10_000_000_000u64, 0..200),
        ) {
            let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(fingerprint(&left), fingerprint(&right));
        }

        /// Samples scattered across per-thread recorders and merged give
        /// the same quantiles as one recorder fed everything — merge is
        /// exact on bucket counts, so "within bucket error" is equality.
        #[test]
        fn merged_thread_recorders_match_single_recorder(
            samples in proptest::collection::vec(
                // (latency, window index, retries)
                (1u64..5_000_000_000u64, 0u64..8, 0u64..3),
                1..400,
            ),
            threads in 1usize..6,
        ) {
            let window = 1_000_000u64;
            let mut parts: Vec<ThreadRecorder> =
                (0..threads).map(|_| ThreadRecorder::new(window)).collect();
            let mut single = ThreadRecorder::new(window);
            for (i, &(latency, w, retries)) in samples.iter().enumerate() {
                let t = w * window + latency % window;
                parts[i % threads].record_ingest(t, latency, retries);
                single.record_ingest(t, latency, retries);
                if i % 7 == 0 {
                    parts[i % threads].record_query(t, latency / 2, 0);
                    single.record_query(t, latency / 2, 0);
                }
                if i % 11 == 0 {
                    parts[i % threads].record_failed(latency * 2);
                    single.record_failed(latency * 2);
                }
            }
            let mut merged = parts.remove(0);
            for part in &parts {
                merged.merge(part);
            }
            for class in OpClass::ALL {
                prop_assert_eq!(
                    fingerprint(merged.histogram(class)),
                    fingerprint(single.histogram(class)),
                    "class {:?}", class
                );
            }
            let (ms, ss) = (merged.snapshot(Phase::Measured), single.snapshot(Phase::Measured));
            prop_assert_eq!(ms.ingest_windows, ss.ingest_windows);
            prop_assert_eq!(ms.query_windows, ss.query_windows);
        }
    }
}

mod query_props {
    use super::*;
    use tpcx_iot::backend::{GatewayBackend, MemBackend};
    use tpcx_iot::query::{execute, IntervalAggregate, QueryKind, QuerySpec, WINDOW_MS};

    /// Materialized reference implementation: collect the whole window
    /// into a `Vec` via the non-streaming `scan`, decode with the full
    /// [`decode_reading`] codec, then aggregate. This is exactly what
    /// `query::execute` did before the streaming refactor.
    fn materialized_interval(
        b: &dyn GatewayBackend,
        kind: QueryKind,
        substation: &str,
        sensor: &str,
        from_ms: u64,
        to_ms: u64,
    ) -> IntervalAggregate {
        let (start, end) = sensor_time_range(substation, sensor, from_ms, to_ms);
        let rows = b.scan(&start, &end, usize::MAX).expect("materialized scan");
        let values: Vec<f64> = rows
            .iter()
            .filter_map(|(k, v)| decode_reading(k, v))
            .filter_map(|r| r.value.parse::<f64>().ok())
            .collect();
        let value = if values.is_empty() {
            None
        } else {
            Some(match kind {
                QueryKind::MaxReading => values.iter().cloned().fold(f64::MIN, f64::max),
                QueryKind::MinReading => values.iter().cloned().fold(f64::MAX, f64::min),
                QueryKind::AverageReading => values.iter().sum::<f64>() / values.len() as f64,
                QueryKind::ReadingCount => values.len() as f64,
            })
        };
        IntervalAggregate {
            rows: values.len() as u64,
            value,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The streamed fold (`query::execute` via `scan_fold`, zero
        /// materialization) computes exactly the same aggregates, row
        /// counts, and rows_read as the materialized reference on random
        /// data and random windows — including in-range junk rows the
        /// decoder must reject and prefix-sibling sensors the range must
        /// exclude.
        #[test]
        fn streamed_fold_matches_materialized_aggregate(
            timestamps in proptest::collection::vec(0u64..60_000u64, 0..120),
            values in proptest::collection::vec(
                proptest::string::string_regex("[0-9]{1,10}(\\.[0-9]{1,6})?").expect("regex"),
                120..121,
            ),
            kind_idx in 0usize..4,
            current_from in 0u64..60_000u64,
            past_from in 0u64..60_000u64,
        ) {
            let b = MemBackend::new();
            for (i, &ts) in timestamps.iter().enumerate() {
                let r = SensorReading {
                    substation: "PSS-000000".into(),
                    sensor: "pmu-000".into(),
                    timestamp_ms: ts,
                    value: values[i].clone(),
                    unit: "volts".into(),
                };
                let (k, v) = encode_reading(&r);
                b.insert(&k, &v).unwrap();
            }
            // A prefix-sibling sensor the range bounds must exclude, and
            // in-range rows the decoder must reject on both paths.
            let (k, v) = encode_reading(&SensorReading {
                substation: "PSS-000000".into(),
                sensor: "pmu-0001".into(),
                timestamp_ms: 30_000,
                value: "999".into(),
                unit: "volts".into(),
            });
            b.insert(&k, &v).unwrap();
            b.insert(b"PSS-000000|pmu-000|0000000030001", b"not-a-reading").unwrap();
            b.insert(b"PSS-000000|pmu-000|0000000030002", b"nan-ish|volts|pad").unwrap();

            let kind = QueryKind::ALL[kind_idx];
            let spec = QuerySpec {
                kind,
                substation: "PSS-000000".into(),
                sensor: "pmu-000".into(),
                current_from_ms: current_from,
                current_to_ms: current_from + WINDOW_MS,
                past_from_ms: past_from,
                past_to_ms: past_from + WINDOW_MS,
            };
            let streamed = execute(&b, &spec).expect("streamed query");
            let current = materialized_interval(
                &b, kind, "PSS-000000", "pmu-000", current_from, current_from + WINDOW_MS,
            );
            let past = materialized_interval(
                &b, kind, "PSS-000000", "pmu-000", past_from, past_from + WINDOW_MS,
            );
            prop_assert_eq!(streamed.current, current);
            prop_assert_eq!(streamed.past, past);
            prop_assert_eq!(streamed.rows_read, current.rows + past.rows);
            prop_assert_eq!(streamed.retries, 0u64);
        }
    }

    /// The same equivalence on a real 3-node cluster while a writer
    /// batch-ingests a disjoint substation: region boundaries fall
    /// between sensors and inside query windows, so one streamed scan
    /// chains `ClusterScan` cursors across regions while memtables
    /// rotate and flush under it.
    #[test]
    fn streamed_fold_matches_materialized_on_a_live_cluster() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;

        const SENSORS: u64 = 8;
        const ROWS: u64 = 250; // per sensor and window
        const NOW_MS: u64 = 10_000_000;
        const PAST_MS: u64 = NOW_MS - 1_000_000;
        let reading = |substation: &str, sensor: u64, timestamp_ms: u64, value: f64| {
            encode_reading(&SensorReading {
                substation: substation.into(),
                sensor: format!("pmu-{sensor:03}"),
                timestamp_ms,
                value: format!("{value:.3}"),
                unit: "volts".into(),
            })
        };

        let dir = std::env::temp_dir().join(format!("tpcx-props-live-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = gateway::ClusterConfig::new(&dir, 3);
        config.split_points = [
            (1, NOW_MS - WINDOW_MS / 2),
            (4, 0),
            (5, PAST_MS + WINDOW_MS / 2),
        ]
        .iter()
        .map(|&(sensor, ts)| reading("PSS-000000", sensor, ts, 0.0).0)
        .collect();
        config.storage = iotkv::Options {
            memtable_bytes: 1 << 20,
            ..iotkv::Options::default()
        };
        let cluster = Arc::new(gateway::Cluster::start(config).expect("cluster starts"));
        for sensor in 0..SENSORS {
            for from_ms in [NOW_MS - WINDOW_MS, PAST_MS] {
                let batch: Vec<_> = (0..ROWS)
                    .map(|i| {
                        let value = 100.0 + ((i * 37) % 101) as f64 + sensor as f64 / 4.0;
                        reading(
                            "PSS-000000",
                            sensor,
                            from_ms + i * (WINDOW_MS / ROWS),
                            value,
                        )
                    })
                    .collect();
                cluster.put_batch(&batch).expect("preload");
            }
        }

        let stop = Arc::new(AtomicBool::new(false));
        let written = Arc::new(AtomicU64::new(0));
        let writer = {
            let (cluster, stop, written) = (
                Arc::clone(&cluster),
                Arc::clone(&stop),
                Arc::clone(&written),
            );
            std::thread::spawn(move || {
                let mut ts = NOW_MS;
                // ordering: Relaxed — a stop latch; the join below orders
                // everything the writer did before the final count.
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<_> = (0..64)
                        .map(|i| reading("PSS-000001", i % SENSORS, ts + i, i as f64))
                        .collect();
                    cluster.put_batch(&batch).expect("concurrent ingest");
                    ts += 64;
                    // ordering: Relaxed — progress counter, read after join.
                    written.fetch_add(64, Ordering::Relaxed);
                }
            })
        };
        // ordering: Relaxed — only waits until ingest is under way.
        while written.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }

        for q in 0..4 * SENSORS {
            let kind = QueryKind::ALL[(q % 4) as usize];
            let sensor = format!("pmu-{:03}", q / 4);
            let spec = QuerySpec {
                kind,
                substation: "PSS-000000".into(),
                sensor: sensor.clone(),
                current_from_ms: NOW_MS - WINDOW_MS,
                current_to_ms: NOW_MS,
                past_from_ms: PAST_MS,
                past_to_ms: PAST_MS + WINDOW_MS,
            };
            let streamed = execute(cluster.as_ref(), &spec).expect("streamed query");
            let current = materialized_interval(
                cluster.as_ref(),
                kind,
                "PSS-000000",
                &sensor,
                NOW_MS - WINDOW_MS,
                NOW_MS,
            );
            let past = materialized_interval(
                cluster.as_ref(),
                kind,
                "PSS-000000",
                &sensor,
                PAST_MS,
                PAST_MS + WINDOW_MS,
            );
            assert_eq!(streamed.current, current, "{kind:?} {sensor}");
            assert_eq!(streamed.past, past, "{kind:?} {sensor}");
            assert_eq!((current.rows, past.rows), (ROWS, ROWS), "{kind:?} {sensor}");
            assert_eq!(streamed.rows_read, 2 * ROWS);
        }

        // ordering: Relaxed — see the writer loop.
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer");
        let stats = cluster.stats();
        assert_eq!(stats.regions, 4, "the pre-split regions");
        // ordering: Relaxed — read after join.
        assert_eq!(
            stats.puts,
            2 * SENSORS * ROWS + written.load(Ordering::Relaxed)
        );
        drop(cluster);
        std::fs::remove_dir_all(dir).ok();
    }
}

mod generator_props {
    use super::*;
    use ycsb::generator::{Generator, UniformGenerator, ZipfianGenerator};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// All YCSB generators stay within their configured ranges.
        #[test]
        fn generators_stay_in_range(
            seed in any::<u64>(),
            n in 1u64..10_000u64,
        ) {
            let mut rng = simkit::rng::Stream::new(seed);
            let mut zipf = ZipfianGenerator::new(n);
            let mut uni = UniformGenerator::new(0, n - 1);
            for _ in 0..200 {
                prop_assert!(zipf.next_value(&mut rng) < n);
                prop_assert!(uni.next_value(&mut rng) < n);
            }
        }
    }
}

mod netplane_props {
    use super::*;
    use tpcx_iot::netplane::{recorder_from_state, recorder_to_state};
    use tpcx_iot::telemetry::{MetricsRegistry, Phase, ThreadRecorder};
    use wire::Message;

    /// One telemetry recording, in a form proptest can generate.
    #[derive(Clone, Debug)]
    enum Op {
        Ingest {
            t: u64,
            latency: u64,
            retries: u64,
        },
        Batch {
            t: u64,
            latency: u64,
            fill: u64,
            retries: u64,
        },
        Query {
            t: u64,
            latency: u64,
            retries: u64,
        },
        Scan {
            t: u64,
            latency: u64,
            rows: u64,
        },
        Failed {
            latency: u64,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        let t = 0u64..5_000_000_000u64;
        let latency = 0u64..100_000_000u64;
        prop_oneof![
            (t.clone(), latency.clone(), 0u64..4).prop_map(|(t, latency, retries)| Op::Ingest {
                t,
                latency,
                retries
            }),
            (t.clone(), latency.clone(), 1u64..64, 0u64..4).prop_map(
                |(t, latency, fill, retries)| Op::Batch {
                    t,
                    latency,
                    fill,
                    retries
                }
            ),
            (t.clone(), latency.clone(), 0u64..4).prop_map(|(t, latency, retries)| Op::Query {
                t,
                latency,
                retries
            }),
            (t, latency.clone(), 0u64..2_000).prop_map(|(t, latency, rows)| Op::Scan {
                t,
                latency,
                rows
            }),
            latency.prop_map(|latency| Op::Failed { latency }),
        ]
    }

    fn replay(ops: &[Op]) -> ThreadRecorder {
        let mut rec = ThreadRecorder::new(1_000_000_000);
        for op in ops {
            match *op {
                Op::Ingest {
                    t,
                    latency,
                    retries,
                } => rec.record_ingest(t, latency, retries),
                Op::Batch {
                    t,
                    latency,
                    fill,
                    retries,
                } => rec.record_batch(t, latency, fill, retries),
                Op::Query {
                    t,
                    latency,
                    retries,
                } => rec.record_query(t, latency, retries),
                Op::Scan { t, latency, rows } => rec.record_scan(t, latency, rows),
                Op::Failed { latency } => rec.record_failed(latency),
            }
        }
        rec
    }

    fn registry_json(merged: &ThreadRecorder) -> String {
        let mut registry = MetricsRegistry::new();
        registry.add_phase("measured 1", merged.snapshot(Phase::Measured), Vec::new());
        registry.verdict = "VALID".into();
        registry.to_json()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tentpole fidelity contract of the networked plane: each
        /// agent's recorder serialized to wire state, shipped through the
        /// real `PhaseDone` codec, deserialized and merged on the
        /// controller produces a registry export byte-identical to
        /// merging the original in-process recorders.
        #[test]
        fn shipped_recorder_merge_is_bit_identical(
            fleets in proptest::collection::vec(
                proptest::collection::vec(op(), 0..120),
                1..4,
            ),
        ) {
            let recorders: Vec<ThreadRecorder> =
                fleets.iter().map(|ops| replay(ops)).collect();

            // In-process: merge the originals in agent order.
            let mut local = recorders[0].clone();
            for rec in &recorders[1..] {
                local.merge(rec);
            }

            // Networked: state → PhaseDone frame bytes → state → merge.
            let mut shipped: Option<ThreadRecorder> = None;
            for rec in &recorders {
                let msg = Message::PhaseDone {
                    summaries: Vec::new(),
                    recorder: recorder_to_state(rec),
                };
                let decoded = Message::decode(msg.tag(), &msg.encode_payload())
                    .expect("codec round trip");
                let state = match decoded {
                    Message::PhaseDone { recorder, .. } => recorder,
                    other => panic!("unexpected {}", other.name()),
                };
                let rebuilt = recorder_from_state(&state).expect("valid state");
                match shipped.as_mut() {
                    Some(m) => m.merge(&rebuilt),
                    None => shipped = Some(rebuilt),
                }
            }
            let shipped = shipped.expect("at least one agent");

            prop_assert_eq!(registry_json(&local), registry_json(&shipped));
        }
    }
}
