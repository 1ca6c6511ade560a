//! End-to-end fixture tests: run the full lint pass over the seeded
//! mini-workspace in `fixtures/ws` and assert the exact findings, down to
//! file and line. One seeded violation (and, where the rule supports it,
//! one suppressed twin) per rule.

use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn findings() -> Vec<analyzer::Finding> {
    analyzer::run_all(&fixture_root()).expect("fixture tree scans cleanly")
}

#[test]
fn exact_findings_over_fixture_workspace() {
    let got: Vec<(String, String, usize)> = findings()
        .into_iter()
        .map(|f| (f.rule.to_string(), f.file, f.line))
        .collect();
    let want: Vec<(String, String, usize)> = [
        ("metrics-sync", "crates/core/src/telemetry.rs", 10),
        ("lock-order", "crates/deadlock/src/lib.rs", 13),
        ("unwrap", "crates/foo/src/lib.rs", 2),
        ("ordering", "crates/foo/src/lib.rs", 11),
        ("error-exhaustive", "crates/foo/src/lib.rs", 22),
        ("unused-allow", "crates/foo/src/lib.rs", 49),
        ("blocking-under-lock", "crates/gateway/src/handler.rs", 12),
        ("blocking-under-lock", "crates/gateway/src/handler.rs", 32),
        ("panic-reachability", "crates/gateway/src/handler.rs", 40),
        ("blocking-under-lock", "crates/gateway/src/handler.rs", 52),
        ("wire-bounded", "crates/gateway/src/server.rs", 2),
        ("unsafe-confined", "crates/iotkv/src/block.rs", 10),
        ("unsafe-confined", "crates/iotkv/src/checksum.rs", 9),
        ("wall-clock", "crates/simkit/src/lib.rs", 2),
        ("wire-exhaustive", "crates/wire/src/msg.rs", 9),
        ("wire-exhaustive", "crates/wire/src/msg.rs", 28),
        ("metrics-sync", "tests/golden/metrics_snapshot.prom", 3),
    ]
    .into_iter()
    .map(|(r, f, l)| (r.to_string(), f.to_string(), l))
    .collect();
    assert_eq!(
        got, want,
        "findings must match the seeded violations exactly"
    );
}

#[test]
fn unwrap_finding_points_at_the_call() {
    let f = findings()
        .into_iter()
        .find(|f| f.rule == "unwrap")
        .expect("unwrap violation seeded");
    assert_eq!((f.file.as_str(), f.line), ("crates/foo/src/lib.rs", 2));
    assert!(f.message.contains(".unwrap()"));
}

#[test]
fn wall_clock_finding_names_the_api() {
    let f = findings()
        .into_iter()
        .find(|f| f.rule == "wall-clock")
        .expect("wall-clock violation seeded");
    assert_eq!((f.file.as_str(), f.line), ("crates/simkit/src/lib.rs", 2));
    assert!(f.message.contains("Instant::now"));
}

#[test]
fn ordering_finding_is_line_exact() {
    let f = findings()
        .into_iter()
        .find(|f| f.rule == "ordering")
        .expect("ordering violation seeded");
    assert_eq!((f.file.as_str(), f.line), ("crates/foo/src/lib.rs", 11));
}

#[test]
fn error_exhaustive_finding_points_at_wildcard_arm() {
    let f = findings()
        .into_iter()
        .find(|f| f.rule == "error-exhaustive")
        .expect("error-exhaustive violation seeded");
    assert_eq!((f.file.as_str(), f.line), ("crates/foo/src/lib.rs", 22));
}

#[test]
fn wire_bounded_flags_raw_reads_outside_wire_frame() {
    let all = findings();
    let wb: Vec<&analyzer::Finding> = all.iter().filter(|f| f.rule == "wire-bounded").collect();
    // One violation in the gateway fixture; its suppressed twin and the
    // sanctioned read in crates/wire/src/frame.rs produce nothing.
    assert_eq!(wb.len(), 1, "{wb:?}");
    assert_eq!(
        (wb[0].file.as_str(), wb[0].line),
        ("crates/gateway/src/server.rs", 2)
    );
    assert!(wb[0].message.contains(".read_exact("));
}

#[test]
fn unsafe_confined_outside_the_allowed_file_and_undocumented_inside() {
    let all = findings();
    let uc: Vec<&analyzer::Finding> = all.iter().filter(|f| f.rule == "unsafe-confined").collect();
    // block.rs: the SAFETY-commented use still fires (wrong file); its
    // suppressed twin, the lint attribute, the string and the comment do
    // not. checksum.rs: only the use without a SAFETY comment fires.
    assert_eq!(uc.len(), 2, "{uc:?}");
    assert_eq!(
        (uc[0].file.as_str(), uc[0].line),
        ("crates/iotkv/src/block.rs", 10)
    );
    assert!(
        uc[0].message.contains("outside `iotkv::checksum`"),
        "{}",
        uc[0].message
    );
    assert_eq!(
        (uc[1].file.as_str(), uc[1].line),
        ("crates/iotkv/src/checksum.rs", 9)
    );
    assert!(uc[1].message.contains("SAFETY:"), "{}", uc[1].message);
}

#[test]
fn metrics_sync_reports_both_directions() {
    let all = findings();
    let ms: Vec<&analyzer::Finding> = all.iter().filter(|f| f.rule == "metrics-sync").collect();
    assert_eq!(ms.len(), 2);
    assert!(ms
        .iter()
        .any(|f| f.file == "crates/core/src/telemetry.rs" && f.line == 10));
    assert!(ms
        .iter()
        .any(|f| f.file == "tests/golden/metrics_snapshot.prom" && f.line == 3));
}

#[test]
fn lock_order_cycle_carries_the_full_witness() {
    let f = findings()
        .into_iter()
        .find(|f| f.rule == "lock-order")
        .expect("deadlock cycle seeded");
    // Anchored at the second acquisition of the cycle's first edge.
    assert_eq!(
        (f.file.as_str(), f.line),
        ("crates/deadlock/src/lib.rs", 13)
    );
    // Both edges, with file:line and holder each; the b -> a edge goes
    // through a helper, so its witness names the call path.
    assert!(
        f.message.contains("`deadlock/a` -> `deadlock/b`"),
        "{}",
        f.message
    );
    assert!(
        f.message.contains("`deadlock/b` -> `deadlock/a`"),
        "{}",
        f.message
    );
    assert!(
        f.message
            .contains("crates/deadlock/src/lib.rs:13 in Pair::ab"),
        "{}",
        f.message
    );
    assert!(
        f.message
            .contains("crates/deadlock/src/lib.rs:19 in Pair::ba"),
        "{}",
        f.message
    );
    assert!(f.message.contains("via Pair::grab_a"), "{}", f.message);
}

#[test]
fn blocking_under_lock_direct_and_transitive() {
    let all = findings();
    let bl: Vec<&analyzer::Finding> = all
        .iter()
        .filter(|f| f.rule == "blocking-under-lock")
        .collect();
    // stream_locked (direct), pace_locked (transitive) and ack_locked
    // (a replica ack) fire; the suppressed twin and the drop-before-send
    // shape stay silent.
    assert_eq!(bl.len(), 3, "{bl:?}");
    assert_eq!(
        (bl[0].file.as_str(), bl[0].line),
        ("crates/gateway/src/handler.rs", 12)
    );
    assert!(
        bl[0].message.contains("socket send (FrameConn)"),
        "{}",
        bl[0].message
    );
    assert!(
        bl[0].message.contains("`gateway/state`"),
        "{}",
        bl[0].message
    );
    assert!(
        bl[0].message.contains("guard taken at line 11"),
        "{}",
        bl[0].message
    );
    assert_eq!(
        (bl[1].file.as_str(), bl[1].line),
        ("crates/gateway/src/handler.rs", 32)
    );
    assert!(
        bl[1].message.contains("via Gate::pace"),
        "{}",
        bl[1].message
    );
    assert!(bl[1].message.contains("thread::sleep"), "{}", bl[1].message);
    assert_eq!(
        (bl[2].file.as_str(), bl[2].line),
        ("crates/gateway/src/handler.rs", 52)
    );
    assert!(
        bl[2].message.contains("storage ack wait (PendingWrite)"),
        "{}",
        bl[2].message
    );
}

#[test]
fn panic_reachability_names_the_path_and_seed() {
    let f = findings()
        .into_iter()
        .find(|f| f.rule == "panic-reachability")
        .expect("transitive panic seeded");
    // Anchored at the entry point's definition, not the seed.
    assert_eq!(
        (f.file.as_str(), f.line),
        ("crates/gateway/src/handler.rs", 40)
    );
    assert!(
        f.message.contains("handle_request -> parse"),
        "{}",
        f.message
    );
    assert!(
        f.message
            .contains("`assert!` at crates/gateway/src/handler.rs:45"),
        "{}",
        f.message
    );
}

#[test]
fn wire_exhaustive_missing_decode_arm_and_test_ref() {
    let all = findings();
    let we: Vec<&analyzer::Finding> = all.iter().filter(|f| f.rule == "wire-exhaustive").collect();
    assert_eq!(we.len(), 2, "{we:?}");
    // `Gone` is encoded (grouped arm) and decoded but never round-trip
    // tested; anchored at the variant declaration.
    assert_eq!(
        (we[0].file.as_str(), we[0].line),
        ("crates/wire/src/msg.rs", 9)
    );
    assert!(we[0].message.contains("`Gone`"), "{}", we[0].message);
    assert!(
        we[0].message.contains("round-trip test"),
        "{}",
        we[0].message
    );
    // `Data` (tag 0x02) has no decode arm; anchored at `fn decode`.
    assert_eq!(
        (we[1].file.as_str(), we[1].line),
        ("crates/wire/src/msg.rs", 28)
    );
    assert!(we[1].message.contains("`Data`"), "{}", we[1].message);
    assert!(we[1].message.contains("0x02"), "{}", we[1].message);
}

#[test]
fn grouped_encode_arm_counts_every_variant() {
    // `Message::Ping | Message::Gone => Vec::new()` must satisfy the
    // encode-arm requirement for BOTH variants: no missing-encode-arm
    // finding anywhere in the fixture codec.
    assert!(
        !findings()
            .iter()
            .any(|f| f.message.contains("no `encode_payload()` arm")),
        "grouped match arms must count for every variant they name"
    );
}

#[test]
fn unused_allow_flags_the_stale_marker_only() {
    let all = findings();
    let ua: Vec<&analyzer::Finding> = all.iter().filter(|f| f.rule == "unused-allow").collect();
    // The stale marker in foo fires; the *used* markers (the unwrap twin
    // in foo, the wire-bounded twin in server.rs, the
    // blocking-under-lock twin in handler.rs, the unsafe-confined twin in
    // block.rs) do not.
    assert_eq!(ua.len(), 1, "{ua:?}");
    assert_eq!(
        (ua[0].file.as_str(), ua[0].line),
        ("crates/foo/src/lib.rs", 49)
    );
    assert!(
        ua[0].message.contains("lint:allow(unwrap)"),
        "{}",
        ua[0].message
    );
}

#[test]
fn lock_graph_edges_and_dot_rendering() {
    let edges = analyzer::lock_graph(&fixture_root()).expect("fixture tree scans cleanly");
    // Three acquired-while-held edges: a->b in ab, b->a in ba (via the
    // helper), and state->state never (self-edges are not edges).
    let pairs: Vec<(String, String)> = edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    assert_eq!(
        pairs,
        vec![
            ("deadlock/a".to_string(), "deadlock/b".to_string()),
            ("deadlock/b".to_string(), "deadlock/a".to_string()),
        ],
        "{edges:?}"
    );
    let ba = &edges[1];
    assert_eq!(ba.via, "Pair::grab_a");
    let dot = analyzer::locks::render_dot(&edges);
    assert!(dot.starts_with("digraph lock_order {"), "{dot}");
    assert!(dot.contains("\"deadlock/a\" -> \"deadlock/b\""), "{dot}");
    assert!(dot.contains("\"deadlock/b\" -> \"deadlock/a\""), "{dot}");
    assert!(dot.contains("lib.rs:13"), "{dot}");
}

#[test]
fn baseline_absorbs_known_findings_and_flags_stale_entries() {
    let all = findings();
    // Baseline = the analyzer's own JSON output for the current findings:
    // applying it yields zero actionable findings.
    let json = format!(
        "[{}]",
        all.iter()
            .map(|f| f.to_json())
            .collect::<Vec<_>>()
            .join(",")
    );
    let entries = analyzer::baseline::parse(&json).expect("own output parses");
    assert_eq!(entries.len(), all.len());
    assert!(analyzer::baseline::apply(all.clone(), &entries).is_empty());
    // A fixed finding leaves its baseline entry stale — and reported.
    let still = all
        .iter()
        .filter(|f| f.rule != "unwrap")
        .cloned()
        .collect::<Vec<_>>();
    let out = analyzer::baseline::apply(still, &entries);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "stale-baseline");
    assert_eq!(
        (out[0].file.as_str(), out[0].line),
        ("crates/foo/src/lib.rs", 2)
    );
}

#[test]
fn json_output_is_machine_readable() {
    let all = findings();
    let json = format!(
        "[{}]",
        all.iter()
            .map(|f| f.to_json())
            .collect::<Vec<_>>()
            .join(",")
    );
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"rule\":\"unwrap\""));
    assert!(json.contains("\"file\":\"crates/foo/src/lib.rs\""));
    assert!(json.contains("\"line\":2"));
}

#[test]
fn scan_is_deterministic() {
    let a = findings();
    let b = findings();
    assert_eq!(a, b);
}
