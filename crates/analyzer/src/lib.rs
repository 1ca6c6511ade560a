//! Workspace analyzer: a dependency-free static-analysis pass over the
//! repo's own source tree, run in CI as `cargo run -p analyzer -- check`.
//!
//! The analyzer walks `crates/*/src` and the top-level `tests/` directory
//! (fixtures under `crates/analyzer/fixtures/` are deliberately outside
//! both). On top of the line lexer it builds a lightweight symbol index
//! (`symbols`) and an intra-crate call graph (`graph`), then enforces
//! thirteen rules:
//!
//! * `unwrap` — no `.unwrap()` / `.expect(` / `panic!` outside test
//!   scopes and bench bins.
//! * `wall-clock` — no `SystemTime::now` / `Instant::now` inside the
//!   deterministic simulation and fault-injection code.
//! * `ordering` — every atomic `Ordering::*` use carries a
//!   `// ordering:` justification comment.
//! * `metrics-sync` — `OpClass::name()` strings stay in sync with the
//!   `op="…"` labels in the golden Prometheus snapshot.
//! * `error-exhaustive` — no `_ =>` catch-all in matches over
//!   `ErrorKind`.
//! * `region-map` — `RegionMap` mutations stay inside
//!   `gateway::topology`, the epoch-fenced reconfiguration module.
//! * `wire-bounded` — raw, potentially unbounded reads stay inside
//!   `wire::frame`, the one length-validated, timeout-mandatory read
//!   site.
//! * `unsafe-confined` — `unsafe` appears only in `iotkv::checksum`
//!   (the SSE4.2 CRC kernel's call), each use under a `// SAFETY:`
//!   comment.
//! * `lock-order` — the acquired-while-held graph (same-function and
//!   through intra-crate calls) stays acyclic; a cycle is a potential
//!   deadlock and is reported with its full witness path.
//! * `blocking-under-lock` — no socket I/O, fsync, storage write, or
//!   `thread::sleep` while a lock guard is live in the gateway or the
//!   networked benchmark plane, directly or through a call chain.
//! * `panic-reachability` — hot-path entry points (`Cluster::put`,
//!   `scan_stream`, `run_networked`, the server accept/serve path, …)
//!   are transitively panic-free over the call graph.
//! * `wire-exhaustive` — every `Message` variant in `wire::msg` has a
//!   `tag()` arm, an `encode_payload` arm, a `decode` arm, and a
//!   round-trip test reference.
//! * `unused-allow` — every `lint:allow(rule)` marker still suppresses
//!   something; stale allows are findings themselves.
//!
//! Suppress a finding with `// lint:allow(rule-name)` on the offending
//! line, the line directly above, or the contiguous comment block above.
//! See `DESIGN.md` §11 and §14 for the full contracts and rationale.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod symbols;

use graph::CallGraph;
use lexer::{lex, LexedLine};
use rules::FileView;
use symbols::SymbolIndex;

/// Every rule a `lint:allow(...)` marker can name. The `unused-allow`
/// audit only counts markers naming these; anything else in a comment
/// (prose, examples) is not an allow.
pub const SUPPRESSIBLE_RULES: [&str; 11] = [
    "unwrap",
    "wall-clock",
    "ordering",
    "error-exhaustive",
    "region-map",
    "wire-bounded",
    "unsafe-confined",
    "lock-order",
    "blocking-under-lock",
    "panic-reachability",
    "wire-exhaustive",
];

/// One lint violation, pointing at a workspace-relative `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn new(rule: &'static str, file: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }

    /// Serializes the finding as a JSON object (hand-rolled: the crate is
    /// dependency-free by design). Key order is fixed, so equal findings
    /// serialize to identical bytes.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(self.rule),
            json_escape(&self.file),
            self.line,
            json_escape(&self.message)
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Whether the `unwrap` rule covers `rel` (workspace-relative, `/`-style).
/// Integration tests and bench bins legitimately panic on setup failure.
pub fn unwrap_rule_applies(rel: &str) -> bool {
    !rel.starts_with("tests/") && !rel.contains("/src/bin/")
}

/// Whether the `wall-clock` rule covers `rel`: the deterministic
/// simulation kit, the simulated scale-out cluster, and the gateway's
/// fault-injection plane must be replayable from a seed, so none of them
/// may read the wall clock.
pub fn wall_clock_rule_applies(rel: &str) -> bool {
    rel.starts_with("crates/simkit/src/")
        || rel.starts_with("crates/simcluster/src/")
        || rel == "crates/gateway/src/fault.rs"
}

/// Whether the `ordering` rule covers `rel`. Test files document their
/// orderings at the model level instead of per-site.
pub fn ordering_rule_applies(rel: &str) -> bool {
    !rel.starts_with("tests/")
}

/// Whether the `region-map` rule covers `rel`: all of the gateway crate
/// except the module that defines `RegionMap` (`region.rs`, whose own
/// methods and tests must mutate it) and the one sanctioned mutation
/// site (`topology.rs`, which owns the epoch-fence protocol).
pub fn region_map_rule_applies(rel: &str) -> bool {
    rel.starts_with("crates/gateway/src/")
        && rel != "crates/gateway/src/region.rs"
        && rel != "crates/gateway/src/topology.rs"
}

/// Whether the `wire-bounded` rule covers `rel`: everywhere except
/// `wire::frame`, the one sanctioned raw-read site — it validates the
/// length prefix against `MAX_FRAME_LEN` before allocating and rejects
/// a zero read timeout at construction, so its `read_exact` calls are
/// bounded in both size and time.
pub fn wire_bounded_rule_applies(rel: &str) -> bool {
    rel != "crates/wire/src/frame.rs"
}

/// The one file allowed `unsafe` by the `unsafe-confined` rule (which
/// covers every file): `iotkv::checksum`, whose dispatcher calls the
/// SSE4.2 CRC kernel only after runtime feature detection. Even there,
/// each `unsafe` needs a `// SAFETY:` comment.
pub fn unsafe_allowed_in(rel: &str) -> bool {
    rel == "crates/iotkv/src/checksum.rs"
}

/// The one file the `wire-exhaustive` rule covers: the `Message` enum and
/// its codec.
pub fn wire_exhaustive_rule_applies(rel: &str) -> bool {
    rel == "crates/wire/src/msg.rs"
}

/// Reads and lexes every workspace source under `root`, in sorted order.
/// The `(relative-name, lexed-lines)` pairs feed both the per-file rules
/// and [`SymbolIndex::build`].
pub fn load_workspace(root: &Path) -> io::Result<Vec<(String, Vec<LexedLine>)>> {
    let mut files = Vec::new();
    for file in workspace_sources(root)? {
        let rel = relative_name(root, &file);
        let source = fs::read_to_string(&file)?;
        files.push((rel, lex(&source)));
    }
    Ok(files)
}

/// Runs every rule over the workspace rooted at `root`.
///
/// Pipeline: lex all sources → per-file lexical rules → symbol index and
/// call graph → the four deep rules (`lock-order`,
/// `blocking-under-lock`, `panic-reachability`, `wire-exhaustive`) → the
/// `unused-allow` audit (which must run last: only then is marker
/// consumption complete). Output is sorted by `(file, line, rule)` and
/// byte-deterministic.
pub fn run_all(root: &Path) -> io::Result<Vec<Finding>> {
    let files = load_workspace(root)?;
    let views: Vec<FileView> = files
        .iter()
        .map(|(_, lines)| FileView::new(lines))
        .collect();
    let mut findings = Vec::new();

    for ((rel, _), view) in files.iter().zip(&views) {
        if unwrap_rule_applies(rel) {
            rules::check_unwrap(view, rel, &mut findings);
        }
        if wall_clock_rule_applies(rel) {
            rules::check_wall_clock(view, rel, &mut findings);
        }
        if ordering_rule_applies(rel) {
            rules::check_ordering(view, rel, &mut findings);
        }
        if region_map_rule_applies(rel) {
            rules::check_region_map(view, rel, &mut findings);
        }
        if wire_bounded_rule_applies(rel) {
            rules::check_wire_bounded(view, rel, &mut findings);
        }
        if wire_exhaustive_rule_applies(rel) {
            rules::check_wire_exhaustive(view, rel, &mut findings);
        }
        rules::check_unsafe_confined(view, rel, unsafe_allowed_in(rel), &mut findings);
        rules::check_error_exhaustive(view, rel, &mut findings);
    }

    let index = SymbolIndex::build(&files, &views);
    let cg = CallGraph::build(&index);
    let by_file: BTreeMap<&str, &FileView> = files
        .iter()
        .zip(&views)
        .map(|((rel, _), view)| (rel.as_str(), view))
        .collect();
    locks::check_lock_order(&cg, &by_file, &mut findings);
    locks::check_blocking_under_lock(&cg, &by_file, &mut findings);
    graph::check_panic_reachability(&cg, &by_file, &mut findings);

    let telemetry_path = root.join("crates/core/src/telemetry.rs");
    let prom_path = root.join("tests/golden/metrics_snapshot.prom");
    if telemetry_path.is_file() && prom_path.is_file() {
        let telemetry = lex(&fs::read_to_string(&telemetry_path)?);
        let prom = fs::read_to_string(&prom_path)?;
        rules::check_metrics_sync(
            &telemetry,
            &relative_name(root, &telemetry_path),
            &prom,
            &relative_name(root, &prom_path),
            &mut findings,
        );
    }

    // Must be last: every other rule (and the symbol index's panic-seed
    // vouching) marks the markers it consumed.
    for ((rel, _), view) in files.iter().zip(&views) {
        rules::check_unused_allow(view, rel, &mut findings);
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// Builds the acquired-while-held lock graph for the workspace at `root`
/// (the `analyzer graph` subcommand).
pub fn lock_graph(root: &Path) -> io::Result<Vec<locks::LockEdge>> {
    let files = load_workspace(root)?;
    let views: Vec<FileView> = files
        .iter()
        .map(|(_, lines)| FileView::new(lines))
        .collect();
    let index = SymbolIndex::build(&files, &views);
    let cg = CallGraph::build(&index);
    Ok(locks::lock_order_edges(&cg))
}

/// Every `.rs` file under `crates/*/src` and `tests/`, sorted for
/// deterministic output.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let tests_dir = root.join("tests");
    if tests_dir.is_dir() {
        collect_rs(&tests_dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_name(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    // Normalize to `/` so findings are stable across platforms.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
