//! The lint rules. Each rule walks the lexed lines of one file (plus, for
//! `metrics-sync`, one cross-file comparison) and emits [`Finding`]s.
//!
//! Rules and their contracts are documented in `DESIGN.md` §10. Every
//! rule honours per-line `// lint:allow(rule-name)` suppressions, written
//! either on the offending line or on the line directly above it.

use crate::lexer::LexedLine;
use crate::Finding;
use std::cell::RefCell;
use std::collections::BTreeSet;

/// The five atomic-ordering variant names. Matching these (rather than
/// bare `Ordering::`) keeps `std::cmp::Ordering` comparators out of the
/// rule's jurisdiction.
const ATOMIC_ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Per-line facts shared by the rules: brace depth at line start, whether
/// the line sits inside a `#[cfg(test)]` / `#[test]` scope, and which
/// `lint:allow(rule)` markers the file carries. Marker *consumption* is
/// tracked so the dead-suppression audit ([`check_unused_allow`]) can
/// flag allows that no longer match a violation.
pub struct FileView<'a> {
    pub lines: &'a [LexedLine],
    depth_at_start: Vec<usize>,
    in_test: Vec<bool>,
    /// Every `lint:allow(<rule>)` marker: (0-based line index, rule name).
    markers: Vec<(usize, String)>,
    /// Indices into `markers` that suppressed at least one real violation.
    used: RefCell<BTreeSet<usize>>,
}

impl<'a> FileView<'a> {
    pub fn new(lines: &'a [LexedLine]) -> FileView<'a> {
        let mut depth_at_start = Vec::with_capacity(lines.len());
        let mut in_test = Vec::with_capacity(lines.len());
        let mut depth = 0usize;
        // Depth below which we leave test scope; None = not in test code.
        let mut test_floor: Option<usize> = None;
        // A `#[test]`-ish attribute was seen; the next opened brace starts
        // the test item's body.
        let mut pending_attr = false;
        for line in lines {
            depth_at_start.push(depth);
            if line.code.contains("#[cfg(test)") || line.code.contains("#[test]") {
                pending_attr = true;
            }
            let mut line_is_test = test_floor.is_some();
            for c in line.code.chars() {
                match c {
                    '{' => {
                        if pending_attr && test_floor.is_none() {
                            test_floor = Some(depth);
                            pending_attr = false;
                            line_is_test = true;
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if test_floor.is_some_and(|floor| depth <= floor) {
                            test_floor = None;
                        }
                    }
                    _ => {}
                }
            }
            in_test.push(line_is_test || test_floor.is_some());
        }
        let mut markers = Vec::new();
        for (idx, line) in lines.iter().enumerate() {
            let mut rest = line.comment.as_str();
            while let Some(at) = rest.find("lint:allow(") {
                let tail = &rest[at + "lint:allow(".len()..];
                if let Some(end) = tail.find(')') {
                    markers.push((idx, tail[..end].to_string()));
                    rest = &tail[end + 1..];
                } else {
                    break;
                }
            }
        }
        FileView {
            lines,
            depth_at_start,
            in_test,
            markers,
            used: RefCell::new(BTreeSet::new()),
        }
    }

    /// Whether line `idx` (0-based) sits inside a test scope.
    pub fn is_test(&self, idx: usize) -> bool {
        self.in_test.get(idx).copied().unwrap_or(false)
    }

    /// Brace depth at the start of line `idx` (0-based).
    pub fn depth_at(&self, idx: usize) -> usize {
        self.depth_at_start.get(idx).copied().unwrap_or(0)
    }

    fn marker_on(&self, idx: usize, rule: &str) -> Option<usize> {
        self.markers
            .iter()
            .position(|(line, r)| *line == idx && r == rule)
    }

    /// True when line `idx` carries a `lint:allow(rule)` suppression — on
    /// the line itself, the line directly above, or anywhere in the
    /// contiguous comment block directly above (multi-line
    /// justifications are encouraged). Callers must only ask once a real
    /// violation exists on `idx`: a `true` answer marks the matching
    /// marker as *used*, which is what keeps it off the dead-suppression
    /// audit.
    pub fn suppressed(&self, idx: usize, rule: &str) -> bool {
        if let Some(m) = self.marker_on(idx, rule) {
            self.used.borrow_mut().insert(m);
            return true;
        }
        for i in (0..idx).rev() {
            let line = &self.lines[i];
            if let Some(m) = self.marker_on(i, rule) {
                self.used.borrow_mut().insert(m);
                return true;
            }
            // A code or blank line ends the comment block (the code line
            // itself was still checked, so trailing comments count).
            if !line.code.trim().is_empty() || line.comment.is_empty() {
                return false;
            }
        }
        false
    }
}

/// `unused-allow`: after every other rule has run over the file, any
/// `lint:allow(rule)` marker that suppressed nothing is itself a finding
/// — the allowlist can only shrink. Markers naming unknown rules are
/// ignored (prose like "lint:allow(rule-name)" in docs is not an allow).
pub fn check_unused_allow(view: &FileView, file: &str, out: &mut Vec<Finding>) {
    let used = view.used.borrow();
    for (m, (idx, rule)) in view.markers.iter().enumerate() {
        if !crate::SUPPRESSIBLE_RULES.contains(&rule.as_str()) {
            continue;
        }
        if !used.contains(&m) {
            out.push(Finding::new(
                "unused-allow",
                file,
                idx + 1,
                format!(
                    "`lint:allow({rule})` suppresses nothing; remove the stale \
                     marker (the allowlist can only shrink)"
                ),
            ));
        }
    }
}

/// `unwrap`: no `.unwrap()`, `.expect(`, or `panic!` in non-test library
/// code. Test scopes, `tests/` integration files, and bench bins
/// (`src/bin/`) are exempt — see [`crate::unwrap_rule_applies`].
pub fn check_unwrap(view: &FileView, file: &str, out: &mut Vec<Finding>) {
    const RULE: &str = "unwrap";
    const NEEDLES: [&str; 3] = [".unwrap()", ".expect(", "panic!"];
    for (idx, line) in view.lines.iter().enumerate() {
        if view.is_test(idx) {
            continue;
        }
        for needle in NEEDLES {
            if line.code.contains(needle) {
                if view.suppressed(idx, RULE) {
                    break;
                }
                out.push(Finding::new(
                    RULE,
                    file,
                    idx + 1,
                    format!(
                        "`{needle}` in non-test code; propagate an error or add \
                         `// lint:allow(unwrap)` with justification"
                    ),
                ));
                break;
            }
        }
    }
}

/// `wall-clock`: deterministic simulation / fault-injection code must not
/// read the wall clock. Which files the rule covers is decided by
/// [`crate::wall_clock_rule_applies`].
pub fn check_wall_clock(view: &FileView, file: &str, out: &mut Vec<Finding>) {
    const RULE: &str = "wall-clock";
    const NEEDLES: [&str; 2] = ["SystemTime::now", "Instant::now"];
    for (idx, line) in view.lines.iter().enumerate() {
        if view.is_test(idx) {
            continue;
        }
        for needle in NEEDLES {
            if line.code.contains(needle) {
                if view.suppressed(idx, RULE) {
                    break;
                }
                out.push(Finding::new(
                    RULE,
                    file,
                    idx + 1,
                    format!(
                        "`{needle}` in deterministic sim/fault code; use the \
                         simulated clock"
                    ),
                ));
                break;
            }
        }
    }
}

/// `ordering`: every atomic `Ordering::*` use needs a `// ordering:`
/// justification — on the same line, on the line directly above, or via a
/// standalone `// ordering:` comment earlier in the same block (which
/// covers the remainder of that block).
pub fn check_ordering(view: &FileView, file: &str, out: &mut Vec<Finding>) {
    const RULE: &str = "ordering";
    const MARKER: &str = "ordering:";
    // Depths at which a standalone justification comment is in force.
    let mut active: Vec<usize> = Vec::new();
    for (idx, line) in view.lines.iter().enumerate() {
        let depth = view.depth_at_start[idx];
        active.retain(|&d| depth >= d);
        let standalone = line.code.trim().is_empty() && line.comment.contains(MARKER);
        if standalone {
            active.push(depth);
            continue;
        }
        if view.is_test(idx) {
            continue;
        }
        let uses_atomic = ATOMIC_ORDERINGS.iter().any(|o| line.code.contains(o));
        if !uses_atomic {
            continue;
        }
        let same_line = line.comment.contains(MARKER);
        let line_above = idx > 0 && view.lines[idx - 1].comment.contains(MARKER);
        let block = !active.is_empty();
        if !(same_line || line_above || block || view.suppressed(idx, RULE)) {
            out.push(Finding::new(
                RULE,
                file,
                idx + 1,
                "atomic `Ordering::*` use without an `// ordering:` \
                 justification comment"
                    .to_string(),
            ));
        }
    }
}

/// `error-exhaustive`: a `match` whose arms name `ErrorKind::` variants
/// must not also have a `_ =>` catch-all — new kinds must be triaged at
/// every consumer, not silently lumped in.
pub fn check_error_exhaustive(view: &FileView, file: &str, out: &mut Vec<Finding>) {
    const RULE: &str = "error-exhaustive";
    struct Ctx {
        is_match: bool,
        has_kind: bool,
        wildcard: Option<usize>,
    }
    let mut stack: Vec<Ctx> = Vec::new();
    // True between a `match` token and the `{` that opens its arm block
    // (the scrutinee may span lines).
    let mut pending_match = false;
    for (idx, line) in view.lines.iter().enumerate() {
        if view.is_test(idx) {
            continue;
        }
        let code = &line.code;
        if code.contains("ErrorKind::") {
            if let Some(ctx) = stack.iter_mut().rev().find(|c| c.is_match) {
                ctx.has_kind = true;
            }
        }
        if code.trim_start().starts_with("_ =>") && !view.suppressed(idx, RULE) {
            if let Some(ctx) = stack.last_mut() {
                if ctx.is_match && ctx.wildcard.is_none() {
                    ctx.wildcard = Some(idx + 1);
                }
            }
        }
        // Track braces and the `match` keyword: the next `{` after a
        // `match` token opens its arm block (struct literals are illegal
        // in a bare match scrutinee, so this pairing is sound).
        let mut token = String::new();
        for c in code.chars() {
            if c.is_alphanumeric() || c == '_' {
                token.push(c);
                continue;
            }
            if token == "match" {
                pending_match = true;
            }
            token.clear();
            match c {
                '{' => {
                    stack.push(Ctx {
                        is_match: std::mem::take(&mut pending_match),
                        has_kind: false,
                        wildcard: None,
                    });
                }
                '}' => {
                    if let Some(ctx) = stack.pop() {
                        if ctx.is_match && ctx.has_kind {
                            if let Some(wl) = ctx.wildcard {
                                out.push(Finding::new(
                                    RULE,
                                    file,
                                    wl,
                                    "`_ =>` catch-all in a match over \
                                     `ErrorKind`; list every kind explicitly"
                                        .to_string(),
                                ));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        if token == "match" {
            pending_match = true;
        }
    }
}

/// `region-map`: every `RegionMap` mutation — taking the `regions` write
/// lock or calling a mutator (`split_at`, `rebalance`, `swap_replica`,
/// `shed_replica`) — must live in `gateway::topology`, the one module
/// whose job is online reconfiguration. Anywhere else a mutation bypasses
/// the epoch-fence protocol and can strand in-flight writes on a stale
/// route. Which files the rule covers is decided by
/// [`crate::region_map_rule_applies`].
pub fn check_region_map(view: &FileView, file: &str, out: &mut Vec<Finding>) {
    const RULE: &str = "region-map";
    const NEEDLES: [&str; 5] = [
        "regions.write()",
        ".split_at(",
        ".rebalance(",
        ".swap_replica(",
        ".shed_replica(",
    ];
    for (idx, line) in view.lines.iter().enumerate() {
        if view.is_test(idx) {
            continue;
        }
        for needle in NEEDLES {
            if line.code.contains(needle) {
                if view.suppressed(idx, RULE) {
                    break;
                }
                out.push(Finding::new(
                    RULE,
                    file,
                    idx + 1,
                    format!(
                        "`{needle}` outside `gateway::topology`; RegionMap \
                         mutations must go through the topology module so the \
                         epoch fence sees them"
                    ),
                ));
                break;
            }
        }
    }
}

/// `wire-bounded`: raw, potentially unbounded reads — `.read_exact(`,
/// `.read_to_end(`, `.read_to_string(` — and disabling the socket read
/// timeout (`set_read_timeout(None)`) are confined to `wire::frame`,
/// the one sanctioned raw-read site (it validates the length prefix
/// against `MAX_FRAME_LEN` before allocating and rejects a zero
/// timeout). Anywhere else, a hostile or silent peer can wedge the
/// reader or balloon memory; go through `FrameConn` instead. Which
/// files the rule covers is decided by
/// [`crate::wire_bounded_rule_applies`].
pub fn check_wire_bounded(view: &FileView, file: &str, out: &mut Vec<Finding>) {
    const RULE: &str = "wire-bounded";
    const NEEDLES: [&str; 4] = [
        ".read_exact(",
        ".read_to_end(",
        ".read_to_string(",
        "set_read_timeout(None)",
    ];
    for (idx, line) in view.lines.iter().enumerate() {
        if view.is_test(idx) {
            continue;
        }
        for needle in NEEDLES {
            if line.code.contains(needle) {
                if view.suppressed(idx, RULE) {
                    break;
                }
                out.push(Finding::new(
                    RULE,
                    file,
                    idx + 1,
                    format!(
                        "`{needle}` outside `wire::frame`; unbounded reads must \
                         go through the length-validated, timeout-mandatory \
                         `FrameConn`"
                    ),
                ));
                break;
            }
        }
    }
}

/// `unsafe-confined`: the `unsafe` keyword appears only in the one file
/// allowed it (`allowed`; see [`crate::unsafe_allowed_in`]), and there
/// every `unsafe` carries a `// SAFETY:` comment — on its own line or in
/// the contiguous comment block directly above — naming what makes it
/// sound. Test scopes are not exempt: undefined behaviour in a test is
/// still undefined. `unsafe_code` in a lint attribute, strings and
/// comments are not the keyword.
pub fn check_unsafe_confined(view: &FileView, file: &str, allowed: bool, out: &mut Vec<Finding>) {
    const RULE: &str = "unsafe-confined";
    for (idx, line) in view.lines.iter().enumerate() {
        if !has_word(&line.code, "unsafe") {
            continue;
        }
        if allowed && safety_comment_at(view, idx) {
            continue;
        }
        if view.suppressed(idx, RULE) {
            continue;
        }
        let message = if allowed {
            "`unsafe` without a `// SAFETY:` comment directly above it \
             naming the invariant it relies on"
        } else {
            "`unsafe` outside `iotkv::checksum`, the one module allowed it; \
             find a safe formulation"
        };
        out.push(Finding::new(RULE, file, idx + 1, message.to_string()));
    }
}

/// Whether `word` occurs in `code` as a whole identifier.
fn has_word(code: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(word).any(|(at, _)| {
        !code[..at].ends_with(is_ident) && !code[at + word.len()..].starts_with(is_ident)
    })
}

/// Whether line `idx` or the contiguous comment block directly above it
/// carries a `SAFETY:` comment.
fn safety_comment_at(view: &FileView, idx: usize) -> bool {
    const MARKER: &str = "SAFETY:";
    if view.lines[idx].comment.contains(MARKER) {
        return true;
    }
    view.lines[..idx]
        .iter()
        .rev()
        .take_while(|l| l.code.trim().is_empty() && !l.comment.is_empty())
        .any(|l| l.comment.contains(MARKER))
}

/// `metrics-sync`: the `OpClass::name()` strings in
/// `crates/core/src/telemetry.rs` and the `op="…"` labels in the golden
/// Prometheus snapshot must be the same set.
pub fn check_metrics_sync(
    telemetry: &[LexedLine],
    telemetry_file: &str,
    prom: &str,
    prom_file: &str,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "metrics-sync";
    // Code side: match arms of the form `OpClass::X => "name"`.
    let mut code_names: Vec<(String, usize)> = Vec::new();
    for (idx, line) in telemetry.iter().enumerate() {
        let trimmed = line.code.trim_start();
        if trimmed.starts_with("OpClass::") && trimmed.contains("=>") {
            if let Some(name) = line.strings.first() {
                code_names.push((name.clone(), idx + 1));
            }
        }
    }
    // Golden side: `op="name"` labels on the latency family, which is
    // keyed by `OpClass::name()` directly. Other families (e.g. the
    // per-window series) carry their own label vocabulary.
    let mut prom_names: Vec<(String, usize)> = Vec::new();
    for (idx, raw) in prom.lines().enumerate() {
        if !raw.starts_with("tpcx_iot_latency_nanos") {
            continue;
        }
        let mut rest = raw;
        while let Some(at) = rest.find("op=\"") {
            let tail = &rest[at + 4..];
            if let Some(end) = tail.find('"') {
                let name = &tail[..end];
                if !prom_names.iter().any(|(n, _)| n == name) {
                    prom_names.push((name.to_string(), idx + 1));
                }
                rest = &tail[end + 1..];
            } else {
                break;
            }
        }
    }
    for (name, line) in &code_names {
        if !prom_names.iter().any(|(n, _)| n == name) {
            out.push(Finding::new(
                RULE,
                telemetry_file,
                *line,
                format!(
                    "op class `{name}` has no `op=\"{name}\"` series in the \
                     golden snapshot; regenerate {prom_file}"
                ),
            ));
        }
    }
    for (name, line) in &prom_names {
        if !code_names.iter().any(|(n, _)| n == name) {
            out.push(Finding::new(
                RULE,
                prom_file,
                *line,
                format!(
                    "golden snapshot series `op=\"{name}\"` has no matching \
                     `OpClass` in {telemetry_file}"
                ),
            ));
        }
    }
}

/// `wire-exhaustive`: the wire protocol's `Message` enum
/// (`crates/wire/src/msg.rs`) must stay closed under its own codecs.
/// `decode` is a runtime `match` over a `u8` tag — the compiler cannot
/// prove it covers every variant the way it proves `tag()` /
/// `encode_payload()` exhaustive — so this rule cross-checks, per
/// variant: a `tag()` arm, a `decode` arm for that tag value, and a
/// round-trip reference from the file's test module. Duplicate tag
/// values and decode arms for unknown tags are also findings.
pub fn check_wire_exhaustive(view: &FileView, file: &str, out: &mut Vec<Finding>) {
    const RULE: &str = "wire-exhaustive";
    let mut push = |view: &FileView, idx: usize, message: String| {
        if !view.suppressed(idx, RULE) {
            out.push(Finding::new(RULE, file, idx + 1, message));
        }
    };

    // The enum body: every variant name, with the line it is declared on.
    let mut variants: Vec<(String, usize)> = Vec::new();
    if let Some(open) = view
        .lines
        .iter()
        .position(|l| l.code.contains("enum Message"))
    {
        let floor = view.depth_at(open);
        for (idx, line) in view.lines.iter().enumerate().skip(open + 1) {
            // The enum's closing `}` line sits at depth floor+1; the first
            // line back at the floor is past the body.
            if view.depth_at(idx) <= floor {
                break;
            }
            if view.depth_at(idx) != floor + 1 {
                continue;
            }
            let trimmed = line.code.trim_start();
            let name: String = trimmed
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() && name.chars().next().is_some_and(|c| c.is_uppercase()) {
                variants.push((name, idx));
            }
        }
    }
    if variants.is_empty() {
        return;
    }

    // `fn tag()` arms: variant -> tag value. `fn decode(` arms: the tag
    // literals handled. `encode_payload` arms and test-scope references:
    // the variant names mentioned.
    let mut tag_of: Vec<(String, u64, usize)> = Vec::new();
    let mut decode_tags: Vec<(u64, usize)> = Vec::new();
    let mut encoded: BTreeSet<String> = BTreeSet::new();
    let mut tested: BTreeSet<String> = BTreeSet::new();
    let mut decode_line = None;
    // (which fn, line it opened on, depth floor)
    let mut region: Option<(&str, usize, usize)> = None;
    for (idx, line) in view.lines.iter().enumerate() {
        let code = &line.code;
        if let Some((_, opened, floor)) = region {
            if idx > opened && view.depth_at(idx) <= floor {
                region = None;
            }
        }
        if region.is_none() {
            for (name, marker) in [
                ("tag", "fn tag("),
                ("decode", "fn decode("),
                ("encode", "fn encode_payload("),
            ] {
                if code.contains(marker) {
                    region = Some((name, idx, view.depth_at(idx)));
                    if name == "decode" {
                        decode_line = Some(idx);
                    }
                }
            }
        }
        let Some((fn_name, _, _)) = region else {
            continue;
        };
        match fn_name {
            "tag" => {
                if let (Some(v), Some(t)) = (message_variant_in(code), hex_after_arrow(code)) {
                    tag_of.push((v, t, idx));
                }
            }
            "decode" => {
                let trimmed = code.trim_start();
                if trimmed.starts_with("0x") && code.contains("=>") {
                    if let Some(t) = parse_hex(trimmed) {
                        decode_tags.push((t, idx));
                    }
                }
            }
            "encode" => {
                encoded.extend(message_variants_in(code));
            }
            _ => {}
        }
    }
    for (idx, line) in view.lines.iter().enumerate() {
        if view.is_test(idx) {
            tested.extend(message_variants_in(&line.code));
        }
    }

    for (variant, idx) in &variants {
        let Some((_, tag, _)) = tag_of.iter().find(|(v, _, _)| v == variant) else {
            // `tag()` is a compiler-checked match; a missing arm means the
            // extraction failed, which is worth a loud finding too.
            push(
                view,
                *idx,
                format!("variant `{variant}` has no `tag()` arm"),
            );
            continue;
        };
        if !encoded.contains(variant) {
            push(
                view,
                *idx,
                format!("variant `{variant}` has no `encode_payload()` arm"),
            );
        }
        if !decode_tags.iter().any(|(t, _)| t == tag) {
            push(
                view,
                decode_line.unwrap_or(*idx),
                format!(
                    "variant `{variant}` (tag {tag:#04x}) has no `decode` arm; \
                     a peer sending it gets an unknown-tag error"
                ),
            );
        }
        if !tested.contains(variant) {
            push(
                view,
                *idx,
                format!("variant `{variant}` has no round-trip test reference"),
            );
        }
    }
    for (i, (variant, tag, idx)) in tag_of.iter().enumerate() {
        if let Some((other, _, _)) = tag_of[..i].iter().find(|(_, t, _)| t == tag) {
            push(
                view,
                *idx,
                format!("tag {tag:#04x} assigned to both `{other}` and `{variant}`"),
            );
        }
    }
    for (tag, idx) in &decode_tags {
        if !tag_of.iter().any(|(_, t, _)| t == tag) {
            push(
                view,
                *idx,
                format!("`decode` arm for tag {tag:#04x} matches no `tag()` arm"),
            );
        }
    }
}

/// `Message::Ident` in `code`, if any.
fn message_variant_in(code: &str) -> Option<String> {
    message_variants_in(code).into_iter().next()
}

/// Every `Message::X` variant named in `code` — grouped match arms like
/// `Message::Ping | Message::Pong => {}` mention several per line.
fn message_variants_in(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find("Message::") {
        rest = &rest[at + "Message::".len()..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            out.push(name);
        }
    }
    out
}

/// The `0x…` literal after `=>` in `code`, if any.
fn hex_after_arrow(code: &str) -> Option<u64> {
    let at = code.find("=>")?;
    let tail = code[at + 2..].trim_start();
    parse_hex(tail)
}

fn parse_hex(s: &str) -> Option<u64> {
    let digits: String = s
        .strip_prefix("0x")?
        .chars()
        .take_while(|c| c.is_ascii_hexdigit())
        .collect();
    u64::from_str_radix(&digits, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings_for(src: &str, rule: fn(&FileView, &str, &mut Vec<Finding>)) -> Vec<Finding> {
        let lines = lex(src);
        let view = FileView::new(&lines);
        let mut out = Vec::new();
        rule(&view, "mem.rs", &mut out);
        out
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn a() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn b() { y.unwrap(); }\n\
                   }\n";
        let out = findings_for(src, check_unwrap);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn unwrap_suppressed_by_allow() {
        let src = "// lint:allow(unwrap) infallible by construction\n\
                   fn a() { x.unwrap(); }\n\
                   fn b() { y.expect(\"msg\"); } // lint:allow(unwrap) also ok\n";
        assert!(findings_for(src, check_unwrap).is_empty());
    }

    #[test]
    fn unwrap_ignores_strings_and_comments() {
        let src = "fn a() { log(\".unwrap() in a string\"); } // .expect( in comment\n";
        assert!(findings_for(src, check_unwrap).is_empty());
    }

    #[test]
    fn ordering_requires_justification() {
        let src = "fn a() { c.load(Ordering::Relaxed); }\n";
        let out = findings_for(src, check_ordering);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn ordering_same_line_and_above_and_block() {
        let src = "fn a() {\n\
                       c.load(Ordering::Relaxed); // ordering: stats counter\n\
                       let _g = prep(); // ordering: Acquire pairs with Release\n\
                       c.load(Ordering::Acquire);\n\
                       {\n\
                           // ordering: all Relaxed below are stat reads\n\
                           a.load(Ordering::Relaxed);\n\
                           b.load(Ordering::Relaxed);\n\
                       }\n\
                       d.load(Ordering::SeqCst);\n\
                   }\n";
        let out = findings_for(src, check_ordering);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(
            out[0].line, 10,
            "block coverage from the nested comment must expire at its brace"
        );
    }

    #[test]
    fn ordering_ignores_cmp_ordering() {
        let src = "fn cmp(a: &K, b: &K) -> Ordering { Ordering::Equal }\n";
        assert!(findings_for(src, check_ordering).is_empty());
    }

    #[test]
    fn error_exhaustive_flags_wildcard() {
        let src = "fn f(e: E) {\n\
                       match e.kind {\n\
                           ErrorKind::Transient => retry(),\n\
                           _ => give_up(),\n\
                       }\n\
                   }\n";
        let out = findings_for(src, check_error_exhaustive);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn error_exhaustive_ignores_other_matches() {
        let src = "fn f(x: u8) {\n\
                       match x {\n\
                           0 => a(),\n\
                           _ => b(),\n\
                       }\n\
                       match k {\n\
                           ErrorKind::Transient => a(),\n\
                           ErrorKind::Permanent => b(),\n\
                       }\n\
                   }\n";
        assert!(findings_for(src, check_error_exhaustive).is_empty());
    }

    #[test]
    fn region_map_flags_mutations_outside_tests() {
        let src = "fn route(&self) {\n\
                       let mut map = self.regions.write();\n\
                       map.swap_replica(0, 1, 2);\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { map.split_at(b\"m\"); }\n\
                   }\n";
        let out = findings_for(src, check_region_map);
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(out[0].line, 2);
        assert_eq!(out[1].line, 3);
    }

    #[test]
    fn region_map_suppressed_by_allow() {
        let src = "fn parse(d: &[u8]) {\n\
                       // lint:allow(region-map) slice::split_at, not RegionMap\n\
                       let (a, b) = d.split_at(4);\n\
                   }\n";
        assert!(findings_for(src, check_region_map).is_empty());
    }

    #[test]
    fn region_map_ignores_reads() {
        let src = "fn stats(&self) { let map = self.regions.read(); map.regions(); }\n";
        assert!(findings_for(src, check_region_map).is_empty());
    }

    #[test]
    fn wire_bounded_flags_raw_reads_and_disabled_timeouts() {
        let src = "fn recv(s: &mut TcpStream, buf: &mut [u8]) {\n\
                       s.read_exact(buf)?;\n\
                       s.set_read_timeout(None)?;\n\
                       let mut v = Vec::new();\n\
                       s.read_to_end(&mut v)?;\n\
                   }\n";
        let out = findings_for(src, check_wire_bounded);
        assert_eq!(out.len(), 3, "{out:?}");
        assert_eq!(out[0].line, 2);
        assert_eq!(out[1].line, 3);
        assert_eq!(out[2].line, 5);
    }

    #[test]
    fn wire_bounded_suppressed_and_test_scoped() {
        let src = "fn recv(s: &mut TcpStream, buf: &mut [u8]) {\n\
                       // lint:allow(wire-bounded) length validated above\n\
                       s.read_exact(buf)?;\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(s: &mut TcpStream) { s.read_to_end(&mut vec![]).ok(); }\n\
                   }\n";
        assert!(findings_for(src, check_wire_bounded).is_empty());
    }

    #[test]
    fn wire_bounded_ignores_bounded_timeouts() {
        let src = "fn dial(s: &mut TcpStream, t: Duration) {\n\
                       s.set_read_timeout(Some(t)).ok();\n\
                   }\n";
        assert!(findings_for(src, check_wire_bounded).is_empty());
    }

    fn unsafe_findings(src: &str, allowed: bool) -> Vec<Finding> {
        let lines = lex(src);
        let view = FileView::new(&lines);
        let mut out = Vec::new();
        check_unsafe_confined(&view, "mem.rs", allowed, &mut out);
        out
    }

    #[test]
    fn unsafe_confined_flags_every_use_outside_the_allowed_file() {
        let src = "// SAFETY: not enough outside the allowed file\n\
                   fn a(p: *const u8) -> u8 { unsafe { *p } }\n\
                   unsafe fn b() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(p: *const u8) -> u8 { unsafe { *p } }\n\
                   }\n";
        let out = unsafe_findings(src, false);
        let lines: Vec<usize> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 6], "{out:?}");
    }

    #[test]
    fn unsafe_confined_needs_safety_comment_in_allowed_file() {
        let src = "fn a(p: *const u8) -> u8 {\n\
                       // SAFETY: p points at a live byte, and the block\n\
                       // comment may span lines.\n\
                       unsafe { *p }\n\
                   }\n\
                   fn b(p: *const u8) -> u8 { unsafe { *p } } // SAFETY: same line\n\
                   fn c(p: *const u8) -> u8 {\n\
                       // SAFETY: a blank line ends the block\n\
                   \n\
                       unsafe { *p }\n\
                   }\n";
        let out = unsafe_findings(src, true);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 10);
    }

    #[test]
    fn unsafe_confined_ignores_non_keywords() {
        let src = "#![forbid(unsafe_code)]\n\
                   fn check_unsafe_confined() { log(\"unsafe { }\"); } // unsafe\n";
        assert!(unsafe_findings(src, false).is_empty());
    }

    #[test]
    fn metrics_sync_two_way_diff() {
        let telem = lex("fn name(self) -> &'static str {\n\
                             match self {\n\
                                 OpClass::Ingest => \"ingest\",\n\
                                 OpClass::Query => \"query\",\n\
                             }\n\
                         }\n");
        let prom = "tpcx_iot_latency_nanos{op=\"ingest\"} 1\n\
                    tpcx_iot_latency_nanos{op=\"scan\"} 2\n\
                    tpcx_iot_window_ops{op=\"scan_rows\"} 3\n";
        let mut out = Vec::new();
        check_metrics_sync(&telem, "telemetry.rs", prom, "golden.prom", &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.file == "telemetry.rs" && f.line == 4));
        assert!(out.iter().any(|f| f.file == "golden.prom" && f.line == 2));
    }
}
