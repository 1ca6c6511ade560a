//! The symbol index: function definitions, call sites, lock-guard
//! liveness, panic seeds, and blocking operations, extracted from the
//! lexed source of every workspace file.
//!
//! This is deliberately name-based, not type-based — the analyzer stays
//! dependency-free, so there is no type inference. The approximations
//! and their consequences are documented in `DESIGN.md` §14; the load
//! bearing ones:
//!
//! * **Function identity** is `Type::name` (from the enclosing `impl`
//!   header) or a bare `name` for free functions.
//! * **Call resolution** is intra-crate and name-based: `.put(` inside
//!   `gateway` resolves to every `gateway` function named `put`.
//!   Ubiquitous std-colliding names (`get`, `push`, `len`, …) are
//!   blacklisted from resolution, and a receiver named `db` marks a
//!   crate boundary (the storage engine handle), so `node.db.put(…)`
//!   does not resolve to `Cluster::put`.
//! * **Lock identity** is `<crate>/<field>`: the identifier before
//!   `.lock()` / `.read()` / `.write()` (empty parens only, so
//!   `io::Read::read(buf)` never matches).
//! * **Guard liveness**: `let g = x.lock();` lives to the end of its
//!   enclosing block or an explicit `drop(g)`; a chained temporary
//!   (`x.lock().pop()`) lives for its own line; a `match x.lock() {`
//!   scrutinee lives for the match block. `if let` scrutinee lifetimes
//!   are *not* modelled (treated as line-temporaries).

use crate::lexer::LexedLine;
use crate::rules::FileView;
use std::collections::BTreeMap;

/// Method/function names never resolved through the call graph: they
/// collide with std collection/iterator/smart-pointer vocabulary so
/// often that name-based resolution would wire unrelated code together
/// (e.g. `map.get(…)` is not `Cluster::get`). Blocking and panic
/// behaviour behind these names must be caught by direct needles or at
/// the callee's own body.
const RESOLVE_BLACKLIST: [&str; 58] = [
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "push_back",
    "pop_front",
    "len",
    "is_empty",
    "clone",
    "new",
    "next",
    "iter",
    "iter_mut",
    "into_iter",
    "drain",
    "extend",
    "contains",
    "contains_key",
    "clear",
    "take",
    "join",
    "lock",
    "read",
    "write",
    "default",
    "from",
    "into",
    "to_vec",
    "to_string",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map",
    "and_then",
    "ok",
    "err",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "as_ref",
    "as_mut",
    "borrow",
    "min",
    "max",
    "entry",
    "keys",
    "values",
    "with_capacity",
    "collect",
    "send",
    "recv",
    "name",
    "kind",
    "flush",
];

/// Keywords that look like `ident(` but are not calls.
const CALL_KEYWORDS: [&str; 9] = [
    "if", "while", "match", "for", "return", "fn", "loop", "in", "let",
];

/// One lock acquisition, with the line span its guard is live for.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// `<crate>/<field>` identity, e.g. `gateway/regions`.
    pub lock: String,
    /// 1-based acquisition line.
    pub line: usize,
    /// 0-based line index span (inclusive) the guard is live for.
    pub start_idx: usize,
    pub end_idx: usize,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (the identifier before `(`).
    pub callee: String,
    /// `Type::` qualifier when written as an associated call, if any.
    pub qualifier: Option<String>,
    /// 1-based line.
    pub line: usize,
    /// 0-based line index.
    pub idx: usize,
}

/// A direct operation that can stall the calling thread.
#[derive(Debug, Clone)]
pub struct BlockSite {
    pub what: &'static str,
    pub line: usize,
    pub idx: usize,
}

/// A site that can panic (macro or `.unwrap()`-family call).
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub what: &'static str,
    pub line: usize,
    pub idx: usize,
}

/// One function definition and everything the graph rules need from its
/// body.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare name, e.g. `put_batch`.
    pub name: String,
    /// `Type::name` when defined in an `impl` block, else the bare name.
    pub qual: String,
    /// Crate the file belongs to (`gateway`, `core`, …; `tests` for the
    /// top-level integration tree).
    pub krate: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the definition sits in test scope (or a `tests/` file).
    pub is_test: bool,
    pub calls: Vec<CallSite>,
    pub locks: Vec<LockSite>,
    pub blocks: Vec<BlockSite>,
    pub panics: Vec<PanicSite>,
}

/// The workspace-wide index.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    pub fns: Vec<FnInfo>,
    /// `(crate, name)` -> indices into `fns`.
    by_name: BTreeMap<(String, String), Vec<usize>>,
    /// `(crate, Type::name)` -> indices into `fns`.
    by_qual: BTreeMap<(String, String), Vec<usize>>,
}

impl SymbolIndex {
    /// Builds the index over `files` (workspace-relative name, lexed
    /// lines) and their parallel per-line `views`.
    pub fn build(files: &[(String, Vec<LexedLine>)], views: &[FileView]) -> SymbolIndex {
        let mut index = SymbolIndex::default();
        for ((rel, lines), view) in files.iter().zip(views) {
            extract_file(rel, lines, view, &mut index.fns);
        }
        // Deterministic function order regardless of walk order.
        index
            .fns
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        for (i, f) in index.fns.iter().enumerate() {
            index
                .by_name
                .entry((f.krate.clone(), f.name.clone()))
                .or_default()
                .push(i);
            index
                .by_qual
                .entry((f.krate.clone(), f.qual.clone()))
                .or_default()
                .push(i);
        }
        index
    }

    /// Resolves a call site from `caller` to candidate callee indices:
    /// intra-crate, by qualified name when the call is written
    /// `Type::name(…)`, by bare name otherwise. Blacklisted names and
    /// calls through a `db` receiver resolve to nothing.
    pub fn resolve(&self, caller: &FnInfo, call: &CallSite) -> &[usize] {
        if RESOLVE_BLACKLIST.contains(&call.callee.as_str()) {
            return &[];
        }
        if let Some(q) = &call.qualifier {
            let key = (caller.krate.clone(), format!("{q}::{}", call.callee));
            if let Some(v) = self.by_qual.get(&key) {
                return v;
            }
            // A qualifier naming no local type is a cross-crate or std
            // call; do not fall back to bare-name matching.
            return &[];
        }
        self.by_name
            .get(&(caller.krate.clone(), call.callee.clone()))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Function indices whose bare name or qualified name equals `name`
    /// (used to pin down the entry points).
    pub fn find(&self, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.qual == name || (!name.contains("::") && f.name == name))
            .map(|(i, _)| i)
            .collect()
    }
}

/// The crate a workspace-relative path belongs to.
pub fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(end) = rest.find('/') {
            return rest[..end].to_string();
        }
    }
    "tests".to_string()
}

fn extract_file(rel: &str, lines: &[LexedLine], view: &FileView, out: &mut Vec<FnInfo>) {
    let krate = crate_of(rel);
    let file_is_test = rel.starts_with("tests/") || rel.contains("/src/bin/");

    // Pass 1: impl headers, so functions get their `Type::name` quals.
    // Headers fit on one line throughout the workspace (rustfmt wraps the
    // where-clause, not the `impl Type` part).
    let mut impl_heads: Vec<(usize, String)> = Vec::new(); // (line idx, type)
    for (idx, line) in lines.iter().enumerate() {
        if let Some(ty) = impl_type(&line.code) {
            impl_heads.push((idx, ty));
        }
    }

    // Pass 2: walk the file char by char tracking braces, function
    // definitions, and the stack of open scopes.
    struct OpenFn {
        info: FnInfo,
        floor: usize, // depth the body's `{` was opened at
    }
    let mut depth = 0usize;
    let mut fn_stack: Vec<OpenFn> = Vec::new();
    let mut impl_stack: Vec<(usize, String)> = Vec::new(); // (floor, type)
                                                           // A `fn` keyword was seen; waiting for the name.
    let mut awaiting_name = false;
    // A signature in progress: (name, def line idx, depth at `fn`).
    let mut pending: Option<(String, usize, usize)> = None;
    // An `impl` header on this or an earlier line, waiting for its `{`.
    let mut pending_impl: Option<String> = None;

    for (idx, line) in lines.iter().enumerate() {
        if let Some((_, ty)) = impl_heads.iter().find(|(i, _)| *i == idx) {
            pending_impl = Some(ty.clone());
        }
        let mut token = String::new();
        for c in line.code.chars() {
            if c.is_alphanumeric() || c == '_' {
                token.push(c);
                continue;
            }
            if !token.is_empty() {
                if awaiting_name {
                    pending = Some((token.clone(), idx, depth));
                    awaiting_name = false;
                } else if token == "fn" {
                    awaiting_name = true;
                }
                token.clear();
            }
            match c {
                '{' => {
                    if let Some((name, def_idx, _)) = pending.take() {
                        let ty = impl_stack.last().map(|(_, t)| t.clone());
                        let qual = match &ty {
                            Some(t) => format!("{t}::{name}"),
                            None => name.clone(),
                        };
                        fn_stack.push(OpenFn {
                            info: FnInfo {
                                name,
                                qual,
                                krate: krate.clone(),
                                file: rel.to_string(),
                                line: def_idx + 1,
                                is_test: file_is_test || view.is_test(def_idx),
                                calls: Vec::new(),
                                locks: Vec::new(),
                                blocks: Vec::new(),
                                panics: Vec::new(),
                            },
                            floor: depth,
                        });
                    } else if let Some(ty) = pending_impl.take() {
                        impl_stack.push((depth, ty));
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if fn_stack.last().is_some_and(|f| f.floor == depth) {
                        if let Some(done) = fn_stack.pop() {
                            out.push(done.info);
                        }
                    }
                    if impl_stack.last().is_some_and(|(floor, _)| *floor == depth) {
                        impl_stack.pop();
                    }
                }
                ';' => {
                    // `fn name(…);` at signature depth: a trait method
                    // declaration with no body.
                    if let Some((_, _, d)) = &pending {
                        if depth == *d {
                            pending = None;
                        }
                    }
                }
                _ => {}
            }
        }
        if !token.is_empty() {
            if awaiting_name {
                pending = Some((token.clone(), idx, depth));
                awaiting_name = false;
            } else if token == "fn" {
                awaiting_name = true;
            }
        }

        // Attribute this line's body facts to the innermost open fn.
        // Test scopes carry no facts: no graph rule reasons about them.
        if let Some(open) = fn_stack.last_mut() {
            if !open.info.is_test && !view.is_test(idx) {
                collect_line_facts(idx, line, lines, view, &krate, &mut open.info);
            }
        }
    }
}

/// Extracts calls, lock sites, blocking needles, and panic seeds from one
/// line into `info`.
fn collect_line_facts(
    idx: usize,
    line: &LexedLine,
    lines: &[LexedLine],
    view: &FileView,
    krate: &str,
    info: &mut FnInfo,
) {
    let code = &line.code;

    // Lock acquisitions: `.lock()` / `.read()` / `.write()` with empty
    // parens, attributed to the receiver field before the dot.
    for needle in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(at) = code[from..].find(needle) {
            let at = from + at;
            from = at + needle.len();
            let Some(field) = ident_before(code, at) else {
                continue;
            };
            let lock = format!("{krate}/{field}");
            let after = code[at + needle.len()..].trim_start();
            let end_idx = if is_let_binding(code) && (after.starts_with(';') || after.is_empty()) {
                // A named guard: live until the enclosing block closes or
                // an explicit drop.
                guard_end(idx, lines, view, view.depth_at(idx), binding_name(code))
            } else if code.contains("match ") && code.trim_end().ends_with('{') {
                // Match scrutinee: the temporary lives for the match body,
                // whose interior sits one level deeper than this line.
                guard_end(idx, lines, view, view.depth_at(idx) + 1, None)
            } else {
                // Chained temporary: lives for this statement (one line).
                idx
            };
            info.locks.push(LockSite {
                lock,
                line: idx + 1,
                start_idx: idx,
                end_idx,
            });
        }
    }

    // Direct blocking operations.
    const BLOCK_NEEDLES: [(&str, &str); 18] = [
        ("thread::sleep(", "thread::sleep"),
        (".sync_all(", "fsync (sync_all)"),
        (".sync_data(", "fsync (sync_data)"),
        (".send(", "socket send (FrameConn)"),
        (".recv()", "socket recv (FrameConn)"),
        (".request(", "socket round-trip (FrameConn)"),
        (".client_handshake(", "socket handshake"),
        (".server_handshake(", "socket handshake"),
        ("FrameConn::connect(", "socket connect"),
        ("TcpStream::connect(", "socket connect"),
        (".accept()", "socket accept"),
        (".write_all(", "socket write"),
        (".read_exact(", "socket read"),
        (".db.put(", "storage write (WAL fsync)"),
        (".db.write(", "storage write (WAL fsync)"),
        // A submit waits for room in a full commit queue; `wait()` is the
        // replica ack the cluster's fan-out blocks on.
        (".db.submit(", "storage enqueue (full commit queue)"),
        (".wait()", "storage ack wait (PendingWrite)"),
        ("Db::open(", "storage open (manifest + WAL replay)"),
    ];
    for (needle, what) in BLOCK_NEEDLES {
        if code.contains(needle) {
            info.blocks.push(BlockSite {
                what,
                line: idx + 1,
                idx,
            });
        }
    }

    // Panic seeds. A `lint:allow` marker for `unwrap` vouches for a site
    // (the unwrap rule's own suppression), and one for
    // `panic-reachability` breaks propagation explicitly.
    const PANIC_NEEDLES: [&str; 9] = [
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
        "assert!",
        "assert_eq!",
        "assert_ne!",
    ];
    for needle in PANIC_NEEDLES {
        let Some(at) = code.find(needle) else {
            continue;
        };
        // `debug_assert!` family compiles out of release builds.
        if needle.starts_with("assert") && code[..at].ends_with("debug_") {
            continue;
        }
        if view.suppressed(idx, "unwrap") || view.suppressed(idx, "panic-reachability") {
            continue;
        }
        info.panics.push(PanicSite {
            what: needle,
            line: idx + 1,
            idx,
        });
    }

    // Call sites: `ident(` optionally preceded by `.` or `Type::`.
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if !(chars[i].is_alphabetic() || chars[i] == '_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        if i >= chars.len() || chars[i] != '(' {
            continue;
        }
        let name: String = chars[start..i].iter().collect();
        if CALL_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        // `fn name(` is the definition, not a call.
        let before: String = chars[..start].iter().collect();
        let trimmed = before.trim_end();
        if trimmed.ends_with("fn") {
            continue;
        }
        let mut qualifier = None;
        if let Some(stripped) = trimmed.strip_suffix("::") {
            let q = stripped.trim_end();
            let qname: String = q
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if qname.is_empty() || qname.chars().next().is_some_and(|c| c.is_lowercase()) {
                // `module::func(` or a path like `std::mem::take(` —
                // treat the segment as opaque, resolve by bare name only
                // if the module segment is not a known std path head.
                qualifier = None;
            } else {
                qualifier = Some(qname);
            }
        } else if let Some(stripped) = trimmed.strip_suffix('.') {
            // Receiver `…db.m(…)` is the storage-engine boundary: the
            // callee lives in `iotkv`, never in this crate.
            let recv = stripped.trim_end();
            if recv.ends_with("db") {
                continue;
            }
        }
        info.calls.push(CallSite {
            callee: name,
            qualifier,
            line: idx + 1,
            idx,
        });
    }
}

/// Parses the self type out of an `impl` header line: `impl Foo {`,
/// `impl<'a> Foo<'a> {`, `impl Trait for Foo {`, `impl fmt::Display for
/// Finding {` all yield the last path segment of the *self* type.
fn impl_type(code: &str) -> Option<String> {
    // Token-level match so `implements(…)` does not trigger.
    let mut at = None;
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find("impl") {
        let p = from + p;
        from = p + 4;
        let before_ok = p == 0 || !bytes[p - 1].is_ascii_alphanumeric() && bytes[p - 1] != b'_';
        let after = bytes.get(p + 4).copied();
        let after_ok = matches!(after, None | Some(b'<') | Some(b' '));
        if before_ok && after_ok {
            at = Some(p);
            break;
        }
    }
    let mut rest = &code[at? + 4..];
    // Skip generic parameters: `impl<'a, T: Bound> …`.
    rest = rest.trim_start();
    if let Some(stripped) = rest.strip_prefix('<') {
        let mut depth = 1usize;
        let mut i = 0;
        for (j, c) in stripped.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        i = j + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &stripped[i..];
    }
    // A ` for ` means the first path was the trait; the self type follows.
    let target = match rest.find(" for ") {
        Some(p) => &rest[p + 5..],
        None => rest,
    };
    // Last segment of the leading path: `wire::FrameConn<…>` -> FrameConn.
    let head: String = target
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
        .collect();
    let seg = head.rsplit("::").next().unwrap_or(&head);
    if seg.is_empty() || seg.chars().next().is_some_and(|c| c.is_lowercase()) {
        None
    } else {
        Some(seg.to_string())
    }
}

/// The identifier ending at byte offset `at` (exclusive) in `code`.
fn ident_before(code: &str, at: usize) -> Option<String> {
    let head = &code[..at];
    let ident: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// Whether the line is a `let` statement (the guard-binding shape).
fn is_let_binding(code: &str) -> bool {
    let t = code.trim_start();
    t.starts_with("let ") || t.starts_with("let(")
}

/// The bound name of `let [mut] name = …`, if simple.
fn binding_name(code: &str) -> Option<String> {
    let t = code.trim_start().strip_prefix("let ")?;
    let t = t.trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t);
    let name: String = t
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name == "_" {
        None
    } else {
        Some(name)
    }
}

/// The last line (0-based) a guard bound on line `idx` stays live:
/// until the scope at `floor` closes, or a `drop(name)` statement.
fn guard_end(
    idx: usize,
    lines: &[LexedLine],
    view: &FileView,
    floor: usize,
    name: Option<String>,
) -> usize {
    let mut end = idx;
    for (j, line) in lines.iter().enumerate().skip(idx + 1) {
        if view.depth_at(j) < floor {
            break;
        }
        end = j;
        if let Some(n) = &name {
            for pat in [format!("drop({n})"), format!("drop(&{n})")] {
                if line.code.contains(&pat) {
                    return j;
                }
            }
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index_of(rel: &str, src: &str) -> SymbolIndex {
        let files = vec![(rel.to_string(), lex(src))];
        let views: Vec<FileView> = files.iter().map(|(_, l)| FileView::new(l)).collect();
        SymbolIndex::build(&files, &views)
    }

    #[test]
    fn functions_get_impl_qualified_names() {
        let idx = index_of(
            "crates/gateway/src/x.rs",
            "impl Cluster {\n    pub fn put(&self) {}\n}\nfn free() {}\n",
        );
        let quals: Vec<&str> = idx.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["Cluster::put", "free"]);
        assert_eq!(idx.fns[0].krate, "gateway");
    }

    #[test]
    fn trait_impl_quals_use_the_self_type() {
        let idx = index_of(
            "crates/gateway/src/x.rs",
            "impl Drop for GatewayServer {\n    fn drop(&mut self) { self.stop(); }\n}\n",
        );
        assert_eq!(idx.fns[0].qual, "GatewayServer::drop");
    }

    #[test]
    fn let_guard_lives_to_block_close_and_temporary_to_its_line() {
        let idx = index_of(
            "crates/gateway/src/x.rs",
            "impl S {\n\
             fn a(&self) {\n\
                 let g = self.regions.read();\n\
                 body();\n\
             }\n\
             fn b(&self) {\n\
                 self.pool.lock().pop();\n\
             }\n\
             }\n",
        );
        let a = &idx.fns[0];
        assert_eq!(a.locks.len(), 1);
        assert_eq!(a.locks[0].lock, "gateway/regions");
        assert_eq!((a.locks[0].start_idx, a.locks[0].end_idx), (2, 4));
        let b = &idx.fns[1];
        assert_eq!((b.locks[0].start_idx, b.locks[0].end_idx), (6, 6));
    }

    #[test]
    fn drop_ends_the_guard_early() {
        let idx = index_of(
            "crates/gateway/src/x.rs",
            "fn a(c: &C) {\n\
                 let guard = c.cluster.read();\n\
                 use_it(&guard);\n\
                 drop(guard);\n\
                 after();\n\
             }\n",
        );
        let f = &idx.fns[0];
        assert_eq!((f.locks[0].start_idx, f.locks[0].end_idx), (1, 3));
    }

    #[test]
    fn calls_resolve_intra_crate_and_honour_blacklist() {
        let idx = index_of(
            "crates/gateway/src/x.rs",
            "fn helper() {}\n\
             fn get() {}\n\
             fn top(m: &M) {\n\
                 helper();\n\
                 m.get(1);\n\
                 n.db.put(k, v);\n\
             }\n",
        );
        let top = idx
            .fns
            .iter()
            .find(|f| f.name == "top")
            .expect("top indexed");
        let resolved: Vec<&str> = top
            .calls
            .iter()
            .flat_map(|c| {
                idx.resolve(top, c)
                    .iter()
                    .map(|&i| idx.fns[i].name.as_str())
            })
            .collect();
        assert_eq!(
            resolved,
            vec!["helper"],
            "get is blacklisted, db.put is external"
        );
        // The db receiver suppressed the call site entirely.
        assert!(!top.calls.iter().any(|c| c.callee == "put"));
    }

    #[test]
    fn blocking_and_panic_sites_are_collected() {
        let idx = index_of(
            "crates/gateway/src/x.rs",
            "fn f(conn: &mut FrameConn, d: Duration) {\n\
                 std::thread::sleep(d);\n\
                 conn.send(&msg);\n\
                 assert!(ready);\n\
                 debug_assert!(cheap);\n\
             }\n",
        );
        let f = &idx.fns[0];
        let whats: Vec<&str> = f.blocks.iter().map(|b| b.what).collect();
        assert_eq!(whats, vec!["thread::sleep", "socket send (FrameConn)"]);
        assert_eq!(f.panics.len(), 1);
        assert_eq!(f.panics[0].line, 4);
    }

    #[test]
    fn replica_writes_and_their_acks_are_blocking_sites() {
        let idx = index_of(
            "crates/gateway/src/x.rs",
            "fn fan_out(n: &Node, batch: WriteBatch) {\n\
                 n.db.write(batch.clone());\n\
                 let pending = n.db.submit(batch);\n\
                 pending.wait();\n\
             }\n",
        );
        let whats: Vec<&str> = idx.fns[0].blocks.iter().map(|b| b.what).collect();
        assert_eq!(
            whats,
            vec![
                "storage write (WAL fsync)",
                "storage enqueue (full commit queue)",
                "storage ack wait (PendingWrite)"
            ]
        );
    }

    #[test]
    fn test_scope_fns_are_marked() {
        let idx = index_of(
            "crates/gateway/src/x.rs",
            "fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { x.unwrap(); }\n\
             }\n",
        );
        let t = idx.fns.iter().find(|f| f.name == "t").expect("t indexed");
        assert!(t.is_test);
        let p = idx.fns.iter().find(|f| f.name == "prod").expect("prod");
        assert!(!p.is_test);
    }
}
