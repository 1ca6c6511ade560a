//! The two lock-discipline rules built on the symbol index and call
//! graph: `lock-order` (acquired-while-held cycles = potential deadlock,
//! reported with the full witness path) and `blocking-under-lock` (no
//! socket I/O, fsync, storage write, or sleep while a guard is live).

use crate::graph::CallGraph;
use crate::rules::FileView;
use crate::symbols::{FnInfo, LockSite};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// One acquired-while-held edge in the lock-order graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    /// Where the second lock is acquired (or the call that leads to it).
    pub file: String,
    pub line: usize,
    /// The function holding `from` at that point.
    pub holder: String,
    /// Call chain from the holder to the acquisition, when the second
    /// lock is taken in a callee (empty for same-function edges).
    pub via: String,
}

/// Whether `blocking-under-lock` covers `rel`: the gateway's data and
/// topology planes plus the networked benchmark plane. `iotkv` is
/// deliberately out of scope — its commit path fsyncs under the commit
/// lock *by design* (group commit is the planned fix, see ROADMAP), and
/// `wire::frame` is the sanctioned socket-I/O site.
pub fn blocking_rule_applies(rel: &str) -> bool {
    rel.starts_with("crates/gateway/src/") || rel == "crates/core/src/netplane.rs"
}

/// The locks of `f` whose guard is live at 0-based line `idx`.
fn held_at(f: &FnInfo, idx: usize) -> Vec<&LockSite> {
    f.locks
        .iter()
        .filter(|l| l.start_idx <= idx && idx <= l.end_idx)
        .collect()
}

/// Builds the full acquired-while-held graph: same-function edges (guard
/// A live when B is acquired) plus interprocedural edges (guard A live
/// at a call whose callee transitively acquires B). Edges are sorted and
/// deduped on `(from, to)`, keeping the lexicographically smallest
/// witness, so output is deterministic.
pub fn lock_order_edges(graph: &CallGraph) -> Vec<LockEdge> {
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut offer = |e: LockEdge| {
        let key = (e.from.clone(), e.to.clone());
        match edges.get(&key) {
            Some(old) if (&old.file, old.line, &old.via) <= (&e.file, e.line, &e.via) => {}
            _ => {
                edges.insert(key, e);
            }
        }
    };
    for f in &graph.index.fns {
        if f.is_test {
            continue;
        }
        // Same-function: A live when B is acquired on a later line.
        for b in &f.locks {
            for a in held_at(f, b.start_idx) {
                if a.lock != b.lock && a.start_idx < b.start_idx {
                    offer(LockEdge {
                        from: a.lock.clone(),
                        to: b.lock.clone(),
                        file: f.file.clone(),
                        line: b.line,
                        holder: f.qual.clone(),
                        via: String::new(),
                    });
                }
            }
        }
        // Interprocedural: A live at a call site whose callee may
        // acquire further locks.
        for call in &f.calls {
            let held = held_at(f, call.idx);
            if held.is_empty() {
                continue;
            }
            for &g in graph.index.resolve(f, call) {
                if graph.index.fns[g].is_test {
                    continue;
                }
                for to in graph.trans_locks(g) {
                    for a in &held {
                        if &a.lock == to {
                            continue;
                        }
                        let path = graph
                            .path_to(g, &|h| {
                                graph.index.fns[h].locks.iter().any(|l| &l.lock == to)
                            })
                            .map(|p| graph.render_path(&p))
                            .unwrap_or_default();
                        offer(LockEdge {
                            from: a.lock.clone(),
                            to: to.clone(),
                            file: f.file.clone(),
                            line: call.line,
                            holder: f.qual.clone(),
                            via: path,
                        });
                    }
                }
            }
        }
    }
    edges.into_values().collect()
}

/// Renders the lock-order graph in GraphViz DOT form (the
/// `analyzer graph --dot` subcommand).
pub fn render_dot(edges: &[LockEdge]) -> String {
    let mut out = String::from("digraph lock_order {\n");
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
    }
    for n in nodes {
        out.push_str(&format!("    \"{n}\";\n"));
    }
    for e in edges {
        out.push_str(&format!(
            "    \"{}\" -> \"{}\" [label=\"{}:{}\"];\n",
            e.from, e.to, e.file, e.line
        ));
    }
    out.push_str("}\n");
    out
}

/// `lock-order`: every cycle in the acquired-while-held graph is a
/// potential deadlock. One finding per strongly-connected component,
/// anchored at the witness site of the cycle's first edge, carrying the
/// complete edge-by-edge witness path in the message.
pub fn check_lock_order(
    graph: &CallGraph,
    views: &BTreeMap<&str, &FileView>,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "lock-order";
    let edges = lock_order_edges(graph);
    let by_from: BTreeMap<&str, Vec<&LockEdge>> = {
        let mut m: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
        for e in &edges {
            m.entry(e.from.as_str()).or_default().push(e);
        }
        m
    };
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    // From each node in sorted order, find the shortest path back to
    // itself (BFS); dedupe cycles by their canonical node set.
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|e| [e.from.as_str(), e.to.as_str()])
        .collect();
    for &start in &nodes {
        let Some(cycle) = shortest_cycle(start, &by_from) else {
            continue;
        };
        let mut canon: Vec<String> = cycle.iter().map(|e| e.from.clone()).collect();
        canon.sort();
        if !reported.insert(canon) {
            continue;
        }
        let first = cycle[0];
        let hops: Vec<String> = cycle
            .iter()
            .map(|e| {
                let via = if e.via.is_empty() {
                    String::new()
                } else {
                    format!(" via {}", e.via)
                };
                format!(
                    "`{}` -> `{}` ({}:{} in {}{})",
                    e.from, e.to, e.file, e.line, e.holder, via
                )
            })
            .collect();
        if views
            .get(first.file.as_str())
            .is_some_and(|v| v.suppressed(first.line - 1, RULE))
        {
            continue;
        }
        out.push(Finding::new(
            RULE,
            &first.file,
            first.line,
            format!(
                "lock-order cycle ({} locks): {}; threads taking these locks \
                 in different orders can deadlock",
                cycle.len(),
                hops.join(", ")
            ),
        ));
    }
}

/// Shortest edge path `start -> … -> start`, BFS over sorted edges.
fn shortest_cycle<'e>(
    start: &str,
    by_from: &BTreeMap<&str, Vec<&'e LockEdge>>,
) -> Option<Vec<&'e LockEdge>> {
    let mut prev: BTreeMap<&str, &'e LockEdge> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([start]);
    let mut seen: BTreeSet<&str> = BTreeSet::from([start]);
    while let Some(cur) = queue.pop_front() {
        for e in by_from.get(cur).into_iter().flatten() {
            let next = e.to.as_str();
            if next == start {
                // Reconstruct: edges from start to cur, then e.
                let mut path = vec![*e];
                let mut back = cur;
                while let Some(pe) = prev.get(back) {
                    path.push(*pe);
                    back = pe.from.as_str();
                }
                path.reverse();
                return Some(path);
            }
            if seen.insert(next) {
                prev.insert(next, e);
                queue.push_back(next);
            }
        }
    }
    None
}

/// `blocking-under-lock`: no blocking operation — socket I/O, fsync,
/// storage write/open, a wait for a replica write's ack,
/// `thread::sleep` — while a lock guard is live,
/// directly or through a call chain. One stalled connection or storage
/// stall must never wedge routing for every other thread.
pub fn check_blocking_under_lock(
    graph: &CallGraph,
    views: &BTreeMap<&str, &FileView>,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "blocking-under-lock";
    for f in &graph.index.fns {
        if f.is_test || !blocking_rule_applies(&f.file) {
            continue;
        }
        let view = views.get(f.file.as_str()).copied();
        let mut flagged: BTreeSet<usize> = BTreeSet::new();
        let mut push = |line: usize, idx: usize, message: String, flagged: &mut BTreeSet<usize>| {
            if flagged.contains(&line) {
                return;
            }
            if view.is_some_and(|v| v.suppressed(idx, RULE)) {
                flagged.insert(line);
                return;
            }
            flagged.insert(line);
            out.push(Finding::new(RULE, &f.file, line, message));
        };
        // Direct blocking sites under a live guard.
        for b in &f.blocks {
            let held = held_at(f, b.idx);
            let Some(lock) = held.first() else { continue };
            push(
                b.line,
                b.idx,
                format!(
                    "{} while holding `{}` (guard taken at line {}, in {}); \
                     a stall here wedges every waiter on the lock",
                    b.what, lock.lock, lock.line, f.qual
                ),
                &mut flagged,
            );
        }
        // Calls that transitively reach a blocking site.
        for call in &f.calls {
            if flagged.contains(&call.line) {
                continue;
            }
            let held = held_at(f, call.idx);
            let Some(lock) = held.first() else { continue };
            let callees = graph.index.resolve(f, call);
            let Some(&g) = callees.iter().find(|&&g| graph.may_block(g)) else {
                continue;
            };
            let Some(path) = graph.path_to(g, &|h| !graph.index.fns[h].blocks.is_empty()) else {
                continue;
            };
            let Some(&term_idx) = path.last() else {
                continue;
            };
            let terminal = &graph.index.fns[term_idx];
            let Some(site) = terminal.blocks.iter().min_by_key(|b| b.line) else {
                continue;
            };
            push(
                call.line,
                call.idx,
                format!(
                    "call to `{}` may block ({} at {}:{}, via {}) while \
                     holding `{}` (guard taken at line {}, in {})",
                    graph.index.fns[g].qual,
                    site.what,
                    terminal.file,
                    site.line,
                    graph.render_path(&path),
                    lock.lock,
                    lock.line,
                    f.qual
                ),
                &mut flagged,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, LexedLine};
    use crate::symbols::SymbolIndex;

    fn run(
        src: &str,
        rule: fn(&CallGraph, &BTreeMap<&str, &FileView>, &mut Vec<Finding>),
    ) -> Vec<Finding> {
        let files: Vec<(String, Vec<LexedLine>)> =
            vec![("crates/gateway/src/x.rs".to_string(), lex(src))];
        let views: Vec<FileView> = files.iter().map(|(_, l)| FileView::new(l)).collect();
        let index = SymbolIndex::build(&files, &views);
        let graph = CallGraph::build(&index);
        let by_file: BTreeMap<&str, &FileView> = files
            .iter()
            .zip(&views)
            .map(|((rel, _), v)| (rel.as_str(), v))
            .collect();
        let mut out = Vec::new();
        rule(&graph, &by_file, &mut out);
        out
    }

    #[test]
    fn ab_ba_cycle_is_reported_with_full_witness() {
        let src = "impl S {\n\
                   fn ab(&self) {\n\
                       let a = self.alpha.lock();\n\
                       let b = self.beta.lock();\n\
                   }\n\
                   fn ba(&self) {\n\
                       let b = self.beta.lock();\n\
                       let a = self.alpha.lock();\n\
                   }\n\
                   }\n";
        let out = run(src, check_lock_order);
        assert_eq!(out.len(), 1, "{out:?}");
        let msg = &out[0].message;
        assert!(msg.contains("gateway/alpha"), "{msg}");
        assert!(msg.contains("gateway/beta"), "{msg}");
        assert!(msg.contains("S::ab"), "{msg}");
        assert!(msg.contains("S::ba"), "{msg}");
    }

    #[test]
    fn interprocedural_edge_closes_the_cycle() {
        let src = "impl S {\n\
                   fn ab(&self) {\n\
                       let a = self.alpha.lock();\n\
                       let b = self.beta.lock();\n\
                   }\n\
                   fn ba(&self) {\n\
                       let b = self.beta.lock();\n\
                       self.grab_alpha();\n\
                   }\n\
                   fn grab_alpha(&self) {\n\
                       let a = self.alpha.lock();\n\
                   }\n\
                   }\n";
        let out = run(src, check_lock_order);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("via S::grab_alpha"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "impl S {\n\
                   fn ab(&self) {\n\
                       let a = self.alpha.lock();\n\
                       let b = self.beta.lock();\n\
                   }\n\
                   fn also_ab(&self) {\n\
                       let a = self.alpha.lock();\n\
                       let b = self.beta.lock();\n\
                   }\n\
                   }\n";
        assert!(run(src, check_lock_order).is_empty());
    }

    #[test]
    fn direct_blocking_under_guard_is_flagged() {
        let src = "impl S {\n\
                   fn stream(&self, conn: &mut FrameConn) {\n\
                       let g = self.state.lock();\n\
                       conn.send(&msg);\n\
                   }\n\
                   }\n";
        let out = run(src, check_blocking_under_lock);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("gateway/state"));
    }

    #[test]
    fn transitive_blocking_under_guard_is_flagged_with_path() {
        let src = "impl S {\n\
                   fn outer(&self) {\n\
                       let g = self.state.lock();\n\
                       self.pace();\n\
                   }\n\
                   fn pace(&self) {\n\
                       std::thread::sleep(self.dt);\n\
                   }\n\
                   }\n";
        let out = run(src, check_blocking_under_lock);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("S::pace"), "{}", out[0].message);
        assert!(
            out[0].message.contains("thread::sleep"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn blocking_after_guard_dropped_is_clean() {
        let src = "impl S {\n\
                   fn ok(&self, conn: &mut FrameConn) {\n\
                       let reply = {\n\
                           let g = self.state.lock();\n\
                           g.answer()\n\
                       };\n\
                       conn.send(&reply);\n\
                   }\n\
                   }\n";
        assert!(run(src, check_blocking_under_lock).is_empty());
    }

    #[test]
    fn dot_output_lists_nodes_and_edges() {
        let edges = vec![LockEdge {
            from: "gateway/a".into(),
            to: "gateway/b".into(),
            file: "crates/gateway/src/x.rs".into(),
            line: 3,
            holder: "S::f".into(),
            via: String::new(),
        }];
        let dot = render_dot(&edges);
        assert!(dot.starts_with("digraph lock_order {"));
        assert!(dot.contains("\"gateway/a\" -> \"gateway/b\""));
        assert!(dot.contains("x.rs:3"));
    }
}
