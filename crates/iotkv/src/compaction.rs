//! Compaction: picking what to merge and streaming the merge.
//!
//! Compaction is leveled: L0 is due when it holds `l0_compaction_trigger`
//! tables and compacts whole into L1; level *n* ≥ 1 is due when its byte
//! size exceeds `l1_bytes · multiplier^(n-1)` and moves **one** file (plus
//! the L(n+1) files it overlaps) into L(n+1). Of the due levels the one
//! furthest over its trigger goes first, and within a level ≥ 1 the file
//! with the fewest overlapping bytes below it per byte of its own.
//!
//! The picker is a pure function of a [`Version`]: it keeps no cursor and
//! knows nothing about who else is working. Exclusion is the caller's job —
//! `Db` picks and installs under its maintenance claim, so the picker is
//! never asked about a version that names files of a job in flight.
//!
//! A job that would only copy its one input — nothing overlaps it in the
//! target level and the merge would drop nothing — is a **trivial move**
//! ([`CompactionJob::is_trivial_move`]): the caller re-levels the
//! [`FileMeta`] and touches no table file.
//!
//! The merge itself is snapshot-aware: per user key it keeps every version
//! down to the newest one at or below the oldest registered snapshot and
//! drops the rest. Tombstones are dropped only when the output lands on
//! the bottom-most level that can contain the key — dropping them earlier
//! would resurrect older versions living below.

use crate::iter::{MergeIterator, Source};
use crate::memtable::InternalKey;
use crate::sstable::builder::TableMeta;
use crate::sstable::TableBuilder;
use crate::version::{table_path, FileMeta, Version};
use crate::{Options, Result, ValueKind};
use std::path::Path;

/// A unit of compaction work chosen by a picker.
#[derive(Debug)]
pub struct CompactionJob {
    /// Level the input files come from (`0` for an L0→L1 compaction).
    pub level: usize,
    /// Level the outputs land on.
    pub target_level: usize,
    /// Input files from `level`.
    pub inputs: Vec<FileMeta>,
    /// Overlapping input files from `target_level`.
    pub overlaps: Vec<FileMeta>,
    /// Whether tombstones may be dropped (output is bottom-most).
    pub drop_tombstones: bool,
}

impl CompactionJob {
    /// The job for moving `inputs` from `level` one level down in
    /// `version`: every target-level file their key range touches joins.
    fn new(version: &Version, level: usize, inputs: Vec<FileMeta>) -> CompactionJob {
        let (lo, hi) = key_range(&inputs);
        let target_level = level + 1;
        CompactionJob {
            level,
            target_level,
            overlaps: version.overlapping(target_level, &lo, &hi),
            drop_tombstones: is_bottom_most(version, target_level, &lo, &hi),
            inputs,
        }
    }

    pub fn input_ids(&self) -> Vec<u64> {
        self.inputs
            .iter()
            .chain(&self.overlaps)
            .map(|f| f.id)
            .collect()
    }

    pub fn input_bytes(&self) -> u64 {
        self.inputs
            .iter()
            .chain(&self.overlaps)
            .map(|f| f.size)
            .sum()
    }

    /// True when merging would reproduce the single input unchanged: it
    /// meets no file in the target level and holds no tombstone the merge
    /// would drop. Shadowed versions a merge might also drop stay with the
    /// file until its next real compaction; they are invisible to reads.
    pub fn is_trivial_move(&self) -> bool {
        match self.inputs.as_slice() {
            [only] => self.overlaps.is_empty() && !(self.drop_tombstones && only.tombstones > 0),
            _ => false,
        }
    }
}

fn key_range(files: &[FileMeta]) -> (Vec<u8>, Vec<u8>) {
    let mut lo: Option<&[u8]> = None;
    let mut hi: Option<&[u8]> = None;
    for f in files {
        if lo.map(|l| f.smallest.user_key.as_ref() < l).unwrap_or(true) {
            lo = Some(&f.smallest.user_key);
        }
        if hi.map(|h| f.largest.user_key.as_ref() > h).unwrap_or(true) {
            hi = Some(&f.largest.user_key);
        }
    }
    (
        lo.unwrap_or_default().to_vec(),
        hi.unwrap_or_default().to_vec(),
    )
}

/// True if no level deeper than `target_level` holds data overlapping the
/// key range — the condition under which tombstones can be dropped.
fn is_bottom_most(version: &Version, target_level: usize, lo: &[u8], hi: &[u8]) -> bool {
    ((target_level + 1)..version.levels.len()).all(|l| version.overlapping(l, lo, hi).is_empty())
}

/// Byte budget of a level under the leveled strategy.
pub fn level_target_bytes(opts: &Options, level: usize) -> u64 {
    debug_assert!(level >= 1);
    opts.l1_bytes
        .saturating_mul(opts.level_size_multiplier.saturating_pow(level as u32 - 1))
}

/// `a.0 / a.1 < b.0 / b.1` without leaving the integers.
fn ratio_lt(a: (u64, u64), b: (u64, u64)) -> bool {
    u128::from(a.0) * u128::from(b.1) < u128::from(b.0) * u128::from(a.1)
}

/// The due level furthest over its trigger (table count over
/// `l0_compaction_trigger` for L0, bytes over budget below it); ties go
/// to the shallower level. Ranking by pressure rather than "L0 first"
/// keeps a sustained ingest from starving L1→L2 while L1 — which every
/// L0 compaction rewrites whole — grows without bound.
fn most_pressed_level(version: &Version, opts: &Options) -> Option<usize> {
    let l0 = version.levels[0].len();
    let mut best = (l0 >= opts.l0_compaction_trigger)
        .then(|| (0, (l0 as u64, opts.l0_compaction_trigger.max(1) as u64)));
    for level in 1..version.levels.len() - 1 {
        let pressure = (version.level_bytes(level), level_target_bytes(opts, level));
        let due = pressure.0 > pressure.1;
        if due && best.is_none_or(|(_, b)| ratio_lt(b, pressure)) {
            best = Some((level, pressure));
        }
    }
    best.map(|(level, _)| level)
}

/// The file of `level` that is cheapest to move down: fewest overlapping
/// bytes in `level + 1` per byte of its own; ties go to the smallest key.
///
/// The choice needs no compaction cursor or other state carried between
/// picks: moving a file down makes the level below denser exactly under
/// its key range, which raises the cost of that range for the next pick
/// and sends it elsewhere. The rotation over the key space falls out of
/// the version itself, so a reopened database resumes it for free.
fn min_overlap_file(version: &Version, level: usize) -> Option<&FileMeta> {
    let cost = |f: &FileMeta| {
        let below = version.levels[level + 1]
            .iter()
            .filter(|b| b.overlaps(&f.smallest.user_key, &f.largest.user_key))
            .map(|b| b.size)
            .sum::<u64>();
        (below, f.size.max(1))
    };
    let mut files = version.levels[level].iter();
    let mut best = files.next()?;
    let mut best_cost = cost(best);
    for f in files {
        let c = cost(f);
        if ratio_lt(c, best_cost) {
            (best, best_cost) = (f, c);
        }
    }
    Some(best)
}

/// Chooses the next leveled compaction, if any is needed.
pub fn pick_leveled(version: &Version, opts: &Options) -> Option<CompactionJob> {
    let level = most_pressed_level(version, opts)?;
    let inputs = if level == 0 {
        // L0 tables overlap each other, so they go down together.
        version.levels[0].clone()
    } else {
        vec![min_overlap_file(version, level)?.clone()]
    };
    Some(CompactionJob::new(version, level, inputs))
}

/// Streams a merge of `sources` into one or more output tables in `dir`,
/// splitting at `opts.table_bytes`. `alloc_id` must return fresh file ids.
///
/// Version retention is snapshot-aware. For each user key (versions arrive
/// newest-first from the merge):
///
/// * versions are kept until one with `seq <= min_snapshot` has been kept —
///   that version still serves every active snapshot; everything older is
///   unreachable and dropped,
/// * when `drop_tombstones` is set (output is bottom-most), tombstones are
///   elided from the output; a tombstone with `seq <= min_snapshot` also
///   releases all older versions of its key.
pub fn merge_to_tables(
    sources: Vec<Source>,
    dir: &Path,
    opts: &Options,
    drop_tombstones: bool,
    min_snapshot: crate::SeqNo,
    mut alloc_id: impl FnMut() -> u64,
) -> Result<Vec<(u64, TableMeta)>> {
    let mut out: Vec<(u64, TableMeta)> = Vec::new();
    let mut current: Option<(u64, TableBuilder)> = None;
    let mut last_user_key: Option<InternalKey> = None;
    // True once a kept (or bottom-dropped) version of the current user key
    // satisfies every active snapshot.
    let mut key_settled = false;

    let mut merged = MergeIterator::new(sources);
    for (ik, value) in &mut merged {
        let same_key = last_user_key
            .as_ref()
            .map(|prev| prev.user_key == ik.user_key)
            .unwrap_or(false);
        if !same_key {
            key_settled = false;
        }
        last_user_key = Some(ik.clone());
        if key_settled {
            continue; // an older version no snapshot can reach
        }
        key_settled = ik.seq <= min_snapshot;
        if drop_tombstones && ik.kind == ValueKind::Delete {
            // Bottom-most output: the tombstone itself can vanish.
            continue;
        }
        if current.is_none() {
            let id = alloc_id();
            let b = TableBuilder::create(
                &table_path(dir, id),
                opts.block_bytes,
                opts.bloom_bits_per_key,
            )?;
            current = Some((id, b));
        }
        // lint:allow(unwrap) the branch above just populated `current`.
        let (id, builder) = current.as_mut().expect("just ensured");
        builder.add(&ik, &value)?;
        if builder.estimated_size() >= opts.table_bytes {
            // lint:allow(unwrap) still present: only taken right here.
            let (id, builder) = (*id, current.take().expect("present").1);
            out.push((id, builder.finish()?));
        }
    }
    if let Some(e) = merged.take_error() {
        return Err(e);
    }
    if let Some((id, builder)) = current {
        if builder.entry_count() > 0 {
            out.push((id, builder.finish()?));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn ik(key: &str, seq: u64) -> InternalKey {
        InternalKey::new(Bytes::copy_from_slice(key.as_bytes()), seq, ValueKind::Put)
    }

    fn meta(id: u64, lo: &str, hi: &str, size: u64) -> FileMeta {
        FileMeta {
            id,
            size,
            entry_count: 1,
            tombstones: 0,
            smallest: ik(lo, u64::MAX),
            largest: ik(hi, 0),
        }
    }

    fn opts() -> Options {
        Options::small()
    }

    #[test]
    fn leveled_picks_l0_when_full() {
        let mut v = Version::new(4);
        for id in 1..=4 {
            v.levels[0].push(meta(id, "a", "m", 100));
        }
        v.levels[1].push(meta(10, "c", "f", 100));
        v.levels[1].push(meta(11, "x", "z", 100));
        let job = pick_leveled(&v, &opts()).unwrap();
        assert_eq!(job.level, 0);
        assert_eq!(job.target_level, 1);
        assert_eq!(job.inputs.len(), 4);
        // Only the overlapping L1 file joins.
        assert_eq!(job.overlaps.len(), 1);
        assert_eq!(job.overlaps[0].id, 10);
        // L2+ is empty, so tombstones can be dropped.
        assert!(job.drop_tombstones);
        assert_eq!(job.input_bytes(), 500);
    }

    #[test]
    fn leveled_tombstones_kept_when_data_below() {
        let mut v = Version::new(4);
        for id in 1..=4 {
            v.levels[0].push(meta(id, "a", "m", 100));
        }
        v.levels[2].push(meta(20, "b", "c", 100));
        let job = pick_leveled(&v, &opts()).unwrap();
        assert!(!job.drop_tombstones, "L2 holds overlapping data");
    }

    #[test]
    fn leveled_picks_by_size_pressure() {
        let o = opts();
        let mut v = Version::new(4);
        // L1 over budget.
        v.levels[1].push(meta(5, "a", "c", level_target_bytes(&o, 1) + 1));
        v.levels[2].push(meta(6, "b", "z", 10));
        let job = pick_leveled(&v, &o).unwrap();
        assert_eq!(job.level, 1);
        assert_eq!(job.target_level, 2);
        assert_eq!(job.inputs[0].id, 5);
        assert_eq!(job.overlaps[0].id, 6);
    }

    #[test]
    fn leveled_ranks_due_levels_by_pressure() {
        let o = opts();
        let mut v = Version::new(4);
        for id in 1..=4 {
            v.levels[0].push(meta(id, "a", "m", 100));
        }
        // L0 exactly at its trigger, L1 at twice its budget: L1 goes first.
        v.levels[1].push(meta(5, "a", "c", level_target_bytes(&o, 1)));
        v.levels[1].push(meta(6, "d", "f", level_target_bytes(&o, 1)));
        assert_eq!(pick_leveled(&v, &o).unwrap().level, 1);
        // L0 at three times its trigger outranks it.
        for id in 11..=18 {
            v.levels[0].push(meta(id, "a", "m", 100));
        }
        assert_eq!(pick_leveled(&v, &o).unwrap().level, 0);
        // Equal pressure: the shallower level.
        v.levels[0].truncate(8);
        assert_eq!(pick_leveled(&v, &o).unwrap().level, 0);
    }

    #[test]
    fn leveled_moves_the_file_with_least_overlap_below() {
        let o = opts();
        let unit = level_target_bytes(&o, 1) / 2;
        let mut v = Version::new(4);
        v.levels[1].push(meta(1, "a", "f", unit));
        v.levels[1].push(meta(2, "g", "m", unit));
        v.levels[1].push(meta(3, "n", "z", unit));
        // L2 is dense under the low keys, thin in the middle.
        v.levels[2].push(meta(10, "a", "b", 4 * unit));
        v.levels[2].push(meta(11, "c", "f", 4 * unit));
        v.levels[2].push(meta(12, "h", "i", unit / 2));
        v.levels[2].push(meta(13, "p", "q", 2 * unit));
        let job = pick_leveled(&v, &o).unwrap();
        assert_eq!((job.level, job.target_level), (1, 2));
        assert_eq!(job.input_ids(), vec![2, 12], "not the low-key file");
        assert!(!job.is_trivial_move());

        // The ratio counts, not the absolute overlap: a file twice the
        // size may sit on more bytes and still be the cheaper one to move.
        v.levels[1][2].size = 6 * unit;
        assert_eq!(pick_leveled(&v, &o).unwrap().inputs[0].id, 3);
    }

    #[test]
    fn leveled_overlap_ties_go_to_the_smallest_key() {
        let o = opts();
        let size = level_target_bytes(&o, 1);
        let mut v = Version::new(4);
        v.levels[1].push(meta(7, "a", "c", size));
        v.levels[1].push(meta(5, "d", "f", size));
        v.levels[1].push(meta(6, "g", "i", size));
        // Nothing below any of them, then the same amount below each.
        assert_eq!(pick_leveled(&v, &o).unwrap().inputs[0].id, 7);
        v.levels[2].push(meta(20, "b", "b", 10));
        v.levels[2].push(meta(21, "e", "e", 10));
        v.levels[2].push(meta(22, "h", "h", 10));
        assert_eq!(pick_leveled(&v, &o).unwrap().inputs[0].id, 7);
    }

    #[test]
    fn trivial_move_needs_an_empty_landing_and_nothing_to_drop() {
        let o = opts();
        let size = level_target_bytes(&o, 1) + 1;
        let mut v = Version::new(4);
        v.levels[1].push(meta(1, "d", "f", size));
        v.levels[2].push(meta(2, "a", "c", 10));
        v.levels[2].push(meta(3, "g", "k", 10));
        let job = pick_leveled(&v, &o).unwrap();
        assert!(job.overlaps.is_empty() && job.drop_tombstones);
        assert!(job.is_trivial_move(), "lands between its L2 neighbours");

        // Bottom-most output and the file holds tombstones: a merge would
        // drop them, so it must run.
        v.levels[1][0].tombstones = 3;
        assert!(!pick_leveled(&v, &o).unwrap().is_trivial_move());
        // Data below keeps the tombstones alive either way: move again.
        v.levels[3].push(meta(4, "e", "e", 10));
        let job = pick_leveled(&v, &o).unwrap();
        assert!(!job.drop_tombstones && job.is_trivial_move());

        // Anything in the landing zone means a real merge.
        v.levels[2].push(meta(5, "f", "f", 10));
        let job = pick_leveled(&v, &o).unwrap();
        assert_eq!(job.overlaps.len(), 1);
        assert!(!job.is_trivial_move());

        // Several inputs never move trivially, overlap or not.
        let mut v = Version::new(4);
        for id in 1..=4 {
            v.levels[0].push(meta(id, "a", "m", 100));
        }
        let job = pick_leveled(&v, &o).unwrap();
        assert!(job.overlaps.is_empty() && !job.is_trivial_move());
    }

    #[test]
    fn no_compaction_when_quiet() {
        let mut v = Version::new(4);
        v.levels[0].push(meta(1, "a", "b", 10));
        assert!(pick_leveled(&v, &opts()).is_none());
    }

    #[test]
    fn merge_drops_shadowed_versions_and_tombstones() {
        let dir = std::env::temp_dir().join(format!("iotkv-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let newer = vec![
            (ik("a", 9), Bytes::from_static(b"a9")),
            (
                InternalKey::new(Bytes::from_static(b"b"), 8, ValueKind::Delete),
                Bytes::new(),
            ),
        ];
        let older = vec![
            (ik("a", 2), Bytes::from_static(b"a2")),
            (ik("b", 3), Bytes::from_static(b"b3")),
            (ik("c", 4), Bytes::from_static(b"c4")),
        ];
        let mut next_id = 100u64;
        let outs = merge_to_tables(
            vec![
                Source::Vec(newer.into_iter()),
                Source::Vec(older.into_iter()),
            ],
            &dir,
            &opts(),
            true,
            u64::MAX,
            || {
                next_id += 1;
                next_id
            },
        )
        .unwrap();
        assert_eq!(outs.len(), 1);
        let (_, m) = &outs[0];
        // a (newest), c survive; b fully dropped (tombstone at bottom).
        assert_eq!(m.entry_count, 2);
        assert_eq!(m.smallest.user_key.as_ref(), b"a");
        assert_eq!(m.smallest.seq, 9);
        assert_eq!(m.largest.user_key.as_ref(), b"c");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn merge_keeps_tombstones_when_not_bottom() {
        let dir = std::env::temp_dir().join(format!("iotkv-compact2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = vec![(
            InternalKey::new(Bytes::from_static(b"b"), 8, ValueKind::Delete),
            Bytes::new(),
        )];
        let mut next_id = 200u64;
        let outs = merge_to_tables(
            vec![Source::Vec(src.into_iter())],
            &dir,
            &opts(),
            false,
            u64::MAX,
            || {
                next_id += 1;
                next_id
            },
        )
        .unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].1.entry_count, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn merge_retains_versions_needed_by_snapshots() {
        let dir = std::env::temp_dir().join(format!("iotkv-compact4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Key "a" has versions at seq 9, 5, 2. An active snapshot at seq 6
        // needs version 5; version 2 is unreachable.
        let src = vec![
            (ik("a", 9), Bytes::from_static(b"a9")),
            (ik("a", 5), Bytes::from_static(b"a5")),
            (ik("a", 2), Bytes::from_static(b"a2")),
        ];
        let mut next_id = 400u64;
        let outs = merge_to_tables(
            vec![Source::Vec(src.into_iter())],
            &dir,
            &opts(),
            true,
            6, // min active snapshot
            || {
                next_id += 1;
                next_id
            },
        )
        .unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(
            outs[0].1.entry_count, 2,
            "seq 9 and seq 5 kept, seq 2 dropped"
        );
        assert_eq!(outs[0].1.largest.seq, 5);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn merge_splits_output_at_table_budget() {
        let dir = std::env::temp_dir().join(format!("iotkv-compact3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut o = opts();
        o.table_bytes = 2048;
        let entries: Vec<_> = (0..200)
            .map(|i| (ik(&format!("k{i:05}"), 1), Bytes::from(vec![0u8; 64])))
            .collect();
        let mut next_id = 300u64;
        let outs = merge_to_tables(
            vec![Source::Vec(entries.into_iter())],
            &dir,
            &o,
            true,
            u64::MAX,
            || {
                next_id += 1;
                next_id
            },
        )
        .unwrap();
        assert!(outs.len() > 1, "output split into {} tables", outs.len());
        let total: u64 = outs.iter().map(|(_, m)| m.entry_count).sum();
        assert_eq!(total, 200);
        // Outputs are disjoint and ordered.
        for w in outs.windows(2) {
            assert!(w[0].1.largest < w[1].1.smallest);
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
