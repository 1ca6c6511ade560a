//! Table-set metadata (versions) and its durable form (the manifest).
//!
//! A [`Version`] is an immutable snapshot of which table files exist at
//! which level. Level 0 may contain tables with overlapping key ranges
//! (each is a memtable flush); levels ≥ 1 are sorted runs of
//! non-overlapping tables. Every flush/compaction installs a new version
//! and atomically rewrites the manifest (`MANIFEST` via temp-file +
//! rename), which records the full table set, the next file id, the last
//! committed sequence number, and the oldest WAL still needed.

use crate::checksum::{crc32c, mask, unmask};
use crate::encoding::{get_len_prefixed, get_u32, get_u64, put_len_prefixed, put_u32, put_u64};
use crate::memtable::InternalKey;
use crate::sstable::builder::TableMeta;
use crate::{Error, Result, SeqNo, ValueKind};
use bytes::Bytes;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Metadata of one table file.
#[derive(Clone, Debug)]
pub struct FileMeta {
    pub id: u64,
    pub size: u64,
    pub entry_count: u64,
    /// How many of the entries are deletion tombstones.
    pub tombstones: u64,
    pub smallest: InternalKey,
    pub largest: InternalKey,
}

impl FileMeta {
    /// The manifest entry of a table the builder just finished.
    pub fn from_table(id: u64, table: &TableMeta) -> FileMeta {
        FileMeta {
            id,
            size: table.file_size,
            entry_count: table.entry_count,
            tombstones: table.tombstones,
            smallest: table.smallest.clone(),
            largest: table.largest.clone(),
        }
    }

    /// True if this table's user-key range intersects `[start, end]`
    /// (inclusive bounds).
    pub fn overlaps(&self, start: &[u8], end: &[u8]) -> bool {
        self.largest.user_key.as_ref() >= start && self.smallest.user_key.as_ref() <= end
    }
}

/// An immutable snapshot of the level structure.
#[derive(Clone, Debug, Default)]
pub struct Version {
    pub levels: Vec<Vec<FileMeta>>,
}

impl Version {
    pub fn new(num_levels: usize) -> Version {
        Version {
            levels: vec![Vec::new(); num_levels],
        }
    }

    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|f| f.size).sum()
    }

    pub fn table_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Files in `level` overlapping the user-key range `[start, end]`.
    pub fn overlapping(&self, level: usize, start: &[u8], end: &[u8]) -> Vec<FileMeta> {
        self.levels[level]
            .iter()
            .filter(|f| f.overlaps(start, end))
            .cloned()
            .collect()
    }

    /// Builds the successor version: removes `deleted` file ids, adds
    /// `added` files to `target_level` keeping deep levels sorted by
    /// smallest key and L0 sorted by file id (flush order).
    pub fn apply(&self, deleted: &[u64], added: &[(usize, FileMeta)]) -> Version {
        let mut next = self.clone();
        for level in &mut next.levels {
            level.retain(|f| !deleted.contains(&f.id));
        }
        for (level, meta) in added {
            next.levels[*level].push(meta.clone());
        }
        next.levels[0].sort_by_key(|f| f.id);
        for level in next.levels.iter_mut().skip(1) {
            level.sort_by(|a, b| a.smallest.cmp(&b.smallest));
            // Point reads binary-search a deep level and scans merge it as
            // one run. Two installs of the same job (or a picker that left
            // an overlapping file behind) would break both silently.
            debug_assert!(
                level.windows(2).all(|w| w[0].largest < w[1].smallest),
                "level >= 1 must stay a sorted, non-overlapping run: {level:?}"
            );
        }
        next
    }

    /// Debug string like `"2 4 0 1"` — table counts per level.
    pub fn shape(&self) -> String {
        self.levels
            .iter()
            .map(|l| l.len().to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Everything the manifest persists.
#[derive(Clone, Debug)]
pub struct ManifestState {
    pub next_file_id: u64,
    pub last_seq: SeqNo,
    /// WAL files with ids below this are no longer needed.
    pub log_number: u64,
    pub version: Version,
}

pub fn table_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:06}.sst"))
}

pub fn wal_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:06}.wal"))
}

/// What a numbered file in a database directory holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FileKind {
    Table,
    Wal,
}

/// The `<id>.sst` and `<id>.wal` files in `dir`, in directory order. A
/// directory or entry that cannot be read lists nothing: every caller
/// treats a file it cannot see as absent.
pub(crate) fn numbered_files(dir: &Path) -> impl Iterator<Item = (FileKind, u64)> {
    // Result<ReadDir> -> ReadDir -> Result<DirEntry> -> DirEntry.
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    entries.filter_map(|entry| {
        let name = entry.file_name();
        let name = name.to_str()?;
        let (kind, stem) = match name.strip_suffix(".sst") {
            Some(stem) => (FileKind::Table, stem),
            None => (FileKind::Wal, name.strip_suffix(".wal")?),
        };
        Some((kind, stem.parse().ok()?))
    })
}

pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

fn put_internal_key(buf: &mut Vec<u8>, ik: &InternalKey) {
    put_len_prefixed(buf, &ik.user_key);
    put_u64(buf, ik.seq);
    buf.push(ik.kind as u8);
}

fn get_internal_key(s: &mut &[u8]) -> Result<InternalKey> {
    let user_key = Bytes::copy_from_slice(get_len_prefixed(s)?);
    let seq = get_u64(s)?;
    if s.is_empty() {
        return Err(Error::corruption("manifest key truncated"));
    }
    let kind =
        ValueKind::from_u8(s[0]).ok_or_else(|| Error::corruption("manifest bad kind byte"))?;
    *s = &s[1..];
    Ok(InternalKey::new(user_key, seq, kind))
}

/// Serialises and atomically replaces the manifest file.
pub fn save_manifest(dir: &Path, state: &ManifestState) -> Result<()> {
    let mut payload = Vec::with_capacity(256);
    put_u64(&mut payload, state.next_file_id);
    put_u64(&mut payload, state.last_seq);
    put_u64(&mut payload, state.log_number);
    put_u32(&mut payload, state.version.levels.len() as u32);
    for level in &state.version.levels {
        put_u32(&mut payload, level.len() as u32);
        for f in level {
            put_u64(&mut payload, f.id);
            put_u64(&mut payload, f.size);
            put_u64(&mut payload, f.entry_count);
            put_u64(&mut payload, f.tombstones);
            put_internal_key(&mut payload, &f.smallest);
            put_internal_key(&mut payload, &f.largest);
        }
    }
    let crc = mask(crc32c(&payload));

    let tmp = dir.join("MANIFEST.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&crc.to_le_bytes())?;
        file.write_all(&(payload.len() as u32).to_le_bytes())?;
        file.write_all(&payload)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, manifest_path(dir))?;
    Ok(())
}

/// Loads the manifest; `Ok(None)` when no manifest exists (fresh database).
pub fn load_manifest(dir: &Path) -> Result<Option<ManifestState>> {
    let path = manifest_path(dir);
    let data = match fs::read(&path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if data.len() < 8 {
        return Err(Error::corruption("manifest shorter than header"));
    }
    // lint:allow(unwrap) fixed-width try_into of a length-checked slices
    // (length >= 8 checked above).
    let stored_crc = unmask(u32::from_le_bytes(data[0..4].try_into().unwrap()));
    let len = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize; // lint:allow(unwrap)
    if data.len() < 8 + len {
        return Err(Error::corruption("manifest truncated"));
    }
    let payload = &data[8..8 + len];
    if crc32c(payload) != stored_crc {
        return Err(Error::corruption("manifest failed CRC"));
    }

    let mut s = payload;
    let next_file_id = get_u64(&mut s)?;
    let last_seq = get_u64(&mut s)?;
    let log_number = get_u64(&mut s)?;
    let num_levels = get_u32(&mut s)? as usize;
    if num_levels > 64 {
        return Err(Error::corruption("manifest claims too many levels"));
    }
    let mut version = Version::new(num_levels);
    for level in version.levels.iter_mut() {
        let count = get_u32(&mut s)? as usize;
        for _ in 0..count {
            let id = get_u64(&mut s)?;
            let size = get_u64(&mut s)?;
            let entry_count = get_u64(&mut s)?;
            let tombstones = get_u64(&mut s)?;
            let smallest = get_internal_key(&mut s)?;
            let largest = get_internal_key(&mut s)?;
            level.push(FileMeta {
                id,
                size,
                entry_count,
                tombstones,
                smallest,
                largest,
            });
        }
    }
    Ok(Some(ManifestState {
        next_file_id,
        last_seq,
        log_number,
        version,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ik(key: &str, seq: u64) -> InternalKey {
        InternalKey::new(Bytes::copy_from_slice(key.as_bytes()), seq, ValueKind::Put)
    }

    fn meta(id: u64, lo: &str, hi: &str) -> FileMeta {
        FileMeta {
            id,
            size: 1000 + id,
            entry_count: 10 * id,
            tombstones: id,
            smallest: ik(lo, 100),
            largest: ik(hi, 1),
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("iotkv-manifest-{name}-{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn overlap_logic() {
        let f = meta(1, "b", "d");
        assert!(f.overlaps(b"a", b"z"));
        assert!(f.overlaps(b"c", b"c"));
        assert!(f.overlaps(b"d", b"z"));
        assert!(f.overlaps(b"a", b"b"));
        assert!(!f.overlaps(b"e", b"z"));
        assert!(!f.overlaps(b"a", b"a"));
    }

    #[test]
    fn apply_adds_removes_and_sorts() {
        let v = Version::new(3);
        let v = v.apply(
            &[],
            &[
                (0, meta(5, "a", "c")),
                (0, meta(3, "b", "d")),
                (1, meta(9, "m", "p")),
                (1, meta(8, "a", "c")),
            ],
        );
        // L0 by id.
        assert_eq!(v.levels[0][0].id, 3);
        assert_eq!(v.levels[0][1].id, 5);
        // L1 by smallest key.
        assert_eq!(v.levels[1][0].id, 8);
        assert_eq!(v.levels[1][1].id, 9);
        assert_eq!(v.shape(), "2 2 0");

        let v2 = v.apply(&[3, 8], &[]);
        assert_eq!(v2.shape(), "1 1 0");
        assert_eq!(v2.table_count(), 2);
        // Original untouched (versions are immutable snapshots).
        assert_eq!(v.table_count(), 4);
    }

    #[test]
    fn manifest_round_trip() {
        let dir = tmpdir("rt");
        let mut version = Version::new(4);
        version.levels[0].push(meta(1, "aa", "zz"));
        version.levels[2].push(meta(2, "b", "c"));
        let state = ManifestState {
            next_file_id: 42,
            last_seq: 9001,
            log_number: 7,
            version,
        };
        save_manifest(&dir, &state).unwrap();
        let loaded = load_manifest(&dir).unwrap().unwrap();
        assert_eq!(loaded.next_file_id, 42);
        assert_eq!(loaded.last_seq, 9001);
        assert_eq!(loaded.log_number, 7);
        assert_eq!(loaded.version.shape(), "1 0 1 0");
        assert_eq!(loaded.version.levels[0][0].id, 1);
        assert_eq!(loaded.version.levels[2][0].tombstones, 2);
        assert_eq!(loaded.version.levels[2][0].smallest, ik("b", 100));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_manifest_is_none() {
        let dir = tmpdir("none");
        assert!(load_manifest(&dir).unwrap().is_none());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_manifest_detected() {
        let dir = tmpdir("corrupt");
        let state = ManifestState {
            next_file_id: 1,
            last_seq: 1,
            log_number: 0,
            version: Version::new(2),
        };
        save_manifest(&dir, &state).unwrap();
        let path = manifest_path(&dir);
        let mut data = fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0x01;
        fs::write(&path, &data).unwrap();
        assert!(matches!(load_manifest(&dir), Err(Error::Corruption(_))));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn file_naming() {
        let dir = Path::new("/data");
        assert_eq!(table_path(dir, 7), Path::new("/data/000007.sst"));
        assert_eq!(wal_path(dir, 123456), Path::new("/data/123456.wal"));

        // A listing parses those names back and skips every other file.
        let dir = tmpdir("listing");
        for name in [
            "000003.sst",
            "000007.wal",
            "MANIFEST",
            "x.wal",
            "000009.tmp",
        ] {
            fs::write(dir.join(name), b"").unwrap();
        }
        let mut files: Vec<_> = numbered_files(&dir).collect();
        files.sort_unstable_by_key(|&(_, id)| id);
        assert_eq!(files, [(FileKind::Table, 3), (FileKind::Wal, 7)]);
        assert_eq!(numbered_files(&dir.join("missing")).count(), 0);
        fs::remove_dir_all(dir).ok();
    }
}
