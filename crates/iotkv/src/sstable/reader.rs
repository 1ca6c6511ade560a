//! Reads sorted table files: point lookups (bloom-gated) and ordered
//! iteration, with block-level caching.

use crate::cache::BlockCache;
use crate::checksum::{crc32c, unmask};
use crate::memtable::InternalKey;
use crate::sstable::block::{decode_index, Block, IndexEntry};
use crate::sstable::{bloom, BlockHandle, FOOTER_LEN, TABLE_MAGIC};
use crate::{Error, Result, SeqNo, ValueKind};
use bytes::Bytes;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// An open, immutable sorted table.
pub struct Table {
    id: u64,
    file: File,
    index: Vec<IndexEntry>,
    filter: Vec<u8>,
    cache: Arc<BlockCache>,
    file_size: u64,
}

impl Table {
    /// Opens a table file, reading and validating its footer, index, and
    /// bloom filter.
    pub fn open(path: &Path, id: u64, cache: Arc<BlockCache>) -> Result<Table> {
        let file = File::open(path)?;
        let file_size = file.metadata()?.len();
        if file_size < FOOTER_LEN as u64 {
            return Err(Error::corruption("table file shorter than footer"));
        }
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer, file_size - FOOTER_LEN as u64)?;
        let mut s: &[u8] = &footer;
        let filter_handle = BlockHandle {
            offset: crate::encoding::get_u64(&mut s)?,
            len: crate::encoding::get_u64(&mut s)?,
        };
        let index_handle = BlockHandle {
            offset: crate::encoding::get_u64(&mut s)?,
            len: crate::encoding::get_u64(&mut s)?,
        };
        let magic = crate::encoding::get_u64(&mut s)?;
        if magic != TABLE_MAGIC {
            return Err(Error::corruption("bad table magic"));
        }

        let filter = read_checked(&file, filter_handle, file_size)?;
        let index_raw = read_checked(&file, index_handle, file_size)?;
        let index = decode_index(&index_raw)?;

        Ok(Table {
            id,
            file,
            index,
            filter,
            cache,
            file_size,
        })
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn file_size(&self) -> u64 {
        self.file_size
    }

    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// True if the bloom filter admits `user_key`.
    pub fn may_contain(&self, user_key: &[u8]) -> bool {
        bloom::may_contain(&self.filter, user_key)
    }

    fn load_block(&self, handle: BlockHandle) -> Result<Arc<Block>> {
        let key = (self.id, handle.offset);
        if let Some(b) = self.cache.get(&key) {
            return Ok(b);
        }
        let raw = read_checked(&self.file, handle, self.file_size)?;
        let block = Arc::new(Block::new(raw));
        self.cache.insert(key, Arc::clone(&block));
        Ok(block)
    }

    /// Index position of the first block whose last key is >= `target`.
    fn block_for(&self, target: &InternalKey) -> Option<usize> {
        let pos = self.index.partition_point(|e| &e.last_key < target);
        (pos < self.index.len()).then_some(pos)
    }

    /// Point lookup: newest version of `user_key` visible at
    /// `snapshot_seq`. Same tri-state contract as
    /// [`crate::memtable::MemTable::get`].
    pub fn get(&self, user_key: &[u8], snapshot_seq: SeqNo) -> Result<Option<Option<Bytes>>> {
        if !self.may_contain(user_key) {
            return Ok(None);
        }
        let target = InternalKey::seek_bound(Bytes::copy_from_slice(user_key), snapshot_seq);
        let Some(mut block_idx) = self.block_for(&target) else {
            return Ok(None);
        };
        // The match may start in this block; versions of one key can span
        // into the next block.
        while block_idx < self.index.len() {
            let block = self.load_block(self.index[block_idx].handle)?;
            for (ik, v) in block.entries()? {
                if ik.user_key.as_ref() > user_key {
                    return Ok(None);
                }
                if ik.user_key.as_ref() == user_key && ik.seq <= snapshot_seq {
                    return Ok(Some(match ik.kind {
                        ValueKind::Put => Some(v),
                        ValueKind::Delete => None,
                    }));
                }
            }
            block_idx += 1;
        }
        Ok(None)
    }

    /// Creates an iterator positioned before the first entry.
    pub fn iter(self: &Arc<Self>) -> TableIterator {
        TableIterator {
            table: Arc::clone(self),
            block_idx: 0,
            entries: Vec::new(),
            pos: 0,
            error: None,
        }
    }
}

/// Reads a block and verifies its trailing masked CRC.
fn read_checked(file: &File, handle: BlockHandle, file_size: u64) -> Result<Vec<u8>> {
    // The footer carries no CRC, so a handle can hold any value.
    let end = handle
        .len
        .checked_add(4)
        .and_then(|framed| handle.offset.checked_add(framed))
        .ok_or_else(|| Error::corruption("block handle overflow"))?;
    if end > file_size {
        return Err(Error::corruption("block handle beyond end of file"));
    }
    let mut buf = vec![0u8; handle.len as usize + 4];
    file.read_exact_at(&mut buf, handle.offset)?;
    let (data, crc_bytes) = buf.split_at(handle.len as usize);
    // lint:allow(unwrap) fixed-width try_into of a length-checked slice
    // (split_at leaves exactly the 4 trailer bytes).
    let stored = unmask(u32::from_le_bytes(crc_bytes.try_into().unwrap()));
    if crc32c(data) != stored {
        return Err(Error::corruption(format!(
            "block at offset {} failed CRC",
            handle.offset
        )));
    }
    buf.truncate(handle.len as usize);
    Ok(buf)
}

/// Ordered iterator over a table's entries.
///
/// I/O errors encountered while loading blocks are surfaced through
/// [`TableIterator::take_error`]; iteration stops at the first error.
pub struct TableIterator {
    table: Arc<Table>,
    block_idx: usize,
    entries: Vec<(InternalKey, Bytes)>,
    pos: usize,
    error: Option<Error>,
}

impl TableIterator {
    /// Positions the iterator at the first entry `>= target`.
    pub fn seek(&mut self, target: &InternalKey) {
        self.entries.clear();
        self.pos = 0;
        match self.table.block_for(target) {
            Some(idx) => {
                self.block_idx = idx;
                if let Err(e) = self.fill() {
                    self.error = Some(e);
                    return;
                }
                // Advance within the block to the first entry >= target.
                while self.pos < self.entries.len() && &self.entries[self.pos].0 < target {
                    self.pos += 1;
                }
                // partition_point guarantees the target is <= this block's
                // last key, so pos is always in range here.
            }
            None => {
                self.block_idx = self.table.index.len();
            }
        }
    }

    fn fill(&mut self) -> Result<()> {
        self.entries = self
            .table
            .load_block(self.table.index[self.block_idx].handle)?
            .entries()?;
        self.pos = 0;
        Ok(())
    }

    /// Returns and clears any deferred error.
    pub fn take_error(&mut self) -> Option<Error> {
        self.error.take()
    }
}

impl Iterator for TableIterator {
    type Item = (InternalKey, Bytes);

    fn next(&mut self) -> Option<Self::Item> {
        if self.error.is_some() {
            return None;
        }
        loop {
            if self.pos < self.entries.len() {
                let item = self.entries[self.pos].clone();
                self.pos += 1;
                return Some(item);
            }
            if self.entries.is_empty() && self.block_idx < self.table.index.len() {
                // First use: load current block.
            } else {
                self.block_idx += 1;
            }
            if self.block_idx >= self.table.index.len() {
                return None;
            }
            if let Err(e) = self.fill() {
                self.error = Some(e);
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::TableBuilder;

    fn ik(key: &str, seq: u64) -> InternalKey {
        InternalKey::new(Bytes::copy_from_slice(key.as_bytes()), seq, ValueKind::Put)
    }

    fn build_table(name: &str, n: usize) -> (std::path::PathBuf, Arc<Table>) {
        let dir = std::env::temp_dir().join(format!("iotkv-reader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut b = TableBuilder::create(&path, 256, 10).unwrap();
        for i in 0..n {
            b.add(
                &ik(&format!("key-{i:05}"), 100),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
        }
        b.finish().unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let table = Arc::new(Table::open(&path, 1, cache).unwrap());
        (path, table)
    }

    #[test]
    fn point_lookups() {
        let (path, table) = build_table("point.sst", 1000);
        assert!(table.block_count() > 1, "multi-block table");
        for i in [0usize, 1, 499, 998, 999] {
            let got = table.get(format!("key-{i:05}").as_bytes(), 200).unwrap();
            assert_eq!(
                got.unwrap().unwrap(),
                Bytes::from(format!("value-{i}")),
                "key {i}"
            );
        }
        // Absent keys.
        assert_eq!(table.get(b"key-99999", 200).unwrap(), None);
        assert_eq!(table.get(b"aaa", 200).unwrap(), None);
        // Snapshot below write seq: invisible.
        assert_eq!(table.get(b"key-00000", 50).unwrap(), None);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn full_scan_in_order() {
        let (path, table) = build_table("scan.sst", 500);
        let entries: Vec<_> = table.iter().collect();
        assert_eq!(entries.len(), 500);
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0, "entries ordered");
        }
        assert_eq!(entries[0].0, ik("key-00000", 100));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn seek_positions_correctly() {
        let (path, table) = build_table("seek.sst", 500);
        let mut it = table.iter();
        it.seek(&InternalKey::seek_bound(
            Bytes::from_static(b"key-00250"),
            u64::MAX,
        ));
        let first = it.next().unwrap();
        assert_eq!(first.0.user_key.as_ref(), b"key-00250");
        // Seek past the end.
        let mut it = table.iter();
        it.seek(&ik("zzz", 0));
        assert!(it.next().is_none());
        // Seek before the beginning.
        let mut it = table.iter();
        it.seek(&InternalKey::seek_bound(Bytes::from_static(b"a"), u64::MAX));
        assert_eq!(it.next().unwrap().0.user_key.as_ref(), b"key-00000");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tombstones_read_back_as_deletes() {
        let dir = std::env::temp_dir().join(format!("iotkv-reader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tomb.sst");
        let mut b = TableBuilder::create(&path, 256, 10).unwrap();
        b.add(&ik("a", 5), b"va").unwrap();
        b.add(
            &InternalKey::new(Bytes::from_static(b"b"), 7, ValueKind::Delete),
            b"",
        )
        .unwrap();
        b.finish().unwrap();
        let table = Arc::new(Table::open(&path, 2, Arc::new(BlockCache::new(0))).unwrap());
        assert_eq!(table.get(b"b", 100).unwrap(), Some(None));
        assert_eq!(
            table.get(b"a", 100).unwrap().unwrap().unwrap().as_ref(),
            b"va"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_file_detected() {
        let (path, table) = build_table("corrupt.sst", 200);
        drop(table);
        let mut data = std::fs::read(&path).unwrap();
        data[40] ^= 0x55; // flip a data-block byte
        std::fs::write(&path, &data).unwrap();
        let table = Arc::new(
            Table::open(&path, 3, Arc::new(BlockCache::new(0))).unwrap(), // index/footer ok
        );
        let err = table.get(b"key-00000", 100);
        assert!(matches!(err, Err(Error::Corruption(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_magic_rejected_at_open() {
        let (path, table) = build_table("magic.sst", 10);
        drop(table);
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            Table::open(&path, 4, Arc::new(BlockCache::new(0))),
            Err(Error::Corruption(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn huge_footer_handle_is_corruption_not_a_panic() {
        let (path, table) = build_table("huge-handle.sst", 10);
        drop(table);
        let mut data = std::fs::read(&path).unwrap();
        // Footer: filter (offset, len), index (offset, len), magic; the
        // magic stays intact, the index length wraps `len + 4`.
        let index_len = data.len() - FOOTER_LEN + 24;
        data[index_len..index_len + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            Table::open(&path, 5, Arc::new(BlockCache::new(0))),
            Err(Error::Corruption(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let (path, table) = build_table("cache.sst", 1000);
        let cache = Arc::clone(&table.cache);
        let miss0 = cache.miss_count();
        table.get(b"key-00500", 200).unwrap().unwrap();
        table.get(b"key-00500", 200).unwrap().unwrap();
        assert!(cache.hit_count() > 0, "second read hits cache");
        assert!(cache.miss_count() > miss0);
        std::fs::remove_file(path).ok();
    }
}
