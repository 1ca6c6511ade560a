//! Writes a sorted table file from an ordered stream of entries.

use crate::checksum::{crc32c, mask};
use crate::memtable::InternalKey;
use crate::sstable::block::{BlockBuilder, IndexBuilder};
use crate::sstable::bloom::BloomBuilder;
use crate::sstable::{BlockHandle, TABLE_MAGIC};
use crate::{Error, Result, ValueKind};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Summary of a finished table, recorded in the manifest.
#[derive(Clone, Debug)]
pub struct TableMeta {
    pub smallest: InternalKey,
    pub largest: InternalKey,
    pub entry_count: u64,
    /// How many of the entries are deletion tombstones.
    pub tombstones: u64,
    pub file_size: u64,
}

/// Streams internal-key-ordered entries into a table file.
///
/// Entries **must** be added in strictly increasing internal-key order;
/// out-of-order adds are rejected — a table with unordered entries would
/// silently corrupt every read that touches it.
pub struct TableBuilder {
    out: BufWriter<File>,
    offset: u64,
    block: BlockBuilder,
    index: IndexBuilder,
    bloom: BloomBuilder,
    block_bytes: usize,
    first_key_in_block: Option<InternalKey>,
    smallest: Option<InternalKey>,
    last: Option<InternalKey>,
    entry_count: u64,
    tombstones: u64,
}

impl TableBuilder {
    pub fn create(path: &Path, block_bytes: usize, bloom_bits_per_key: usize) -> Result<Self> {
        let file = File::create(path)?;
        Ok(TableBuilder {
            out: BufWriter::with_capacity(256 << 10, file),
            offset: 0,
            block: BlockBuilder::new(),
            index: IndexBuilder::new(),
            bloom: BloomBuilder::new(bloom_bits_per_key.max(1)),
            block_bytes,
            first_key_in_block: None,
            smallest: None,
            last: None,
            entry_count: 0,
            tombstones: 0,
        })
    }

    /// Appends one entry.
    pub fn add(&mut self, ik: &InternalKey, value: &[u8]) -> Result<()> {
        if let Some(last) = &self.last {
            if ik <= last {
                return Err(Error::invalid(format!(
                    "table entries out of order: {:?} after {:?}",
                    ik, last
                )));
            }
        }
        if self.smallest.is_none() {
            self.smallest = Some(ik.clone());
        }
        if self.first_key_in_block.is_none() {
            self.first_key_in_block = Some(ik.clone());
        }
        // Only add each user key to the bloom filter once (versions of the
        // same key arrive adjacently).
        let new_user_key = self
            .last
            .as_ref()
            .map(|l| l.user_key != ik.user_key)
            .unwrap_or(true);
        if new_user_key {
            self.bloom.add(&ik.user_key);
        }
        self.block.add(ik, value);
        self.last = Some(ik.clone());
        self.entry_count += 1;
        self.tombstones += u64::from(ik.kind == ValueKind::Delete);
        if self.block.byte_size() >= self.block_bytes {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let data = self.block.finish();
        let handle = self.write_checked_block(&data)?;
        // lint:allow(unwrap) the is_empty() early-return above guarantees
        // at least one key was added, which set `last`.
        let last = self.last.clone().expect("non-empty block has a last key");
        self.index.add(&last, handle);
        self.first_key_in_block = None;
        Ok(())
    }

    fn write_checked_block(&mut self, data: &[u8]) -> Result<BlockHandle> {
        let handle = BlockHandle {
            offset: self.offset,
            len: data.len() as u64,
        };
        self.out.write_all(data)?;
        let crc = mask(crc32c(data));
        self.out.write_all(&crc.to_le_bytes())?;
        self.offset += data.len() as u64 + 4;
        Ok(handle)
    }

    /// Number of entries added so far.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Estimated file size so far.
    pub fn estimated_size(&self) -> u64 {
        self.offset + self.block.byte_size() as u64
    }

    /// Finalises the file (filter + index + footer) and fsyncs it.
    pub fn finish(mut self) -> Result<TableMeta> {
        if self.entry_count == 0 {
            return Err(Error::invalid("cannot finish an empty table"));
        }
        self.flush_block()?;

        let filter = self.bloom.finish();
        let filter_handle = self.write_checked_block(&filter)?;

        let index = self.index.finish();
        let index_handle = self.write_checked_block(&index)?;

        let mut footer = Vec::with_capacity(40);
        crate::encoding::put_u64(&mut footer, filter_handle.offset);
        crate::encoding::put_u64(&mut footer, filter_handle.len);
        crate::encoding::put_u64(&mut footer, index_handle.offset);
        crate::encoding::put_u64(&mut footer, index_handle.len);
        crate::encoding::put_u64(&mut footer, TABLE_MAGIC);
        self.out.write_all(&footer)?;
        self.offset += footer.len() as u64;

        self.out.flush()?;
        self.out.get_ref().sync_data()?;

        Ok(TableMeta {
            // lint:allow(unwrap) finish() on an empty table is a caller
            // bug; both bounds were set by the first add().
            smallest: self.smallest.expect("non-empty table"),
            largest: self.last.expect("non-empty table"), // lint:allow(unwrap)
            entry_count: self.entry_count,
            tombstones: self.tombstones,
            file_size: self.offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueKind;
    use bytes::Bytes;

    fn ik(key: &str, seq: u64) -> InternalKey {
        InternalKey::new(Bytes::copy_from_slice(key.as_bytes()), seq, ValueKind::Put)
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("iotkv-builder-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    #[test]
    fn builds_a_table_with_metadata() {
        let path = tmpfile("meta.sst");
        let mut b = TableBuilder::create(&path, 256, 10).unwrap();
        for i in 0..100 {
            b.add(&ik(&format!("key-{i:04}"), 1000 - i), b"value")
                .unwrap();
        }
        let meta = b.finish().unwrap();
        assert_eq!(meta.entry_count, 100);
        assert_eq!(meta.smallest, ik("key-0000", 1000));
        assert_eq!(meta.largest, ik("key-0099", 901));
        assert_eq!(
            meta.file_size,
            std::fs::metadata(&path).unwrap().len(),
            "reported size matches file"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_order_entries() {
        let path = tmpfile("order.sst");
        let mut b = TableBuilder::create(&path, 256, 10).unwrap();
        b.add(&ik("b", 5), b"v").unwrap();
        assert!(b.add(&ik("a", 9), b"v").is_err());
        // Same key, HIGHER seq sorts earlier -> also out of order.
        assert!(b.add(&ik("b", 9), b"v").is_err());
        // Same key, lower seq is fine (older version).
        b.add(&ik("b", 4), b"v").unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_empty_table() {
        let path = tmpfile("empty.sst");
        let b = TableBuilder::create(&path, 256, 10).unwrap();
        assert!(b.finish().is_err());
        std::fs::remove_file(&path).ok();
    }
}
