//! Data/index block encoding and in-memory decoding.

use crate::encoding::{get_len_prefixed, get_u64, put_len_prefixed, put_u64};
use crate::memtable::InternalKey;
use crate::sstable::BlockHandle;
use crate::{Error, Result, ValueKind};
use bytes::Bytes;

/// Builds one data block: a run of internal-key-ordered entries.
#[derive(Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    pub fn new() -> BlockBuilder {
        BlockBuilder::default()
    }

    pub fn add(&mut self, ik: &InternalKey, value: &[u8]) {
        put_len_prefixed(&mut self.buf, &ik.user_key);
        put_u64(&mut self.buf, ik.seq);
        self.buf.push(ik.kind as u8);
        put_len_prefixed(&mut self.buf, value);
        self.entries += 1;
    }

    pub fn byte_size(&self) -> usize {
        self.buf.len()
    }

    pub fn entries(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    pub fn finish(&mut self) -> Vec<u8> {
        self.entries = 0;
        std::mem::take(&mut self.buf)
    }
}

/// One data block's raw, CRC-checked bytes held in memory (and shared via
/// the block cache); [`Block::entries`] decodes them.
pub struct Block {
    /// Raw block bytes.
    data: Bytes,
}

impl Block {
    pub fn new(data: impl Into<Bytes>) -> Block {
        Block { data: data.into() }
    }

    pub fn byte_size(&self) -> usize {
        self.data.len()
    }

    /// Decodes all entries (blocks are small — a few KiB).
    pub fn entries(&self) -> Result<Vec<(InternalKey, Bytes)>> {
        let mut out = Vec::new();
        let mut s: &[u8] = &self.data;
        while !s.is_empty() {
            let user_key = Bytes::copy_from_slice(get_len_prefixed(&mut s)?);
            let seq = get_u64(&mut s)?;
            if s.is_empty() {
                return Err(Error::corruption("block entry truncated at kind"));
            }
            let kind = ValueKind::from_u8(s[0])
                .ok_or_else(|| Error::corruption(format!("bad kind byte {}", s[0])))?;
            s = &s[1..];
            let value = Bytes::copy_from_slice(get_len_prefixed(&mut s)?);
            out.push((InternalKey::new(user_key, seq, kind), value));
        }
        Ok(out)
    }
}

/// Builds the index block: one `(last internal key, handle)` entry per data
/// block, in order.
#[derive(Default)]
pub struct IndexBuilder {
    buf: Vec<u8>,
}

impl IndexBuilder {
    pub fn new() -> IndexBuilder {
        IndexBuilder::default()
    }

    pub fn add(&mut self, last_key: &InternalKey, handle: BlockHandle) {
        put_len_prefixed(&mut self.buf, &last_key.user_key);
        put_u64(&mut self.buf, last_key.seq);
        self.buf.push(last_key.kind as u8);
        put_u64(&mut self.buf, handle.offset);
        put_u64(&mut self.buf, handle.len);
    }

    pub fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

/// One decoded index entry.
#[derive(Clone, Debug)]
pub struct IndexEntry {
    pub last_key: InternalKey,
    pub handle: BlockHandle,
}

/// Decodes an index block.
pub fn decode_index(data: &[u8]) -> Result<Vec<IndexEntry>> {
    let mut out = Vec::new();
    let mut s = data;
    while !s.is_empty() {
        let user_key = Bytes::copy_from_slice(get_len_prefixed(&mut s)?);
        let seq = get_u64(&mut s)?;
        if s.is_empty() {
            return Err(Error::corruption("index entry truncated"));
        }
        let kind =
            ValueKind::from_u8(s[0]).ok_or_else(|| Error::corruption("bad index kind byte"))?;
        s = &s[1..];
        let offset = get_u64(&mut s)?;
        let len = get_u64(&mut s)?;
        out.push(IndexEntry {
            last_key: InternalKey::new(user_key, seq, kind),
            handle: BlockHandle { offset, len },
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ik(key: &str, seq: u64) -> InternalKey {
        InternalKey::new(Bytes::copy_from_slice(key.as_bytes()), seq, ValueKind::Put)
    }

    #[test]
    fn block_round_trip() {
        let mut b = BlockBuilder::new();
        b.add(&ik("alpha", 9), b"v-alpha");
        b.add(&ik("beta", 3), b"");
        let del = InternalKey::new(Bytes::from_static(b"gamma"), 5, ValueKind::Delete);
        b.add(&del, b"");
        assert_eq!(b.entries(), 3);

        let data = b.finish();
        assert!(b.is_empty());
        let block = Block::new(data);
        let entries = block.entries().unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].0, ik("alpha", 9));
        assert_eq!(&entries[0].1[..], b"v-alpha");
        assert_eq!(entries[2].0.kind, ValueKind::Delete);
    }

    #[test]
    fn corrupt_block_errors() {
        let block = Block::new(vec![200u8, 1, 2]); // claims a 200-byte key
        assert!(block.entries().is_err());
    }

    #[test]
    fn index_round_trip() {
        let mut ib = IndexBuilder::new();
        ib.add(
            &ik("m", 100),
            BlockHandle {
                offset: 0,
                len: 512,
            },
        );
        ib.add(
            &ik("z", 1),
            BlockHandle {
                offset: 516,
                len: 300,
            },
        );
        let data = ib.finish();
        let idx = decode_index(&data).unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx[0].last_key, ik("m", 100));
        assert_eq!(
            idx[0].handle,
            BlockHandle {
                offset: 0,
                len: 512
            }
        );
        assert_eq!(idx[1].handle.offset, 516);
    }
}
