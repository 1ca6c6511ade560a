//! Atomic write batches.
//!
//! A [`WriteBatch`] is the unit of both WAL framing and group commit: the
//! commit pipeline concatenates the batches of queued writers into one log
//! record, so batch encoding must be self-delimiting and replayable.
//!
//! Wire format (also the WAL payload format):
//!
//! ```text
//! seq:   u64   sequence number of the first operation
//! count: u32   number of operations
//! ops:   count × ( kind:u8, key:len-prefixed, [value:len-prefixed if Put] )
//! ```

use crate::encoding::{get_len_prefixed, get_u32, get_u64, put_len_prefixed, put_u32, put_u64};
use crate::{Error, Result, SeqNo, ValueKind};

const HEADER_LEN: usize = 12;

/// An ordered set of operations applied atomically.
#[derive(Clone, Debug)]
pub struct WriteBatch {
    buf: Vec<u8>,
    count: u32,
}

/// The same empty batch as [`WriteBatch::new`], header included.
impl Default for WriteBatch {
    fn default() -> WriteBatch {
        WriteBatch::new()
    }
}

impl WriteBatch {
    pub fn new() -> WriteBatch {
        let mut buf = Vec::with_capacity(64);
        put_u64(&mut buf, 0);
        put_u32(&mut buf, 0);
        WriteBatch { buf, count: 0 }
    }

    /// Queues an insert/overwrite of `key`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.buf.push(ValueKind::Put as u8);
        put_len_prefixed(&mut self.buf, key);
        put_len_prefixed(&mut self.buf, value);
        self.count += 1;
    }

    /// Queues a deletion of `key`.
    pub fn delete(&mut self, key: &[u8]) {
        self.buf.push(ValueKind::Delete as u8);
        put_len_prefixed(&mut self.buf, key);
        self.count += 1;
    }

    pub fn len(&self) -> usize {
        self.count as usize
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Approximate in-memory/encoded size in bytes.
    pub fn byte_size(&self) -> usize {
        self.buf.len()
    }

    pub fn clear(&mut self) {
        self.buf.truncate(HEADER_LEN);
        self.buf[..HEADER_LEN].fill(0);
        self.count = 0;
    }

    /// Stamps the starting sequence number and finalises the header.
    pub(crate) fn set_seq(&mut self, seq: SeqNo) {
        self.buf[0..8].copy_from_slice(&seq.to_le_bytes());
        self.buf[8..12].copy_from_slice(&self.count.to_le_bytes());
    }

    /// The stamped starting sequence number (zero until
    /// [`WriteBatch::set_seq`] runs).
    pub fn seq(&self) -> SeqNo {
        // lint:allow(unwrap) fixed-width try_into of a length-checked slice
        u64::from_le_bytes(self.buf[0..8].try_into().unwrap())
    }

    /// The encoded representation (header must have been stamped).
    pub(crate) fn encoded(&self) -> &[u8] {
        &self.buf
    }

    /// Appends the operations of `other` to this batch (useful for merging
    /// per-thread batches before a single commit).
    pub fn absorb(&mut self, other: &WriteBatch) {
        self.buf.extend_from_slice(&other.buf[HEADER_LEN..]);
        self.count += other.count;
    }

    /// Decodes an encoded batch, yielding `(seq, iterator of ops)`.
    pub(crate) fn decode(data: &[u8]) -> Result<(SeqNo, BatchIter<'_>)> {
        let mut s = data;
        let seq = get_u64(&mut s)?;
        let count = get_u32(&mut s)?;
        Ok((
            seq,
            BatchIter {
                rest: s,
                remaining: count,
                seq,
            },
        ))
    }
}

/// One decoded operation from a batch. `key` and `value` borrow the
/// encoded buffer, so decoding copies nothing; `value` is empty for a
/// deletion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchOp<'a> {
    pub seq: SeqNo,
    pub kind: ValueKind,
    pub key: &'a [u8],
    pub value: &'a [u8],
}

/// Iterator over the operations of an encoded batch. Each operation gets
/// `seq + position` as its sequence number.
pub struct BatchIter<'a> {
    rest: &'a [u8],
    remaining: u32,
    seq: SeqNo,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = Result<BatchOp<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return if self.rest.is_empty() {
                None
            } else {
                Some(Err(Error::corruption("trailing bytes after batch ops")))
            };
        }
        self.remaining -= 1;
        Some(self.decode_one())
    }
}

impl<'a> BatchIter<'a> {
    fn decode_one(&mut self) -> Result<BatchOp<'a>> {
        let s = &mut self.rest;
        if s.is_empty() {
            return Err(Error::corruption("batch shorter than declared count"));
        }
        let kind = ValueKind::from_u8(s[0])
            .ok_or_else(|| Error::corruption(format!("bad op kind {}", s[0])))?;
        *s = &s[1..];
        let key = get_len_prefixed(s)?;
        let value = match kind {
            ValueKind::Put => get_len_prefixed(s)?,
            ValueKind::Delete => &[],
        };
        let seq = self.seq;
        self.seq += 1;
        Ok(BatchOp {
            seq,
            kind,
            key,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut b = WriteBatch::new();
        b.put(b"k1", b"v1");
        b.delete(b"k2");
        b.put(b"", b""); // empty key/value are representable at this layer
        b.set_seq(100);
        assert_eq!(b.len(), 3);

        let (seq, ops) = WriteBatch::decode(b.encoded()).unwrap();
        assert_eq!(seq, 100);
        let ops: Vec<_> = ops.map(|r| r.unwrap()).collect();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].seq, 100);
        assert_eq!(ops[0].kind, ValueKind::Put);
        assert_eq!(ops[0].key, b"k1");
        assert_eq!(ops[0].value, b"v1");
        assert_eq!(ops[1].seq, 101);
        assert_eq!(ops[1].kind, ValueKind::Delete);
        assert_eq!(ops[2].seq, 102);
    }

    #[test]
    fn absorb_merges_ops() {
        let mut a = WriteBatch::new();
        a.put(b"a", b"1");
        let mut b = WriteBatch::new();
        b.put(b"b", b"2");
        b.delete(b"c");
        a.absorb(&b);
        a.set_seq(7);
        let (_, ops) = WriteBatch::decode(a.encoded()).unwrap();
        let keys: Vec<_> = ops.map(|r| r.unwrap().key).collect();
        assert_eq!(keys, vec![&b"a"[..], &b"b"[..], &b"c"[..]]);
    }

    #[test]
    fn clear_resets() {
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.clear();
        assert!(b.is_empty());
        b.put(b"x", b"y");
        b.set_seq(1);
        let (_, ops) = WriteBatch::decode(b.encoded()).unwrap();
        assert_eq!(ops.count(), 1);
    }

    #[test]
    fn corrupt_batches_error() {
        // Declared one more op than present.
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.count = 2;
        b.set_seq(0);
        let (_, ops) = WriteBatch::decode(b.encoded()).unwrap();
        let results: Vec<_> = ops.collect();
        assert!(results.iter().any(|r| r.is_err()));

        // Bad kind byte.
        let mut raw = Vec::new();
        crate::encoding::put_u64(&mut raw, 0);
        crate::encoding::put_u32(&mut raw, 1);
        raw.push(9); // invalid kind
        let (_, mut ops) = WriteBatch::decode(&raw).unwrap();
        assert!(ops.next().unwrap().is_err());
    }
}
