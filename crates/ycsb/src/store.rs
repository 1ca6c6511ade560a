//! The database interface layer — YCSB's `DB` abstract class, split in
//! two.
//!
//! A backend implements [`KvStore`]: an ordered byte store with a point
//! write, a point read and a visitor scan. YCSB's row model is written
//! once, over those three methods, as the inherent methods of
//! `dyn KvStore`: a `(table, key)` pair becomes the storage key
//! `"<escaped table>/<key>"`, and a row — ordered `(field name, value)`
//! pairs — becomes one value of varint-length-prefixed pairs.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// One row: ordered field/value pairs (YCSB's `HashMap<String, ByteIterator>`).
pub type FieldMap = Vec<(String, Bytes)>;

/// Operation outcome.
pub type StoreResult<T> = Result<T, StoreError>;

/// Errors the interface layer can surface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The requested record does not exist.
    NotFound,
    /// The backend failed; message is backend-specific.
    Backend(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound => write!(f, "record not found"),
            StoreError::Backend(msg) => write!(f, "backend error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The ordered byte store a backend implements to run YCSB.
///
/// All methods take `&self`; implementations are expected to be internally
/// synchronised (the runner calls them from many threads).
pub trait KvStore: Send + Sync {
    /// Writes `value` under `key`, replacing any previous value.
    fn put(&self, key: &[u8], value: &[u8]) -> StoreResult<()>;

    /// The value under `key`, if there is one.
    fn get(&self, key: &[u8]) -> StoreResult<Option<Bytes>>;

    /// Streams the entries of `[start, end)` into `visit` in key order
    /// until `visit` returns `false`.
    fn scan_range(
        &self,
        start: &[u8],
        end: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> StoreResult<()>;
}

/// YCSB's row operations, the same for every backend.
impl dyn KvStore + '_ {
    /// Inserts a record. Inserting an existing key overwrites it.
    pub fn insert(&self, table: &str, key: &str, values: &FieldMap) -> StoreResult<()> {
        self.put(&row_key(table, key), &encode_fields(values))
    }

    /// Reads every field of a record.
    pub fn read(&self, table: &str, key: &str) -> StoreResult<FieldMap> {
        let value = self
            .get(&row_key(table, key))?
            .ok_or(StoreError::NotFound)?;
        decode_fields(&value).ok_or_else(undecodable)
    }

    /// Merges `values` into an existing record: read, merge, write back
    /// (HBase mutates columns in place; a byte store models that as a
    /// fresh put of the merged row).
    pub fn update(&self, table: &str, key: &str, values: &FieldMap) -> StoreResult<()> {
        let mut row = self.read(table, key)?;
        for (name, value) in values {
            match row.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = value.clone(),
                None => row.push((name.clone(), value.clone())),
            }
        }
        self.insert(table, key, &row)
    }

    /// Streams up to `count` records of `table`, starting at `start_key`
    /// (inclusive), into `visit` in key order; `visit` returns `false` to
    /// stop early. Returns the number of records visited.
    pub fn scan(
        &self,
        table: &str,
        start_key: &str,
        count: usize,
        visit: &mut dyn FnMut(&str, FieldMap) -> bool,
    ) -> StoreResult<u64> {
        if count == 0 {
            return Ok(0);
        }
        let mut end = escape_table(table);
        let prefix_len = end.len() + 1;
        end.push(b'/' + 1); // the first key after the table's key space
        let mut visited = 0u64;
        let mut undecodable_row = false;
        self.scan_range(&row_key(table, start_key), &end, &mut |k, v| {
            let key = k
                .get(prefix_len..)
                .and_then(|k| std::str::from_utf8(k).ok());
            let Some((key, row)) = key.zip(decode_fields(v)) else {
                undecodable_row = true;
                return false;
            };
            visited += 1;
            visit(key, row) && visited < count as u64
        })?;
        if undecodable_row {
            return Err(undecodable());
        }
        Ok(visited)
    }
}

fn undecodable() -> StoreError {
    StoreError::Backend("undecodable row".into())
}

fn row_key(table: &str, key: &str) -> Vec<u8> {
    let mut k = escape_table(table);
    k.reserve(key.len() + 1);
    k.push(b'/');
    k.extend_from_slice(key.as_bytes());
    k
}

/// Escapes the table name so a `/` inside it cannot collide with the
/// table/key separator (table `"t/x"` + key `"a"` vs table `"t"` + key
/// `"x/a"`): `%` → `%p`, `/` → `%s`. Row keys need no escaping — every
/// byte after the first unescaped separator belongs to the key.
fn escape_table(table: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(table.len() + 2);
    for &b in table.as_bytes() {
        match b {
            b'%' => out.extend_from_slice(b"%p"),
            b'/' => out.extend_from_slice(b"%s"),
            _ => out.push(b),
        }
    }
    out
}

fn put_varint(dst: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        dst.push((v as u8) | 0x80);
        v >>= 7;
    }
    dst.push(v as u8);
}

fn get_varint(src: &mut &[u8]) -> Option<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in src.iter().enumerate() {
        result |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            *src = &src[i + 1..];
            return Some(result);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
    None
}

/// Serialises a field map into a single storage value.
fn encode_fields(fields: &FieldMap) -> Vec<u8> {
    let mut out = Vec::with_capacity(fields.iter().map(|(n, v)| n.len() + v.len() + 4).sum());
    for (name, value) in fields {
        put_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        put_varint(&mut out, value.len() as u64);
        out.extend_from_slice(value);
    }
    out
}

/// Deserialises a storage value into a field map.
fn decode_fields(mut data: &[u8]) -> Option<FieldMap> {
    let mut out = Vec::new();
    while !data.is_empty() {
        let name_len = get_varint(&mut data)? as usize;
        if data.len() < name_len {
            return None;
        }
        let (name, rest) = data.split_at(name_len);
        data = rest;
        let value_len = get_varint(&mut data)? as usize;
        if data.len() < value_len {
            return None;
        }
        let (value, rest) = data.split_at(value_len);
        data = rest;
        out.push((
            String::from_utf8(name.to_vec()).ok()?,
            Bytes::copy_from_slice(value),
        ));
    }
    Some(out)
}

/// An in-memory sorted byte map: the reference backend tests run YCSB on.
#[derive(Default)]
pub struct MemoryStore {
    entries: parking_lot::RwLock<BTreeMap<Vec<u8>, Bytes>>,
}

impl MemoryStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of records in `table`.
    pub fn row_count(&self, table: &str) -> usize {
        let store: &dyn KvStore = self;
        let rows = store.scan(table, "", usize::MAX, &mut |_, _| true);
        rows.map_or(0, |n| n as usize)
    }
}

impl KvStore for MemoryStore {
    fn put(&self, key: &[u8], value: &[u8]) -> StoreResult<()> {
        let value = Bytes::copy_from_slice(value);
        self.entries.write().insert(key.to_vec(), value);
        Ok(())
    }

    fn get(&self, key: &[u8]) -> StoreResult<Option<Bytes>> {
        Ok(self.entries.read().get(key).cloned())
    }

    fn scan_range(
        &self,
        start: &[u8],
        end: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> StoreResult<()> {
        if start < end {
            let entries = self.entries.read();
            let range = (Bound::Included(start), Bound::Excluded(end));
            for (k, v) in entries.range::<[u8], _>(range) {
                if !visit(k, v) {
                    break;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pairs: &[(&str, &str)]) -> FieldMap {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Bytes::copy_from_slice(v.as_bytes())))
            .collect()
    }

    /// The keys of a scan of `table` from `start`, up to `count` rows.
    fn scan_keys(s: &dyn KvStore, table: &str, start: &str, count: usize) -> Vec<String> {
        let mut keys = Vec::new();
        s.scan(table, start, count, &mut |k, _| {
            keys.push(k.to_string());
            true
        })
        .unwrap();
        keys
    }

    #[test]
    fn crud_round_trip() {
        let s: &dyn KvStore = &MemoryStore::new();
        s.insert("t", "user1", &row(&[("field0", "a"), ("field1", "b")]))
            .unwrap();
        let got = s.read("t", "user1").unwrap();
        assert_eq!(got, row(&[("field0", "a"), ("field1", "b")]));

        s.update("t", "user1", &row(&[("field1", "B"), ("field2", "c")]))
            .unwrap();
        let got = s.read("t", "user1").unwrap();
        assert_eq!(
            got,
            row(&[("field0", "a"), ("field1", "B"), ("field2", "c")])
        );
        assert_eq!(s.read("t", "ghost"), Err(StoreError::NotFound));
    }

    #[test]
    fn field_codec_round_trip() {
        let fields = row(&[("field0", "hello"), ("field1", ""), ("長い名前", "値")]);
        let encoded = encode_fields(&fields);
        assert_eq!(decode_fields(&encoded).unwrap(), fields);
        assert_eq!(decode_fields(&[]).unwrap(), Vec::new());
        assert!(decode_fields(&[5, b'a']).is_none(), "truncated");
    }

    #[test]
    fn undecodable_row_is_a_backend_error() {
        let s: &dyn KvStore = &MemoryStore::new();
        s.put(b"t/k", &[5, b'a']).unwrap();
        assert_eq!(s.read("t", "k"), Err(undecodable()));
        assert_eq!(s.scan("t", "", 10, &mut |_, _| true), Err(undecodable()));
    }

    #[test]
    fn scan_ordered_with_count() {
        let store = MemoryStore::new();
        let s: &dyn KvStore = &store;
        for i in [3, 1, 4, 1, 5, 9, 2, 6] {
            s.insert("t", &format!("user{i}"), &row(&[("f", "v")]))
                .unwrap();
        }
        assert_eq!(scan_keys(s, "t", "user2", 3), ["user2", "user3", "user4"]);
        assert!(scan_keys(s, "missing", "a", 5).is_empty());
        assert!(scan_keys(s, "t", "user1", 0).is_empty());
        assert_eq!(store.row_count("t"), 7);
    }

    #[test]
    fn scan_visit_streams_and_stops_early() {
        let s: &dyn KvStore = &MemoryStore::new();
        for i in 1..=5 {
            s.insert("t", &format!("user{i}"), &row(&[("f", "v")]))
                .unwrap();
        }
        let mut keys = Vec::new();
        let visited = s
            .scan("t", "user2", 3, &mut |k, r| {
                keys.push(k.to_string());
                assert_eq!(r, row(&[("f", "v")]));
                true
            })
            .unwrap();
        assert_eq!(visited, 3);
        assert_eq!(keys, ["user2", "user3", "user4"]);
        let visited = s.scan("t", "user1", 5, &mut |_, _| false).unwrap();
        assert_eq!(visited, 1, "visitor stopped the stream");
    }

    #[test]
    fn scan_stays_within_table() {
        let s: &dyn KvStore = &MemoryStore::new();
        for i in 0..10 {
            s.insert("t1", &format!("k{i}"), &row(&[("f", "v")]))
                .unwrap();
        }
        s.insert("t2", "k0", &row(&[("f", "other-table")])).unwrap();
        assert_eq!(scan_keys(s, "t1", "k3", 4), ["k3", "k4", "k5", "k6"]);
        // Scanning past the end of t1 must not leak into t2.
        assert_eq!(scan_keys(s, "t1", "k8", 100), ["k8", "k9"]);
    }

    #[test]
    fn slash_in_table_name_does_not_collide() {
        // Regression: table "t/x" + key "a" used to map to the same
        // storage key as table "t" + key "x/a".
        let s: &dyn KvStore = &MemoryStore::new();
        s.insert("t", "x/a", &row(&[("f", "outer")])).unwrap();
        s.insert("t/x", "a", &row(&[("f", "inner")])).unwrap();
        assert_eq!(s.read("t", "x/a").unwrap(), row(&[("f", "outer")]));
        assert_eq!(s.read("t/x", "a").unwrap(), row(&[("f", "inner")]));

        // Scans stay within their own table despite the shared prefix.
        assert_eq!(scan_keys(s, "t/x", "", 100), ["a"]);
        assert_eq!(scan_keys(s, "t", "", 100), ["x/a"]);

        // Updating one must not touch the other.
        s.update("t/x", "a", &row(&[("f", "changed")])).unwrap();
        assert_eq!(s.read("t", "x/a").unwrap(), row(&[("f", "outer")]));

        // Escape characters themselves survive the round trip.
        s.insert("p%s", "k", &row(&[("f", "pct")])).unwrap();
        assert_eq!(s.read("p%s", "k").unwrap(), row(&[("f", "pct")]));
    }

    #[test]
    fn update_missing_is_not_found() {
        let s: &dyn KvStore = &MemoryStore::new();
        assert_eq!(
            s.update("t", "ghost", &row(&[("f", "v")])),
            Err(StoreError::NotFound)
        );
    }
}
