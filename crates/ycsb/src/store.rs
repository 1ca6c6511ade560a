//! The database interface layer — YCSB's `DB` abstract class.
//!
//! A [`KvStore`] adapts any backend (the in-process `gateway` cluster, an
//! embedded `iotkv::Db`, a mock) to the five YCSB operations. Rows are
//! field maps: ordered `(field name, value)` pairs.

use bytes::Bytes;
use std::fmt;

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

/// The YCSB database interface: implement this to benchmark a backend.
///
/// All methods take `&self`; implementations are expected to be internally
/// synchronised (the runner calls them from many threads).
pub trait KvStore: Send + Sync {
    /// Inserts a record. Inserting an existing key overwrites it.
    fn insert(&self, table: &str, key: &str, values: &FieldMap) -> StoreResult<()>;

    /// Inserts a batch of records in one backend operation. The batch is an
    /// all-or-nothing acknowledgement unit: on error the caller must assume
    /// nothing was acked. The default degrades to per-record inserts for
    /// stores without a batched path.
    fn insert_batch(&self, table: &str, items: &[(String, FieldMap)]) -> StoreResult<()> {
        for (key, values) in items {
            self.insert(table, key, values)?;
        }
        Ok(())
    }

    /// Reads a record; `fields = None` means all fields.
    fn read(&self, table: &str, key: &str, fields: Option<&[String]>) -> StoreResult<FieldMap>;

    /// Updates (merges) fields of an existing record.
    fn update(&self, table: &str, key: &str, values: &FieldMap) -> StoreResult<()>;

    /// Deletes a record.
    fn delete(&self, table: &str, key: &str) -> StoreResult<()>;

    /// Streams up to `count` records starting at `start_key` (inclusive)
    /// into `visit` in key order; `visit` returns `false` to stop early.
    /// Returns the number of records visited. This is the scan primitive:
    /// a store implements it once and the result set is never collected
    /// unless a caller asks for [`KvStore::scan`].
    fn scan_visit(
        &self,
        table: &str,
        start_key: &str,
        count: usize,
        fields: Option<&[String]>,
        visit: &mut dyn FnMut(&str, FieldMap) -> bool,
    ) -> StoreResult<u64>;

    /// Reads up to `count` records starting at `start_key` (inclusive), in
    /// key order, collected through [`KvStore::scan_visit`].
    fn scan(
        &self,
        table: &str,
        start_key: &str,
        count: usize,
        fields: Option<&[String]>,
    ) -> StoreResult<Vec<(String, FieldMap)>> {
        let mut rows = Vec::new();
        self.scan_visit(table, start_key, count, fields, &mut |key, row| {
            rows.push((key.to_string(), row));
            true
        })?;
        Ok(rows)
    }
}

/// An in-memory reference store used by tests and as the "/dev/null"-style
/// sink for driver-speed experiments (Fig 8 measures the driver with its
/// output redirected to /dev/null).
pub struct MemoryStore {
    tables: parking_lot::RwLock<
        std::collections::HashMap<String, std::collections::BTreeMap<String, FieldMap>>,
    >,
    /// When true, writes are accepted and dropped (null-sink mode).
    sink: bool,
}

impl Default for MemoryStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryStore {
    pub fn new() -> Self {
        MemoryStore {
            tables: Default::default(),
            sink: false,
        }
    }

    /// A store that acknowledges writes without retaining them.
    pub fn null_sink() -> Self {
        MemoryStore {
            tables: Default::default(),
            sink: true,
        }
    }

    pub fn row_count(&self, table: &str) -> usize {
        self.tables.read().get(table).map(|t| t.len()).unwrap_or(0)
    }
}

fn project(row: &FieldMap, fields: Option<&[String]>) -> FieldMap {
    match fields {
        None => row.clone(),
        Some(wanted) => row
            .iter()
            .filter(|(name, _)| wanted.iter().any(|w| w == name))
            .cloned()
            .collect(),
    }
}

impl KvStore for MemoryStore {
    fn insert(&self, table: &str, key: &str, values: &FieldMap) -> StoreResult<()> {
        if self.sink {
            return Ok(());
        }
        self.tables
            .write()
            .entry(table.to_string())
            .or_default()
            .insert(key.to_string(), values.clone());
        Ok(())
    }

    fn read(&self, table: &str, key: &str, fields: Option<&[String]>) -> StoreResult<FieldMap> {
        let tables = self.tables.read();
        let row = tables
            .get(table)
            .and_then(|t| t.get(key))
            .ok_or(StoreError::NotFound)?;
        Ok(project(row, fields))
    }

    fn update(&self, table: &str, key: &str, values: &FieldMap) -> StoreResult<()> {
        if self.sink {
            return Ok(());
        }
        let mut tables = self.tables.write();
        let row = tables
            .get_mut(table)
            .and_then(|t| t.get_mut(key))
            .ok_or(StoreError::NotFound)?;
        for (name, value) in values {
            match row.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = value.clone(),
                None => row.push((name.clone(), value.clone())),
            }
        }
        Ok(())
    }

    fn delete(&self, table: &str, key: &str) -> StoreResult<()> {
        if self.sink {
            return Ok(());
        }
        let mut tables = self.tables.write();
        let removed = tables.get_mut(table).and_then(|t| t.remove(key));
        removed.map(|_| ()).ok_or(StoreError::NotFound)
    }

    fn scan_visit(
        &self,
        table: &str,
        start_key: &str,
        count: usize,
        fields: Option<&[String]>,
        visit: &mut dyn FnMut(&str, FieldMap) -> bool,
    ) -> StoreResult<u64> {
        let tables = self.tables.read();
        let Some(t) = tables.get(table) else {
            return Ok(0);
        };
        let mut visited = 0u64;
        for (key, row) in t.range(start_key.to_string()..).take(count) {
            visited += 1;
            if !visit(key, project(row, fields)) {
                break;
            }
        }
        Ok(visited)
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

    #[test]
    fn crud_round_trip() {
        let s = MemoryStore::new();
        s.insert("t", "user1", &row(&[("field0", "a"), ("field1", "b")]))
            .unwrap();
        let got = s.read("t", "user1", None).unwrap();
        assert_eq!(got.len(), 2);

        s.update("t", "user1", &row(&[("field1", "B"), ("field2", "c")]))
            .unwrap();
        let got = s.read("t", "user1", None).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(
            got.iter().find(|(n, _)| n == "field1").unwrap().1.as_ref(),
            b"B"
        );

        s.delete("t", "user1").unwrap();
        assert_eq!(s.read("t", "user1", None), Err(StoreError::NotFound));
        assert_eq!(s.delete("t", "user1"), Err(StoreError::NotFound));
    }

    #[test]
    fn projection() {
        let s = MemoryStore::new();
        s.insert("t", "k", &row(&[("a", "1"), ("b", "2"), ("c", "3")]))
            .unwrap();
        let got = s.read("t", "k", Some(&["b".to_string()])).unwrap();
        assert_eq!(got, row(&[("b", "2")]));
    }

    #[test]
    fn scan_ordered_with_count() {
        let s = MemoryStore::new();
        for i in [3, 1, 4, 1, 5, 9, 2, 6] {
            s.insert("t", &format!("user{i}"), &row(&[("f", "v")]))
                .unwrap();
        }
        let rows = s.scan("t", "user2", 3, None).unwrap();
        let keys: Vec<_> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["user2", "user3", "user4"]);
        assert!(s.scan("missing", "a", 5, None).unwrap().is_empty());
    }

    #[test]
    fn scan_visit_streams_and_stops_early() {
        let s = MemoryStore::new();
        for i in 1..=5 {
            s.insert("t", &format!("user{i}"), &row(&[("f", "v")]))
                .unwrap();
        }
        let mut keys = Vec::new();
        let visited = s
            .scan_visit("t", "user2", 3, None, &mut |k, _| {
                keys.push(k.to_string());
                true
            })
            .unwrap();
        assert_eq!(visited, 3);
        assert_eq!(keys, vec!["user2", "user3", "user4"]);
        let visited = s
            .scan_visit("t", "user1", 5, None, &mut |_, _| false)
            .unwrap();
        assert_eq!(visited, 1, "visitor stopped the stream");
    }

    #[test]
    fn update_missing_is_not_found() {
        let s = MemoryStore::new();
        assert_eq!(
            s.update("t", "ghost", &row(&[("f", "v")])),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn null_sink_drops_everything() {
        let s = MemoryStore::null_sink();
        s.insert("t", "k", &row(&[("f", "v")])).unwrap();
        assert_eq!(s.row_count("t"), 0);
        assert_eq!(s.read("t", "k", None), Err(StoreError::NotFound));
    }
}
