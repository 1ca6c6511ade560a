//! Adapts the cluster to the YCSB database interface layer, so the classic
//! core workloads and the TPCx-IoT driver both run against the gateway.
//!
//! Row mapping: YCSB's `(table, key)` becomes the storage key
//! `"<table>/<key>"`; the field map is serialised into the value with
//! varint-length-prefixed `(name, value)` pairs.

use crate::cluster::Cluster;
use bytes::Bytes;
use std::sync::Arc;
use ycsb::store::{FieldMap, KvStore, StoreError, StoreResult};

/// YCSB adapter over a shared [`Cluster`].
pub struct GatewayKvStore {
    cluster: Arc<Cluster>,
}

impl GatewayKvStore {
    pub fn new(cluster: Arc<Cluster>) -> GatewayKvStore {
        GatewayKvStore { cluster }
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    fn storage_key(table: &str, key: &str) -> Vec<u8> {
        let mut k = escape_table(table);
        k.reserve(key.len() + 1);
        k.push(b'/');
        k.extend_from_slice(key.as_bytes());
        k
    }
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
pub fn encode_fields(fields: &FieldMap) -> Vec<u8> {
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
pub fn decode_fields(mut data: &[u8]) -> Option<FieldMap> {
    let mut out = Vec::new();
    while !data.is_empty() {
        let name_len = get_varint(&mut data)? as usize;
        if data.len() < name_len {
            return None;
        }
        // lint:allow(region-map) slice::split_at on the wire format, not RegionMap
        let (name, rest) = data.split_at(name_len);
        data = rest;
        let value_len = get_varint(&mut data)? as usize;
        if data.len() < value_len {
            return None;
        }
        // lint:allow(region-map) slice::split_at on the wire format, not RegionMap
        let (value, rest) = data.split_at(value_len);
        data = rest;
        out.push((
            String::from_utf8(name.to_vec()).ok()?,
            Bytes::copy_from_slice(value),
        ));
    }
    Some(out)
}

fn project(row: FieldMap, fields: Option<&[String]>) -> FieldMap {
    match fields {
        None => row,
        Some(wanted) => row
            .into_iter()
            .filter(|(name, _)| wanted.iter().any(|w| w == name))
            .collect(),
    }
}

fn backend(e: crate::GatewayError) -> StoreError {
    StoreError::Backend(e.to_string())
}

impl KvStore for GatewayKvStore {
    fn insert(&self, table: &str, key: &str, values: &FieldMap) -> StoreResult<()> {
        let k = Self::storage_key(table, key);
        self.cluster
            .put(&k, &encode_fields(values))
            .map_err(backend)
    }

    fn insert_batch(&self, table: &str, items: &[(String, FieldMap)]) -> StoreResult<()> {
        let kvps: Vec<(Bytes, Bytes)> = items
            .iter()
            .map(|(key, values)| {
                (
                    Bytes::from(Self::storage_key(table, key)),
                    Bytes::from(encode_fields(values)),
                )
            })
            .collect();
        self.cluster.put_batch(&kvps).map_err(backend)
    }

    fn read(&self, table: &str, key: &str, fields: Option<&[String]>) -> StoreResult<FieldMap> {
        let k = Self::storage_key(table, key);
        let value = self
            .cluster
            .get(&k)
            .map_err(backend)?
            .ok_or(StoreError::NotFound)?;
        let row =
            decode_fields(&value).ok_or_else(|| StoreError::Backend("undecodable row".into()))?;
        Ok(project(row, fields))
    }

    fn update(&self, table: &str, key: &str, values: &FieldMap) -> StoreResult<()> {
        // Read-merge-write (HBase mutates columns in place; an LSM models
        // that as a fresh versioned put of the merged row).
        let mut row = self.read(table, key, None)?;
        for (name, value) in values {
            match row.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = value.clone(),
                None => row.push((name.clone(), value.clone())),
            }
        }
        let k = Self::storage_key(table, key);
        self.cluster.put(&k, &encode_fields(&row)).map_err(backend)
    }

    fn delete(&self, table: &str, key: &str) -> StoreResult<()> {
        let k = Self::storage_key(table, key);
        // Match MemoryStore semantics: deleting a missing row is NotFound.
        if self.cluster.get(&k).map_err(backend)?.is_none() {
            return Err(StoreError::NotFound);
        }
        self.cluster.delete(&k).map_err(backend)
    }

    fn scan_visit(
        &self,
        table: &str,
        start_key: &str,
        count: usize,
        fields: Option<&[String]>,
        visit: &mut dyn FnMut(&str, FieldMap) -> bool,
    ) -> StoreResult<u64> {
        let lo = Self::storage_key(table, start_key);
        let mut hi = escape_table(table);
        let prefix_len = hi.len() + 1;
        hi.push(b'/' + 1); // first key after the table's prefix space
        let mut visited = 0u64;
        let mut decode_err = None;
        for item in self.cluster.scan_stream(&lo, &hi) {
            if visited >= count as u64 {
                break;
            }
            let (k, v) = item.map_err(backend)?;
            let Ok(key) = std::str::from_utf8(&k[prefix_len..]) else {
                decode_err = Some(StoreError::Backend("non-utf8 key".into()));
                break;
            };
            let Some(row) = decode_fields(&v) else {
                decode_err = Some(StoreError::Backend("undecodable row".into()));
                break;
            };
            visited += 1;
            if !visit(key, project(row, fields)) {
                break;
            }
        }
        match decode_err {
            Some(e) => Err(e),
            None => Ok(visited),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use iotkv::Options;

    fn store(name: &str) -> (GatewayKvStore, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("gateway-adapter-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = ClusterConfig::new(&dir, 2);
        config.storage = Options::small();
        let cluster = Arc::new(Cluster::start(config).unwrap());
        (GatewayKvStore::new(cluster), dir)
    }

    fn row(pairs: &[(&str, &str)]) -> FieldMap {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Bytes::copy_from_slice(v.as_bytes())))
            .collect()
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
    fn ycsb_operations_against_cluster() {
        let (s, dir) = store("ops");
        s.insert("usertable", "user5", &row(&[("field0", "x")]))
            .unwrap();
        let got = s.read("usertable", "user5", None).unwrap();
        assert_eq!(got, row(&[("field0", "x")]));

        s.update("usertable", "user5", &row(&[("field1", "y")]))
            .unwrap();
        let got = s.read("usertable", "user5", None).unwrap();
        assert_eq!(got.len(), 2);

        let got = s
            .read("usertable", "user5", Some(&["field1".to_string()]))
            .unwrap();
        assert_eq!(got, row(&[("field1", "y")]));

        assert_eq!(
            s.read("usertable", "ghost", None),
            Err(StoreError::NotFound)
        );
        assert_eq!(s.delete("usertable", "ghost"), Err(StoreError::NotFound));
        s.delete("usertable", "user5").unwrap();
        assert_eq!(
            s.read("usertable", "user5", None),
            Err(StoreError::NotFound)
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_stays_within_table() {
        let (s, dir) = store("scan");
        for i in 0..10 {
            s.insert("t1", &format!("k{i}"), &row(&[("f", "v")]))
                .unwrap();
        }
        s.insert("t2", "k0", &row(&[("f", "other-table")])).unwrap();
        let rows = s.scan("t1", "k3", 4, None).unwrap();
        let keys: Vec<_> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["k3", "k4", "k5", "k6"]);
        // Scanning past the end of t1 must not leak into t2.
        let rows = s.scan("t1", "k8", 100, None).unwrap();
        assert_eq!(rows.len(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn slash_in_table_name_does_not_collide() {
        // Regression: table "t/x" + key "a" used to map to the same
        // storage key as table "t" + key "x/a".
        let (s, dir) = store("escape");
        s.insert("t", "x/a", &row(&[("f", "outer")])).unwrap();
        s.insert("t/x", "a", &row(&[("f", "inner")])).unwrap();
        assert_eq!(s.read("t", "x/a", None).unwrap(), row(&[("f", "outer")]));
        assert_eq!(s.read("t/x", "a", None).unwrap(), row(&[("f", "inner")]));

        // Scans stay within their own table despite the shared prefix.
        let rows = s.scan("t/x", "", 100, None).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "a");
        let rows = s.scan("t", "", 100, None).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "x/a");

        // Deleting one must not touch the other.
        s.delete("t/x", "a").unwrap();
        assert_eq!(s.read("t/x", "a", None), Err(StoreError::NotFound));
        assert_eq!(s.read("t", "x/a", None).unwrap(), row(&[("f", "outer")]));

        // Escape characters themselves survive the round trip.
        s.insert("p%s", "k", &row(&[("f", "pct")])).unwrap();
        assert_eq!(s.read("p%s", "k", None).unwrap(), row(&[("f", "pct")]));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_visit_streams_without_materializing() {
        let (s, dir) = store("visit");
        for i in 0..10 {
            s.insert("t1", &format!("k{i}"), &row(&[("f", "v")]))
                .unwrap();
        }
        s.insert("t2", "k0", &row(&[("f", "other-table")])).unwrap();

        let mut keys = Vec::new();
        let visited = s
            .scan_visit("t1", "k3", 4, None, &mut |k, r| {
                keys.push(k.to_string());
                assert_eq!(r, row(&[("f", "v")]));
                true
            })
            .unwrap();
        assert_eq!(visited, 4);
        assert_eq!(keys, vec!["k3", "k4", "k5", "k6"]);

        // Streaming must honor the table boundary and the early stop.
        let visited = s
            .scan_visit("t1", "k8", 100, None, &mut |_, _| true)
            .unwrap();
        assert_eq!(visited, 2, "scan past end of t1 must not leak into t2");
        let visited = s
            .scan_visit("t1", "k0", 100, None, &mut |_, _| false)
            .unwrap();
        assert_eq!(visited, 1, "visitor stopped the stream");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn insert_batch_lands_every_row() {
        let (s, dir) = store("batch");
        let items: Vec<(String, FieldMap)> = (0..20)
            .map(|i| (format!("user{i:02}"), row(&[("f", "v")])))
            .collect();
        s.insert_batch("usertable", &items).unwrap();
        for (key, values) in &items {
            assert_eq!(&s.read("usertable", key, None).unwrap(), values);
        }
        let stats = s.cluster().stats();
        assert_eq!(stats.puts, 20);
        assert_eq!(stats.batched_puts, 20);
        assert_eq!(stats.put_batches, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn core_workload_runs_against_gateway() {
        use ycsb::runner::{RunConfig, Runner};
        use ycsb::workload::{CoreWorkload, WorkloadConfig};

        let (s, dir) = store("ycsb");
        let cfg = WorkloadConfig {
            record_count: 200,
            field_count: 2,
            field_length: 16,
            ..WorkloadConfig::preset_a()
        };
        let runner = Runner::new(Arc::new(s), Arc::new(CoreWorkload::new(cfg).unwrap()));
        let rc = RunConfig {
            threads: 2,
            operation_count: 400,
            ..Default::default()
        };
        let load = runner.load(&rc);
        assert_eq!(load.failures, 0);
        let run = runner.run(&rc);
        assert_eq!(run.failures, 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
