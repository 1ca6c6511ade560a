//! The cluster as a YCSB byte store, so the classic core workloads run
//! against the gateway. `ycsb::store` maps tables, keys and field maps to
//! bytes; the cluster stores them through its one write path.

use crate::cluster::Cluster;
use crate::GatewayError;
use bytes::Bytes;
use ycsb::store::{KvStore, StoreError, StoreResult};

impl From<GatewayError> for StoreError {
    fn from(e: GatewayError) -> StoreError {
        StoreError::Backend(e.to_string())
    }
}

impl KvStore for Cluster {
    fn put(&self, key: &[u8], value: &[u8]) -> StoreResult<()> {
        Ok(Cluster::put(self, key, value)?)
    }

    fn get(&self, key: &[u8]) -> StoreResult<Option<Bytes>> {
        Ok(Cluster::get(self, key)?)
    }

    fn scan_range(
        &self,
        start: &[u8],
        end: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> StoreResult<()> {
        for item in self.scan_stream(start, end) {
            let (k, v) = item?;
            if !visit(&k, &v) {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use iotkv::Options;
    use std::sync::Arc;
    use ycsb::store::FieldMap;

    fn cluster(name: &str) -> (Arc<Cluster>, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("gateway-adapter-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = ClusterConfig::new(&dir, 2);
        config.storage = Options::small();
        (Arc::new(Cluster::start(config).unwrap()), dir)
    }

    fn row(pairs: &[(&str, &str)]) -> FieldMap {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Bytes::copy_from_slice(v.as_bytes())))
            .collect()
    }

    #[test]
    fn ycsb_operations_against_cluster() {
        let (c, dir) = cluster("ops");
        let s: &dyn KvStore = &*c;
        s.insert("usertable", "user5", &row(&[("field0", "x")]))
            .unwrap();
        let got = s.read("usertable", "user5").unwrap();
        assert_eq!(got, row(&[("field0", "x")]));

        s.update("usertable", "user5", &row(&[("field1", "y")]))
            .unwrap();
        let got = s.read("usertable", "user5").unwrap();
        assert_eq!(got, row(&[("field0", "x"), ("field1", "y")]));

        assert_eq!(s.read("usertable", "ghost"), Err(StoreError::NotFound));
        assert_eq!(
            s.update("usertable", "ghost", &row(&[("field0", "z")])),
            Err(StoreError::NotFound)
        );
        assert_eq!(s.read("usertable", "ghost"), Err(StoreError::NotFound));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_visit_streams_without_materializing() {
        let (c, dir) = cluster("visit");
        let s: &dyn KvStore = &*c;
        for i in 0..10 {
            s.insert("t1", &format!("k{i}"), &row(&[("f", "v")]))
                .unwrap();
        }
        s.insert("t2", "k0", &row(&[("f", "other-table")])).unwrap();

        let mut keys = Vec::new();
        let visited = s
            .scan("t1", "k3", 4, &mut |k, r| {
                keys.push(k.to_string());
                assert_eq!(r, row(&[("f", "v")]));
                true
            })
            .unwrap();
        assert_eq!(visited, 4);
        assert_eq!(keys, vec!["k3", "k4", "k5", "k6"]);

        // Streaming must honor the table boundary and the early stop.
        let visited = s.scan("t1", "k8", 100, &mut |_, _| true).unwrap();
        assert_eq!(visited, 2, "scan past end of t1 must not leak into t2");
        let visited = s.scan("t1", "k0", 100, &mut |_, _| false).unwrap();
        assert_eq!(visited, 1, "visitor stopped the stream");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn core_workload_runs_against_gateway() {
        use ycsb::runner::{RunConfig, Runner};
        use ycsb::workload::{CoreWorkload, WorkloadConfig};

        let dir = std::env::temp_dir().join(format!("gateway-adapter-ycsb-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = ClusterConfig::new(&dir, 2);
        config.storage = Options::small();
        let cluster = Arc::new(Cluster::start(config).unwrap());
        let cfg = WorkloadConfig {
            record_count: 200,
            field_count: 2,
            field_length: 16,
            ..WorkloadConfig::preset_a()
        };
        let store: Arc<dyn KvStore> = cluster.clone();
        let runner = Runner::new(store.clone(), Arc::new(CoreWorkload::new(cfg).unwrap()));
        let rc = RunConfig {
            threads: 2,
            operation_count: 400,
            ..Default::default()
        };
        let load = runner.load(&rc);
        assert_eq!(load.failures, 0);
        let run = runner.run(&rc);
        assert_eq!(run.failures, 0);
        assert_eq!(store.read("usertable", "ghost"), Err(StoreError::NotFound));

        // Every YCSB write lands through the cluster's one write path: one
        // put per insert or update, each on every replica, and the
        // per-node writes reconcile with the replica writes.
        let stats = cluster.stats();
        let updates = runner.measurements.ok_count(ycsb::OpKind::Update);
        assert_eq!(stats.puts, 200 + updates);
        assert_eq!(
            stats.replica_writes,
            cluster.effective_replication() as u64 * stats.puts
        );
        assert_eq!(stats.node_writes.iter().sum::<u64>(), stats.replica_writes);
        std::fs::remove_dir_all(dir).ok();
    }
}
