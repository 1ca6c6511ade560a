//! The gateway backend abstraction the driver writes to and queries.
//!
//! TPCx-IoT's driver needs exactly two data operations — keyed insert and
//! ordered range scan — plus the lifecycle hooks the benchmark's checks
//! and cleanup step require.

use bytes::Bytes;

/// How a backend failure should be treated by the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Retrying the operation can succeed (node briefly down, injected
    /// fault, replica set temporarily unavailable).
    Transient,
    /// Retrying is pointless (corruption, bad configuration, I/O error
    /// from the storage engine).
    Permanent,
}

/// Backend-reported failure, classified for the retry machinery.
#[derive(Clone, Debug)]
pub struct BackendError {
    pub kind: ErrorKind,
    pub message: String,
}

impl BackendError {
    pub fn transient(message: impl Into<String>) -> BackendError {
        BackendError {
            kind: ErrorKind::Transient,
            message: message.into(),
        }
    }

    pub fn permanent(message: impl Into<String>) -> BackendError {
        BackendError {
            kind: ErrorKind::Permanent,
            message: message.into(),
        }
    }

    pub fn is_transient(&self) -> bool {
        self.kind == ErrorKind::Transient
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            ErrorKind::Transient => "transient",
            ErrorKind::Permanent => "permanent",
        };
        write!(f, "backend error ({kind}): {}", self.message)
    }
}

impl std::error::Error for BackendError {}

/// Maps a gateway error onto the retry classification: `Unavailable` is
/// worth retrying, everything else is not.
impl From<gateway::GatewayError> for BackendError {
    fn from(e: gateway::GatewayError) -> BackendError {
        if e.is_transient() {
            BackendError::transient(e.to_string())
        } else {
            BackendError::permanent(e.to_string())
        }
    }
}

/// Wire failures keep their transport-level classification: timeouts and
/// connection drops are retryable (the pool re-dials), protocol errors
/// (version skew, oversized or malformed frames) are not.
impl From<wire::WireError> for BackendError {
    fn from(e: wire::WireError) -> BackendError {
        if e.is_transient() {
            BackendError::transient(e.to_string())
        } else {
            BackendError::permanent(e.to_string())
        }
    }
}

pub type BackendResult<T> = Result<T, BackendError>;

/// Degraded-mode counters a backend exposes for run accounting — the
/// cluster's own resilience snapshot, where the counters are declared.
/// All zeros for backends without a failure model.
pub use gateway::cluster::ResilienceStats as ResilienceCounters;

/// What the TPCx-IoT driver requires of a system under test.
pub trait GatewayBackend: Send + Sync {
    /// Ingests one sensor reading.
    fn insert(&self, key: &[u8], value: &[u8]) -> BackendResult<()>;

    /// Ingests a batch of readings in one backend operation. The batch is
    /// an all-or-nothing acknowledgement unit: on error the caller must
    /// assume nothing was acked and retry the whole batch. The default
    /// degrades to per-kvp inserts for backends without a batched path.
    fn insert_batch(&self, items: &[(Bytes, Bytes)]) -> BackendResult<()> {
        for (k, v) in items {
            self.insert(k, v)?;
        }
        Ok(())
    }

    /// Streams `[start, end)` in key order into `visit` without
    /// materializing the window; `visit` returns `false` to stop early.
    /// Returns the number of rows visited. This is the scan primitive: a
    /// backend implements it once, and no `Vec` of rows crosses this
    /// boundary on the query path.
    fn scan_fold(
        &self,
        start: &[u8],
        end: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> BackendResult<u64>;

    /// Ordered scan of `[start, end)`, up to `limit` rows, collected
    /// through [`GatewayBackend::scan_fold`]. Nothing on the query path
    /// calls it. It is the scan of the materialized reference that the
    /// streamed fold is checked against (`tests/properties.rs`), and
    /// `iotbench`'s `TracedBackend` (`benchmarks/`) overrides it.
    fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> BackendResult<Vec<(Bytes, Bytes)>> {
        let mut rows = Vec::new();
        if limit > 0 {
            self.scan_fold(start, end, &mut |k, v| {
                rows.push((Bytes::copy_from_slice(k), Bytes::copy_from_slice(v)));
                rows.len() < limit
            })?;
        }
        Ok(rows)
    }

    /// The replication factor applied to ingested data (the prerequisite
    /// *data replication check* validates this is ≥ 3, capped by nodes).
    fn replication_factor(&self) -> usize;

    /// Total rows the backend acknowledges having ingested (data check).
    fn ingested_count(&self) -> u64;

    /// Degraded-mode accounting; backends without a failure model keep
    /// the default all-zero counters.
    fn resilience(&self) -> ResilienceCounters {
        ResilienceCounters::default()
    }
}

impl GatewayBackend for gateway::Cluster {
    fn insert(&self, key: &[u8], value: &[u8]) -> BackendResult<()> {
        self.put(key, value).map_err(BackendError::from)
    }

    fn insert_batch(&self, items: &[(Bytes, Bytes)]) -> BackendResult<()> {
        self.put_batch(items).map_err(BackendError::from)
    }

    fn scan_fold(
        &self,
        start: &[u8],
        end: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> BackendResult<u64> {
        let mut visited = 0u64;
        for item in self.scan_stream(start, end) {
            let (k, v) = item.map_err(BackendError::from)?;
            visited += 1;
            if !visit(&k, &v) {
                break;
            }
        }
        Ok(visited)
    }

    fn replication_factor(&self) -> usize {
        self.effective_replication()
    }

    fn ingested_count(&self) -> u64 {
        self.stats().puts
    }

    fn resilience(&self) -> ResilienceCounters {
        gateway::Cluster::resilience(self)
    }
}

/// The data-plane view of the locked cluster a [`crate::runner::GatewaySut`]
/// shares with the socket server: every call runs the one `Cluster`
/// implementation above under the lifecycle read guard (purge and restart
/// hold the write side), so a scan streams straight from the region
/// iterators for as long as its guard lives.
impl GatewayBackend for parking_lot::RwLock<gateway::Cluster> {
    fn insert(&self, key: &[u8], value: &[u8]) -> BackendResult<()> {
        self.read().insert(key, value)
    }

    fn insert_batch(&self, items: &[(Bytes, Bytes)]) -> BackendResult<()> {
        self.read().insert_batch(items)
    }

    fn scan_fold(
        &self,
        start: &[u8],
        end: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> BackendResult<u64> {
        self.read().scan_fold(start, end, visit)
    }

    fn replication_factor(&self) -> usize {
        self.read().replication_factor()
    }

    fn ingested_count(&self) -> u64 {
        self.read().ingested_count()
    }

    fn resilience(&self) -> ResilienceCounters {
        self.read().resilience()
    }
}

/// A backend that acknowledges inserts without storing them — the
/// "/dev/null" target of the Fig 8 driver-speed experiment.
#[derive(Default)]
pub struct NullBackend {
    count: std::sync::atomic::AtomicU64,
    /// Byte count folded into a checksum so the optimiser cannot elide
    /// the generation work.
    sink: std::sync::atomic::AtomicU64,
}

impl NullBackend {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn bytes_checksum(&self) -> u64 {
        // ordering: Relaxed — checksum sink read after the run joins.
        self.sink.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl GatewayBackend for NullBackend {
    fn insert(&self, key: &[u8], value: &[u8]) -> BackendResult<()> {
        let mix = key
            .iter()
            .fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64))
            ^ (value.len() as u64);
        // ordering: Relaxed — commutative checksum/count accumulators; reads
        // happen only after worker threads join.
        self.sink
            .fetch_xor(mix, std::sync::atomic::Ordering::Relaxed);
        self.count
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    fn scan_fold(
        &self,
        _: &[u8],
        _: &[u8],
        _: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> BackendResult<u64> {
        Ok(0)
    }

    fn replication_factor(&self) -> usize {
        3 // pretends to satisfy the check; used only for driver-speed runs
    }

    fn ingested_count(&self) -> u64 {
        // ordering: Relaxed — statistics read.
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// An in-memory backend over a sorted map — used by unit tests that need
/// real scans without a storage engine on disk.
#[derive(Default)]
pub struct MemBackend {
    map: parking_lot::RwLock<std::collections::BTreeMap<Vec<u8>, Bytes>>,
    /// Insert operations acknowledged (the data check counts operations,
    /// matching how a real SUT's ingest counter behaves).
    inserts: std::sync::atomic::AtomicU64,
}

impl MemBackend {
    pub fn new() -> Self {
        Self::default()
    }
}

impl GatewayBackend for MemBackend {
    fn insert(&self, key: &[u8], value: &[u8]) -> BackendResult<()> {
        self.map
            .write()
            .insert(key.to_vec(), Bytes::copy_from_slice(value));
        // ordering: Relaxed — statistics counter.
        self.inserts
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    fn scan_fold(
        &self,
        start: &[u8],
        end: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> BackendResult<u64> {
        let map = self.map.read();
        let mut visited = 0u64;
        for (k, v) in map.range(start.to_vec()..end.to_vec()) {
            visited += 1;
            if !visit(k, v) {
                break;
            }
        }
        Ok(visited)
    }

    fn replication_factor(&self) -> usize {
        3
    }

    fn ingested_count(&self) -> u64 {
        // ordering: Relaxed — statistics read.
        self.inserts.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_backend_counts_without_storing() {
        let b = NullBackend::new();
        b.insert(b"k1", b"v1").unwrap();
        b.insert(b"k2", b"v2").unwrap();
        assert_eq!(b.ingested_count(), 2);
        assert!(b.scan(b"a", b"z", 10).unwrap().is_empty());
        assert_ne!(b.bytes_checksum(), 0);
    }

    #[test]
    fn scan_fold_streams_and_stops_early() {
        let b = MemBackend::new();
        for k in ["a", "b", "c", "d"] {
            b.insert(k.as_bytes(), k.as_bytes()).unwrap();
        }
        let mut seen = Vec::new();
        let visited = b
            .scan_fold(b"a", b"z", &mut |k, _| {
                seen.push(String::from_utf8_lossy(k).into_owned());
                true
            })
            .unwrap();
        assert_eq!(visited, 4);
        assert_eq!(seen, vec!["a", "b", "c", "d"]);
        // Early stop: the visitor's `false` ends the stream.
        let visited = b.scan_fold(b"a", b"z", &mut |_, _| false).unwrap();
        assert_eq!(visited, 1);
    }

    #[test]
    fn mem_backend_scans_in_order() {
        let b = MemBackend::new();
        for k in ["c", "a", "b", "d"] {
            b.insert(k.as_bytes(), b"v").unwrap();
        }
        let rows = b.scan(b"a", b"d", 10).unwrap();
        let keys: Vec<_> = rows.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
        assert_eq!(b.ingested_count(), 4);
        let rows = b.scan(b"a", b"z", 2).unwrap();
        assert_eq!(rows.len(), 2);
    }
}
