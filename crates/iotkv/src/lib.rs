//! `iotkv` — an embedded log-structured merge-tree (LSM) key-value store.
//!
//! This crate is the storage substrate of the TPCx-IoT reproduction: it
//! plays the role HBase's region-server storage layer (HFile/WAL/memstore)
//! plays in the paper's system under test. One [`Db`] instance stores the
//! key-value pairs of one region server.
//!
//! # Architecture
//!
//! The write path is the classic LSM pipeline:
//!
//! 1. every write is appended to a CRC-framed **write-ahead log**
//!    ([`wal`]) — concurrent writers are merged into **commit groups**,
//!    and under [`SyncMode::GroupCommit`] a write is acknowledged only
//!    after the one `fsync` that covers its group,
//! 2. applied to an in-memory, ordered **memtable** ([`memtable`]),
//! 3. when the memtable exceeds its budget it is frozen, and the
//!    database's background thread flushes it to an immutable,
//!    block-based **SSTable** ([`sstable`]) with an index block and a
//!    **bloom filter**,
//! 4. the same thread runs leveled **compaction** ([`compaction`]).
//!
//! Reads consult memtables first, then tables newest-to-oldest, skipping
//! tables whose bloom filter excludes the key; hot blocks are kept in a
//! sharded **LRU block cache** ([`cache`]). Range scans — the access
//! pattern of the TPCx-IoT dashboard queries, which read a sensor's 5 s
//! window — use a heap-based merge iterator across all sources with
//! sequence-number visibility and tombstone suppression.
//!
//! Durability and recovery are manifest-based ([`version`]): table-set
//! changes write a checksummed manifest, and startup replays the manifest
//! plus any WAL tail.
//!
//! # Example
//!
//! ```
//! use iotkv::{Db, Options};
//!
//! let dir = std::env::temp_dir().join(format!("iotkv-doc-{}", std::process::id()));
//! let db = Db::open(&dir, Options::small()).unwrap();
//! db.put(b"substation-7/sensor-3/1700000000", b"13.7 kV").unwrap();
//! assert_eq!(db.get(b"substation-7/sensor-3/1700000000").unwrap().as_deref(),
//!            Some(&b"13.7 kV"[..]));
//! let rows = db.scan(b"substation-7/", b"substation-7/z", usize::MAX).unwrap();
//! assert_eq!(rows.len(), 1);
//! drop(db);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod batch;
pub mod cache;
pub mod checksum;
pub mod compaction;
mod db;
pub mod encoding;
mod error;
pub mod iter;
pub mod memtable;
mod options;
pub mod sstable;
pub mod version;
pub mod wal;

pub use batch::WriteBatch;
pub use db::{Db, DbStats, PendingWrite, ScanIter};
pub use error::{Error, Result};
pub use options::{Options, SyncMode};

/// Monotonically increasing sequence number assigned to every write.
pub type SeqNo = u64;

/// The kind of a versioned record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKind {
    /// A deletion tombstone.
    Delete = 0,
    /// A regular value.
    Put = 1,
}

impl ValueKind {
    pub fn from_u8(v: u8) -> Option<ValueKind> {
        match v {
            0 => Some(ValueKind::Delete),
            1 => Some(ValueKind::Put),
            _ => None,
        }
    }
}
