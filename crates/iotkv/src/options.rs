//! Engine configuration.

/// How writes are made durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// Never call `fsync`; durability is bounded by the OS page cache.
    /// This is the mode benchmark-scale tests use.
    None,
    /// `fsync` once per commit group; a write is acknowledged only after
    /// the sync that covers its group.
    GroupCommit,
}

/// Tunables for a [`crate::Db`] instance.
///
/// The defaults target the TPCx-IoT ingest shape (1 KB values, sequential
/// timestamps per sensor). [`Options::small`] shrinks every budget so unit
/// tests exercise flush/compaction paths with a few kilobytes of data.
#[derive(Clone, Debug)]
pub struct Options {
    /// Freeze + flush the memtable once it holds this many bytes.
    pub memtable_bytes: usize,
    /// Target uncompressed size of one SSTable data block.
    pub block_bytes: usize,
    /// Bloom filter budget; `0` disables bloom filters.
    pub bloom_bits_per_key: usize,
    /// Capacity of the shared block cache in bytes; `0` disables caching.
    pub block_cache_bytes: usize,
    /// Durability mode for the write-ahead log.
    pub sync: SyncMode,
    /// L0 table count that triggers a compaction.
    pub l0_compaction_trigger: usize,
    /// L0 table count at which writes stall until compaction catches up.
    pub l0_stall_trigger: usize,
    /// Byte budget of L1; level `n` holds `level_size_multiplier^ (n-1)`
    /// times this.
    pub l1_bytes: u64,
    /// Fan-out between consecutive levels.
    pub level_size_multiplier: u64,
    /// Maximum number of levels.
    pub max_levels: usize,
    /// Target size of one flushed/compacted SSTable file.
    pub table_bytes: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_bytes: 8 << 20,
            block_bytes: 4 << 10,
            bloom_bits_per_key: 10,
            block_cache_bytes: 32 << 20,
            sync: SyncMode::None,
            l0_compaction_trigger: 4,
            l0_stall_trigger: 12,
            l1_bytes: 64 << 20,
            level_size_multiplier: 10,
            max_levels: 7,
            table_bytes: 8 << 20,
        }
    }
}

impl Options {
    /// A configuration with tiny budgets so tests hit flush and compaction
    /// with small datasets.
    pub fn small() -> Options {
        Options {
            memtable_bytes: 16 << 10,
            block_bytes: 512,
            bloom_bits_per_key: 10,
            block_cache_bytes: 64 << 10,
            l0_compaction_trigger: 4,
            l0_stall_trigger: 8,
            l1_bytes: 64 << 10,
            level_size_multiplier: 4,
            max_levels: 5,
            table_bytes: 16 << 10,
            ..Options::default()
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> crate::Result<()> {
        if self.block_bytes < 64 {
            return Err(crate::Error::invalid("block_bytes must be >= 64"));
        }
        if self.memtable_bytes < 1024 {
            return Err(crate::Error::invalid("memtable_bytes must be >= 1024"));
        }
        if self.max_levels < 2 {
            return Err(crate::Error::invalid("max_levels must be >= 2"));
        }
        if self.l0_stall_trigger < self.l0_compaction_trigger {
            return Err(crate::Error::invalid(
                "l0_stall_trigger must be >= l0_compaction_trigger",
            ));
        }
        if self.level_size_multiplier < 2 {
            return Err(crate::Error::invalid("level_size_multiplier must be >= 2"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        Options::default().validate().unwrap();
        Options::small().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let o = Options {
            block_bytes: 16,
            ..Options::default()
        };
        assert!(o.validate().is_err());

        let mut o = Options::default();
        o.l0_stall_trigger = o.l0_compaction_trigger - 1;
        assert!(o.validate().is_err());

        let o = Options {
            max_levels: 1,
            ..Options::default()
        };
        assert!(o.validate().is_err());
    }
}
