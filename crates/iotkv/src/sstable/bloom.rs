//! Bloom filters over user keys, one per table.
//!
//! Uses the standard double-hashing scheme (Kirsch–Mitzenmacher): `k` probe
//! positions derived from two 64-bit hashes. `k` is derived from the
//! configured bits-per-key as `k = bits_per_key * ln 2`, clamped to
//! `[1, 30]` — the same policy LevelDB uses.

/// FNV-1a 64-bit, used as the first hash.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A mixed second hash (xor-shift avalanche of the first).
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Builds a bloom filter for a batch of keys.
pub struct BloomBuilder {
    bits_per_key: usize,
    hashes: Vec<u64>,
}

impl BloomBuilder {
    pub fn new(bits_per_key: usize) -> BloomBuilder {
        BloomBuilder {
            bits_per_key,
            hashes: Vec::new(),
        }
    }

    pub fn add(&mut self, key: &[u8]) {
        self.hashes.push(fnv1a(key));
    }

    /// Serialises the filter: bit array followed by a trailing byte holding
    /// the probe count `k`.
    pub fn finish(&self) -> Vec<u8> {
        let k = ((self.bits_per_key as f64 * 0.69) as usize).clamp(1, 30);
        let n_bits = (self.hashes.len() * self.bits_per_key).max(64);
        let n_bytes = n_bits.div_ceil(8);
        let n_bits = n_bytes * 8;
        let mut bits = vec![0u8; n_bytes + 1];
        bits[n_bytes] = k as u8;
        for &h1 in &self.hashes {
            let h2 = mix(h1);
            for i in 0..k as u64 {
                let pos = (h1.wrapping_add(i.wrapping_mul(h2)) % n_bits as u64) as usize;
                bits[pos / 8] |= 1 << (pos % 8);
            }
        }
        bits
    }
}

/// Tests membership against a serialised filter.
///
/// An empty/undersized filter conservatively reports "maybe present".
pub fn may_contain(filter: &[u8], key: &[u8]) -> bool {
    if filter.len() < 2 {
        return true;
    }
    let k = filter[filter.len() - 1] as u64;
    if k == 0 || k > 30 {
        return true; // unrecognised; fail open
    }
    let bits = &filter[..filter.len() - 1];
    let n_bits = (bits.len() * 8) as u64;
    let h1 = fnv1a(key);
    let h2 = mix(h1);
    for i in 0..k {
        let pos = (h1.wrapping_add(i.wrapping_mul(h2)) % n_bits) as usize;
        if bits[pos / 8] & (1 << (pos % 8)) == 0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomBuilder::new(10);
        let keys: Vec<String> = (0..5000).map(|i| format!("substation-{i:05}")).collect();
        for k in &keys {
            b.add(k.as_bytes());
        }
        let filter = b.finish();
        for k in &keys {
            assert!(may_contain(&filter, k.as_bytes()), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut b = BloomBuilder::new(10);
        for i in 0..10_000 {
            b.add(format!("present-{i}").as_bytes());
        }
        let filter = b.finish();
        let fp = (0..10_000)
            .filter(|i| may_contain(&filter, format!("absent-{i}").as_bytes()))
            .count();
        // 10 bits/key gives ~1% theoretical FP; allow generous slack.
        assert!(fp < 300, "false positive count {fp} too high");
    }

    #[test]
    fn empty_filter_fails_open() {
        assert!(may_contain(&[], b"anything"));
        assert!(may_contain(&[0], b"anything"));
        let b = BloomBuilder::new(10);
        let filter = b.finish(); // zero keys
        assert_eq!(filter.last().copied().unwrap_or(0) as usize, 6); // k = 10*0.69
                                                                     // No keys added: everything misses (no bits set) — also correct.
        assert!(!may_contain(&filter, b"anything"));
    }

    #[test]
    fn one_bit_per_key_still_works() {
        let mut b = BloomBuilder::new(1);
        b.add(b"k");
        let filter = b.finish();
        assert!(may_contain(&filter, b"k"));
    }
}
