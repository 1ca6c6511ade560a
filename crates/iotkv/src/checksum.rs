//! CRC-32C (Castagnoli), implemented in-repo because no checksum crate is
//! on this project's allowed dependency list; verified against the
//! published RFC 3720 test vectors.
//!
//! Two kernels compute the same bits:
//!
//! * **SSE4.2** (x86_64 only): the `crc32` instruction folds 8 bytes per
//!   step and finishes the tail a byte at a time — about 6× the
//!   portable kernel on a 4 KiB table block.
//! * **Portable**: slice-by-8 over 8×256-entry tables built at first
//!   use. It runs on every other CPU and is the oracle the tests hold
//!   the hardware kernel to.
//!
//! [`extend`] picks one per call with [`kernel`]: the SSE4.2 kernel if
//! `is_x86_feature_detected!("sse4.2")` says this CPU has it, the
//! portable one otherwise. `std` probes CPUID once per process, at the
//! first checksum, and caches the answer; no option, environment
//! variable or Cargo feature overrides it. The call into the SSE4.2
//! kernel is the one `unsafe` in the product crates (the analyzer's
//! `unsafe-confined` rule keeps it that way).

const POLY: u32 = 0x82F6_3B78; // reflected Castagnoli polynomial

/// 8 tables of 256 entries each, built at first use.
struct Tables([[u32; 256]; 8]);

fn build_tables() -> Tables {
    let mut t = [[0u32; 256]; 8];
    for (i, entry) in t[0].iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
        *entry = crc;
    }
    for i in 0..256 {
        let mut crc = t[0][i];
        for k in 1..8 {
            crc = t[0][(crc & 0xff) as usize] ^ (crc >> 8);
            t[k][i] = crc;
        }
    }
    Tables(t)
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// The CRC-32C kernels [`extend`] can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The SSE4.2 `crc32` instruction (x86_64 CPUs that have it).
    Sse42,
    /// Slice-by-8 tables (every other CPU).
    Portable,
}

/// The kernel [`extend`] runs on this CPU.
pub fn kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        return Kernel::Sse42;
    }
    Kernel::Portable
}

/// Computes the CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extends a running CRC-32C with more data.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    match kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel()` returns `Sse42` only when
        // `is_x86_feature_detected!("sse4.2")` has found the feature on
        // this CPU, and `sse4.2` is the only feature `extend_sse42` enables.
        Kernel::Sse42 => unsafe { extend_sse42(crc, data) },
        _ => extend_portable(crc, data),
    }
}

/// The SSE4.2 kernel: one `crc32` instruction per 8 bytes, then one per
/// byte of the tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = data.as_chunks::<8>();
    let mut wide = u64::from(!crc);
    for word in words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(*word));
    }
    // The instruction leaves the upper 32 bits zero.
    let mut crc = wide as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// The portable slice-by-8 kernel.
fn extend_portable(crc: u32, data: &[u8]) -> u32 {
    let t = &tables().0;
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // lint:allow(unwrap) fixed-width try_into of a length-checked slices
        // (chunks_exact(8) yields 8-byte chunks).
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap()); // lint:allow(unwrap)
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Masked CRC as used by LevelDB/RocksDB log formats: a CRC of a CRC is
/// pathological, so stored CRCs are rotated and offset.
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(0xa282_ead8)
}

/// Inverse of [`mask`].
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(0xa282_ead8).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::Stream;

    type ExtendFn = fn(u32, &[u8]) -> u32;

    /// Both kernels: `extend` runs the hardware one on this host (see
    /// `sse42_hosts_dispatch_to_hardware`), `extend_portable` is the
    /// oracle.
    const KERNELS: [(&str, ExtendFn); 2] = [("dispatched", extend), ("portable", extend_portable)];

    fn random_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = Stream::new(seed);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    // RFC 3720 §B.4 test vectors.
    #[test]
    fn rfc3720_vectors() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for (name, k) in KERNELS {
            assert_eq!(k(0, &[0u8; 32]), 0x8A91_36AA, "{name}");
            assert_eq!(k(0, &[0xffu8; 32]), 0x62A8_AB43, "{name}");
            assert_eq!(k(0, &ascending), 0x46DD_794E, "{name}");
            assert_eq!(k(0, &descending), 0x113F_DB5C, "{name}");
        }
    }

    #[test]
    fn known_string_vector() {
        // Standard check value for "123456789".
        for (name, k) in KERNELS {
            assert_eq!(k(0, b"123456789"), 0xE306_9283, "{name}");
        }
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn sse42_hosts_dispatch_to_hardware() {
        // Not behind the kernel's `cfg`, and not using the macro the
        // dispatcher uses: a broken `cfg` must fail here rather than
        // compile the hardware path out and fall back in silence.
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let sse42 = cpuinfo
            .lines()
            .filter(|l| l.starts_with("flags"))
            .any(|l| l.split_whitespace().any(|flag| flag == "sse4_2"));
        if std::env::consts::ARCH == "x86_64" && sse42 {
            assert_eq!(kernel(), Kernel::Sse42);
        }
    }

    #[test]
    fn hardware_matches_portable_at_every_length_and_offset() {
        // Every length up to one data block plus change covers every
        // residue mod 8; the start offsets make the 8-byte loads unaligned.
        let data = random_bytes(1, 4200 + 8);
        for len in 0..=4200 {
            for offset in 0..8 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    extend(0, slice),
                    extend_portable(0, slice),
                    "len {len} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn extend_split_anywhere_with_a_running_crc() {
        let mut rng = Stream::new(2);
        for round in 0..500 {
            let len = rng.next_below(5000) as usize;
            let data = random_bytes(100 + round, len);
            let start = rng.next_u64() as u32;
            let split = rng.next_below(len as u64 + 1) as usize;
            let (a, b) = data.split_at(split);
            let whole = extend_portable(start, &data);
            assert_eq!(extend(extend(start, a), b), whole, "round {round}");
            assert_eq!(
                extend_portable(extend_portable(start, a), b),
                whole,
                "round {round}"
            );
        }
    }

    #[test]
    fn extend_equals_whole() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(extend(extend(0, a), b), crc32c(data), "split {split}");
        }
    }

    #[test]
    fn mask_round_trip() {
        for crc in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(unmask(mask(crc)), crc);
            assert_ne!(mask(crc), crc);
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let base = crc32c(&data);
        data[17] ^= 0x01;
        assert_ne!(crc32c(&data), base);
    }
}
