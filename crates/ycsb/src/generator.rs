//! Request-distribution generators, ported from YCSB's
//! `com.yahoo.ycsb.generator` package.
//!
//! All generators draw randomness from a caller-supplied
//! [`simkit::rng::Stream`], keeping workloads deterministic per seed.

use simkit::rng::Stream;

/// A source of `u64` values following some distribution.
pub trait Generator: Send {
    /// Draws the next value.
    fn next_value(&mut self, rng: &mut Stream) -> u64;
    /// The most recent value drawn (YCSB's `lastValue`, used by
    /// read-modify-write flows). Zero before any draw.
    fn last_value(&self) -> u64;
}

/// Uniform over `[lo, hi]` inclusive.
pub struct UniformGenerator {
    lo: u64,
    hi: u64,
    last: u64,
}

impl UniformGenerator {
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi);
        UniformGenerator { lo, hi, last: 0 }
    }
}

impl Generator for UniformGenerator {
    fn next_value(&mut self, rng: &mut Stream) -> u64 {
        self.last = rng.range_inclusive(self.lo, self.hi);
        self.last
    }
    fn last_value(&self) -> u64 {
        self.last
    }
}

/// Monotonically increasing counter starting at `start` (YCSB's
/// `CounterGenerator`, used for insert key sequencing).
pub struct CounterGenerator {
    next: u64,
}

impl CounterGenerator {
    pub fn new(start: u64) -> Self {
        CounterGenerator { next: start }
    }
    pub fn peek(&self) -> u64 {
        self.next
    }
}

impl Generator for CounterGenerator {
    fn next_value(&mut self, _rng: &mut Stream) -> u64 {
        let v = self.next;
        self.next += 1;
        v
    }
    fn last_value(&self) -> u64 {
        self.next.saturating_sub(1)
    }
}

/// Zipfian distribution over `[0, n)` using the Gray et al. rejection-free
/// algorithm — the same algorithm YCSB's `ZipfianGenerator` uses, with an
/// incrementally-extendable item count.
pub struct ZipfianGenerator {
    items: u64,
    base: u64,
    theta: f64,
    zeta_n: f64,
    zeta2_theta: f64,
    alpha: f64,
    eta: f64,
    /// Item count `zeta_n` was computed for (grows lazily).
    count_for_zeta: u64,
    last: u64,
}

/// YCSB's default Zipfian constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

fn zeta(from: u64, to: u64, theta: f64, initial: f64) -> f64 {
    let mut sum = initial;
    for i in from..to {
        sum += 1.0 / ((i + 1) as f64).powf(theta);
    }
    sum
}

impl ZipfianGenerator {
    pub fn new(items: u64) -> Self {
        Self::with_constant(0, items, ZIPFIAN_CONSTANT)
    }

    pub fn with_constant(min: u64, items: u64, constant: f64) -> Self {
        assert!(items > 0);
        let theta = constant;
        let zeta2_theta = zeta(0, 2, theta, 0.0);
        let zeta_n = zeta(0, items, theta, 0.0);
        let mut g = ZipfianGenerator {
            items,
            base: min,
            theta,
            zeta_n,
            zeta2_theta,
            alpha: 1.0 / (1.0 - theta),
            eta: 0.0,
            count_for_zeta: items,
            last: 0,
        };
        g.eta = g.compute_eta();
        g
    }

    fn compute_eta(&self) -> f64 {
        (1.0 - (2.0 / self.items as f64).powf(1.0 - self.theta))
            / (1.0 - self.zeta2_theta / self.zeta_n)
    }

    /// Grows the item universe (used by [`LatestGenerator`] as records are
    /// inserted); extends `zeta_n` incrementally.
    pub fn set_items(&mut self, items: u64) {
        if items > self.count_for_zeta {
            self.zeta_n = zeta(self.count_for_zeta, items, self.theta, self.zeta_n);
            self.count_for_zeta = items;
        }
        // Shrinking recomputes from scratch (rare).
        if items < self.count_for_zeta {
            self.zeta_n = zeta(0, items, self.theta, 0.0);
            self.count_for_zeta = items;
        }
        self.items = items;
        self.eta = self.compute_eta();
    }

    pub fn items(&self) -> u64 {
        self.items
    }
}

impl Generator for ZipfianGenerator {
    fn next_value(&mut self, rng: &mut Stream) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        let v = if uz < 1.0 {
            self.base
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            self.base + 1
        } else {
            self.base
                + (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        self.last = v.min(self.base + self.items - 1);
        self.last
    }
    fn last_value(&self) -> u64 {
        self.last
    }
}

/// FNV-based scatter of a zipfian draw across the whole keyspace — YCSB's
/// `ScrambledZipfianGenerator`. Popular items are spread out instead of
/// clustered at low ids.
pub struct ScrambledZipfianGenerator {
    zipf: ZipfianGenerator,
    items: u64,
    base: u64,
    last: u64,
}

fn fnv64(v: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..8 {
        h ^= (v >> (i * 8)) & 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl ScrambledZipfianGenerator {
    pub fn new(items: u64) -> Self {
        ScrambledZipfianGenerator {
            // YCSB uses a large fixed universe for the underlying zipfian.
            zipf: ZipfianGenerator::with_constant(0, items, ZIPFIAN_CONSTANT),
            items,
            base: 0,
            last: 0,
        }
    }
}

impl Generator for ScrambledZipfianGenerator {
    fn next_value(&mut self, rng: &mut Stream) -> u64 {
        let z = self.zipf.next_value(rng);
        self.last = self.base + fnv64(z) % self.items;
        self.last
    }
    fn last_value(&self) -> u64 {
        self.last
    }
}

/// Skews toward recently inserted records — YCSB's `SkewedLatestGenerator`.
/// The caller advances `max` as inserts land.
pub struct LatestGenerator {
    zipf: ZipfianGenerator,
    max: u64,
    last: u64,
}

impl LatestGenerator {
    pub fn new(initial_count: u64) -> Self {
        let count = initial_count.max(1);
        LatestGenerator {
            zipf: ZipfianGenerator::new(count),
            max: count - 1,
            last: 0,
        }
    }

    /// Informs the generator that record ids up to `max` now exist.
    pub fn set_max(&mut self, max: u64) {
        self.max = max;
        self.zipf.set_items(max + 1);
    }
}

impl Generator for LatestGenerator {
    fn next_value(&mut self, rng: &mut Stream) -> u64 {
        let off = self.zipf.next_value(rng);
        self.last = self.max - off.min(self.max);
        self.last
    }
    fn last_value(&self) -> u64 {
        self.last
    }
}

/// Weighted choice over a fixed set of values — YCSB's
/// `DiscreteGenerator`, used to pick the next operation type.
pub struct DiscreteGenerator<T: Clone + Send> {
    values: Vec<(f64, T)>,
    total: f64,
}

impl<T: Clone + Send> DiscreteGenerator<T> {
    pub fn new(weighted: Vec<(f64, T)>) -> Self {
        assert!(!weighted.is_empty());
        let total = weighted.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "weights must not all be zero");
        DiscreteGenerator {
            values: weighted,
            total,
        }
    }

    pub fn next_choice(&mut self, rng: &mut Stream) -> T {
        let mut target = rng.next_f64() * self.total;
        for (w, v) in &self.values {
            if target < *w {
                return v.clone();
            }
            target -= w;
        }
        self.values[self.values.len() - 1].1.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Stream {
        Stream::new(0xfeed)
    }

    #[test]
    fn counter_counts_up() {
        let mut rng = stream();
        let mut ctr = CounterGenerator::new(10);
        assert_eq!(ctr.next_value(&mut rng), 10);
        assert_eq!(ctr.next_value(&mut rng), 11);
        assert_eq!(ctr.last_value(), 11);
        assert_eq!(ctr.peek(), 12);
    }

    #[test]
    fn uniform_stays_in_range_and_covers() {
        let mut rng = stream();
        let mut g = UniformGenerator::new(5, 14);
        let mut seen = [false; 10];
        for _ in 0..2000 {
            let v = g.next_value(&mut rng);
            assert!((5..=14).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipfian_in_range_and_skewed() {
        let mut rng = stream();
        let n = 1000u64;
        let mut g = ZipfianGenerator::new(n);
        let mut counts = vec![0u64; n as usize];
        let draws = 100_000;
        for _ in 0..draws {
            let v = g.next_value(&mut rng);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        // Item 0 should dominate: roughly 1/zeta(1000, .99) ≈ 13% of mass.
        let head = counts[0] as f64 / draws as f64;
        assert!(head > 0.08, "head probability {head} too low for zipfian");
        // Top-10 items take a large share.
        let top10: u64 = counts[..10].iter().sum();
        assert!(
            top10 as f64 / draws as f64 > 0.3,
            "zipfian top-10 share too low"
        );
    }

    #[test]
    fn zipfian_item_growth_extends_range() {
        let mut rng = stream();
        let mut g = ZipfianGenerator::new(10);
        g.set_items(1000);
        assert_eq!(g.items(), 1000);
        let mut max_seen = 0;
        for _ in 0..50_000 {
            max_seen = max_seen.max(g.next_value(&mut rng));
        }
        assert!(max_seen >= 100, "growth visible in draws (saw {max_seen})");
        assert!(max_seen < 1000);
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let mut rng = stream();
        let n = 1000u64;
        let mut g = ScrambledZipfianGenerator::new(n);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..100_000 {
            let v = g.next_value(&mut rng);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        // The hottest item should NOT be item 0 systematically — find the
        // max and check skew exists somewhere.
        let max = *counts.iter().max().unwrap();
        assert!(max as f64 / 100_000.0 > 0.05, "some item is hot");
        let populated = counts.iter().filter(|&&c| c > 0).count();
        assert!(populated > 300, "mass is spread across the keyspace");
    }

    #[test]
    fn latest_prefers_recent() {
        let mut rng = stream();
        let mut g = LatestGenerator::new(1000);
        g.set_max(999);
        let recent = (0..20_000)
            .filter(|_| g.next_value(&mut rng) >= 900)
            .count();
        assert!(
            recent as f64 / 20_000.0 > 0.4,
            "latest generator should strongly prefer the newest 10%"
        );
        // All draws in range.
        for _ in 0..1000 {
            assert!(g.next_value(&mut rng) <= 999);
        }
    }

    #[test]
    fn discrete_respects_weights() {
        let mut rng = stream();
        let mut g = DiscreteGenerator::new(vec![(0.7, "read"), (0.2, "update"), (0.1, "scan")]);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(g.next_choice(&mut rng)).or_insert(0u64) += 1;
        }
        let frac = |k: &str| counts[k] as f64 / 50_000.0;
        assert!((frac("read") - 0.7).abs() < 0.02);
        assert!((frac("update") - 0.2).abs() < 0.02);
        assert!((frac("scan") - 0.1).abs() < 0.02);
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = ZipfianGenerator::new(500);
        let mut b = ZipfianGenerator::new(500);
        let mut ra = Stream::new(7);
        let mut rb = Stream::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_value(&mut ra), b.next_value(&mut rb));
        }
    }
}
