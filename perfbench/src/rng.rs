//! The benchmark's only source of randomness: splitmix64 from the
//! `--seed` argument, so the same seed always yields the same inputs.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// `count` sizes spread over `lo..=hi`: one uniform draw inside each of
/// `count` equal strata. Sizes stay continuous (no clusters for a
/// percentile to fall between) while every seed covers the range the
/// same way, so the mix's total cost barely moves with the seed.
pub fn stratified(rng: &mut Rng, count: usize, lo: usize, hi: usize) -> Vec<usize> {
    let span = (hi - lo) as f64;
    (0..count)
        .map(|i| lo + ((i as f64 + rng.unit()) / count as f64 * span).round() as usize)
        .map(|n| n.min(hi))
        .collect()
}
