//! A dependency-free seeded generator (SplitMix64) for job orders.

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `bound` (> 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (((self.next_u64() >> 32) * bound as u64) >> 32) as usize
    }
}

/// The order in which pass `pass` of a run seeded with `seed` visits `n`
/// jobs: a Fisher-Yates permutation of `0..n`, different for every pass
/// and identical for the same `(seed, pass)`.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ pass.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}
