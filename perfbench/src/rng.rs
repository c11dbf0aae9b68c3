//! Seeded input generation. Every workload input comes from `--seed`
//! through this generator, so a seed names one exact request stream.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose of one seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut mix = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// `count` distinct indices drawn from `0..len` in seeded order (a
/// partial Fisher–Yates shuffle). Panics if `count > len`.
pub fn distinct_indices(rng: &mut Rng, count: usize, len: usize) -> Vec<usize> {
    assert!(
        count <= len,
        "cannot draw {count} distinct indices from {len}"
    );
    let mut pool: Vec<usize> = (0..len).collect();
    for i in 0..count {
        let j = i + rng.below(len - i);
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}
