//! The harness's own seeded generator (SplitMix64), so that workload inputs
//! depend on `--seed` alone and not on a library under test.

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng64(seed)
    }

    /// An independent generator for a named sub-stream of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
