//! Seeded generators: every input the benchmark feeds the system comes
//! from here, so one `--seed` fixes every op sequence and payload.

/// Mixes a value into a well-spread 64-bit hash (SplitMix64 finalizer).
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a seed with a list of coordinates (tenant, file, version...).
pub fn hash(seed: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(mix(seed), |h, &p| mix(h ^ p))
}

/// Fills `buf` with bytes determined by `key`: the payload of one file
/// version. Cheap enough to regenerate when checking a read.
pub fn fill(buf: &mut [u8], key: u64) {
    let mut x = key | 1;
    for chunk in buf.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let bytes = x.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
}

/// The payload `fill` would write for `key`, as an owned buffer.
pub fn payload(len: usize, key: u64) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill(&mut buf, key);
    buf
}

/// Xorshift64* stream of one worker.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams do not correlate.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(hash(seed, &[stream]) | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over a worker's share of the global popularity ranks: item `i`
/// of `ranks` is drawn with weight `1 / (ranks[i] + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over the given 0-based global ranks.
    pub fn new(ranks: &[usize], s: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = ranks
            .iter()
            .map(|&r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws an index into the rank list.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(7, 1).next_u64());
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(8, 0).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(&(0..100).collect::<Vec<_>>(), 1.0);
        let mut rng = Rng::new(1, 0);
        let head = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        // The top 10 of 100 ranks carry ~56% of Zipf(1) mass.
        assert!((5000..6200).contains(&head), "head draws: {head}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(3, 3);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
