//! Small numeric helpers: order statistics, the tail rule, a seeded
//! generator and a content hash. Nothing here touches the program
//! under test.

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest whole percentile that
/// still has at least [`TAIL_BEYOND`] samples above it, its value
/// (nearest rank), and how many samples lie beyond it. With too few
/// samples for any such percentile the maximum is reported as p100 with
/// nothing beyond it.
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub beyond: usize,
}

pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return Tail { percentile: 100, value: v.last().copied().unwrap_or(0.0), beyond: 0 };
    }
    // Nearest rank r = ceil(p/100 * n) leaves n - r samples beyond it.
    let mut best = Tail { percentile: 0, value: v[0], beyond: n - 1 };
    for p in 1..=100u32 {
        let rank = (u64::from(p) * n as u64).div_ceil(100).max(1) as usize;
        if n - rank < TAIL_BEYOND {
            break;
        }
        best = Tail { percentile: p, value: v[rank - 1], beyond: n - rank };
    }
    best
}

/// Geometric mean of positive ratios; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// 64-bit FNV-1a over `bytes`, folded eight bytes at a time.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ bytes.len() as u64
}

/// Hash of a sequence of words (outcome digests).
pub fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    hash_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
        let few: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&few).percentile, 100);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..13).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
    }
}
