//! The benchmark's own input generator: SplitMix64, an inverse-CDF Zipf
//! sampler, id scrambling and the per-workload edge streams.
//!
//! Nothing here depends on `graph-datasets` or `rand`, so a refactor there
//! cannot shift the load. Everything is integer arithmetic or IEEE
//! multiply/add (no `powf`), so the same seed gives the same stream on every
//! machine; [`Fingerprint`] hashes what was generated so drift is detected.

use std::collections::HashSet;

/// An edge of a generated stream. Ids fit in 32 bits, which halves the
/// generator's own memory next to the structure being measured.
pub type Edge = (u32, u32);

/// SplitMix64 (Steele, Lea, Flood 2014): the whole state is one `u64`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` by multiply-shift (bias below 2⁻³² for our `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Maps a popularity rank to an id in `[0, n)` by an affine bijection, so the
/// hot ids are spread over the id space instead of being `0, 1, 2, …`.
/// `A` is a prime far above any `n` we use, hence coprime to it.
pub fn scramble(rank: u64, n: u64) -> u64 {
    const A: u128 = 0x9E37_79B9_7F4A_7C55;
    const B: u128 = 0x5851_F42D_4C95_7F2D;
    ((u128::from(rank) * A + B) % u128::from(n)) as u64
}

/// Zipf(0.8) ranks in `[0, n)` by the inverse CDF of the continuous power
/// law `x^-0.8` on `[1, n+1)`: `F(x) = (x^0.2 - 1) / ((n+1)^0.2 - 1)`, so
/// `x = (1 + u·((n+1)^0.2 - 1))^5`. The exponent is fixed because with it the
/// inverse is a fifth power: five multiplications, bit-exact everywhere.
#[derive(Debug, Clone)]
pub struct Zipf08 {
    n: u64,
    span: f64,
}

impl Zipf08 {
    pub fn new(n: u64) -> Self {
        Self {
            n,
            span: fifth_root((n + 1) as f64) - 1.0,
        }
    }

    pub fn rank(&self, rng: &mut SplitMix64) -> u64 {
        let y = 1.0 + rng.unit() * self.span;
        let x = y * y * y * y * y;
        (x as u64).clamp(1, self.n) - 1
    }

    /// Probability of `rank` under the sampled distribution.
    #[cfg(test)]
    pub fn probability(&self, rank: u64) -> f64 {
        let lo = fifth_root((rank + 1) as f64);
        let hi = fifth_root((rank + 2) as f64);
        (hi - lo) / self.span
    }
}

/// Newton iteration for `a^(1/5)`; converges from above in a few dozen steps
/// for any `a` we pass and uses only IEEE multiply, divide and add.
fn fifth_root(a: f64) -> f64 {
    let mut x = a.max(1.0);
    for _ in 0..200 {
        let next = (4.0 * x + a / (x * x * x * x)) / 5.0;
        if next >= x {
            break;
        }
        x = next;
    }
    x
}

/// How a workload's edge stream is distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Both endpoints Zipf(0.8) over `ids` scrambled ids.
    Zipf { ids: u32 },
    /// `sources` sources with exactly `per_source` distinct targets each,
    /// sources and targets drawn from `ids` ids; arrival order shuffled.
    Hubs {
        sources: u32,
        per_source: u32,
        ids: u32,
    },
    /// Both endpoints uniform over `ids` ids.
    Uniform { ids: u32 },
}

impl Shape {
    /// Size of the id space; every generated id is below it, so `id + ids()`
    /// is an id that no stream edge uses.
    pub fn ids(&self) -> u32 {
        match *self {
            Shape::Zipf { ids } | Shape::Hubs { ids, .. } | Shape::Uniform { ids } => ids,
        }
    }
}

/// `count` distinct edges of `shape`, in arrival order.
pub fn edge_stream(shape: Shape, count: usize, rng: &mut SplitMix64) -> Vec<Edge> {
    match shape {
        Shape::Hubs {
            sources,
            per_source,
            ids,
        } => {
            assert_eq!(count, sources as usize * per_source as usize);
            let mut edges = Vec::with_capacity(count);
            let mut pool: Vec<u32> = (0..ids).collect();
            for s in 0..sources {
                let u = scramble(u64::from(s), u64::from(ids)) as u32;
                // Partial Fisher–Yates: the first `per_source` entries are a
                // uniform sample without replacement.
                for i in 0..per_source as usize {
                    let j = i + rng.below((pool.len() - i) as u64) as usize;
                    pool.swap(i, j);
                    edges.push((u, pool[i]));
                }
            }
            rng.shuffle(&mut edges);
            edges
        }
        Shape::Zipf { ids } => {
            let zipf = Zipf08::new(u64::from(ids));
            distinct(count, || {
                let u = scramble(zipf.rank(rng), u64::from(ids)) as u32;
                let v = scramble(zipf.rank(rng), u64::from(ids)) as u32;
                (u, v)
            })
        }
        Shape::Uniform { ids } => distinct(count, || {
            (
                rng.below(u64::from(ids)) as u32,
                rng.below(u64::from(ids)) as u32,
            )
        }),
    }
}

fn distinct(count: usize, mut draw: impl FnMut() -> Edge) -> Vec<Edge> {
    let mut seen = HashSet::with_capacity(count);
    let mut edges = Vec::with_capacity(count);
    while edges.len() < count {
        let e = draw();
        if seen.insert(e) {
            edges.push(e);
        }
    }
    edges
}

/// Order-sensitive 64-bit hash of everything the generator produced for a
/// run (FNV-1a over 64-bit words with a final avalanche).
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn edges(&mut self, edges: &[Edge]) {
        for &(u, v) in edges {
            self.word(u64::from(u) << 32 | u64::from(v));
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs for seed 1234567 from the reference C implementation.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn scramble_is_a_bijection() {
        for n in [1u64, 2, 8_000, 8_192, 250_000] {
            let mut seen = vec![false; n as usize];
            for r in 0..n {
                let id = scramble(r, n) as usize;
                assert!(!seen[id], "rank {r} collides in [0, {n})");
                seen[id] = true;
            }
        }
    }

    #[test]
    fn fifth_root_is_exact_on_perfect_powers() {
        for r in [1.0f64, 2.0, 7.0, 12.0] {
            assert!((fifth_root(r.powi(5)) - r).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_ranks_follow_the_power_law() {
        let n = 100_000u64;
        let zipf = Zipf08::new(n);
        let mut rng = SplitMix64::new(7);
        let draws = 2_000_000usize;
        // Decade buckets [1,10), [10,100), … of rank+1.
        let mut observed = [0usize; 6];
        for _ in 0..draws {
            let r = zipf.rank(&mut rng);
            assert!(r < n);
            observed[((r + 1) as f64).log10() as usize] += 1;
        }
        for (decade, &count) in observed.iter().enumerate() {
            let lo = 10u64.pow(decade as u32) - 1;
            let hi = 10u64.pow(decade as u32 + 1) - 1;
            let expected: f64 = (lo..hi.min(n)).map(|r| zipf.probability(r)).sum();
            let got = count as f64 / draws as f64;
            assert!(
                (got - expected).abs() < 0.01 * expected.max(0.01),
                "decade {decade}: got {got}, expected {expected}"
            );
        }
        // Exponent 0.8: each decade carries about 10^0.2 = 1.58 times the
        // mass of the one below it.
        let ratio = observed[3] as f64 / observed[2] as f64;
        assert!((ratio - 10f64.powf(0.2)).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn hubs_stream_has_the_exact_shape() {
        let shape = Shape::Hubs {
            sources: 50,
            per_source: 40,
            ids: 400,
        };
        let edges = edge_stream(shape, 2_000, &mut SplitMix64::new(3));
        let distinct: HashSet<Edge> = edges.iter().copied().collect();
        assert_eq!(distinct.len(), 2_000);
        let mut degree = std::collections::BTreeMap::new();
        for &(u, v) in &edges {
            assert!(u < 400 && v < 400);
            *degree.entry(u).or_insert(0usize) += 1;
        }
        assert_eq!(degree.len(), 50);
        assert!(degree.values().all(|&d| d == 40));
        // Shuffled arrival: the first source's edges are not one run.
        assert!(edges[..40].iter().any(|e| e.0 != edges[0].0));
    }

    #[test]
    fn streams_are_distinct_and_repeat_with_the_seed() {
        for shape in [Shape::Zipf { ids: 5_000 }, Shape::Uniform { ids: 5_000 }] {
            let a = edge_stream(shape, 20_000, &mut SplitMix64::new(11));
            let b = edge_stream(shape, 20_000, &mut SplitMix64::new(11));
            let c = edge_stream(shape, 20_000, &mut SplitMix64::new(12));
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert_eq!(a.iter().copied().collect::<HashSet<_>>().len(), 20_000);
            assert!(a.iter().all(|&(u, v)| u < 5_000 && v < 5_000));
        }
    }

    #[test]
    fn fingerprint_depends_on_order_and_content() {
        let mut a = Fingerprint::default();
        a.edges(&[(1, 2), (3, 4)]);
        let mut b = Fingerprint::default();
        b.edges(&[(3, 4), (1, 2)]);
        let mut c = Fingerprint::default();
        c.edges(&[(1, 2), (3, 4)]);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(a.finish(), c.finish());
        c.bytes(b"GRAPH.ADDEDGE");
        assert_ne!(a.finish(), c.finish());
    }
}
