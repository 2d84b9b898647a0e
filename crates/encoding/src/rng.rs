//! Deterministic pseudo-random numbers (xorshift64*).
//!
//! The workspace uses this instead of `rand` so that generated datasets and
//! randomized tests are bit-identical across runs and platforms — benchmark
//! inputs must not drift between invocations, and a failing randomized test
//! must reproduce from its seed alone. `sc-datagen`'s feed generators draw
//! from it, and test suites use it directly as a small deterministic
//! replacement for property-testing generators.

/// A small, fast, seedable PRNG (xorshift64* with the standard multiplier).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator; a zero seed is remapped (xorshift needs nonzero
    /// state).
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, n)`. Panics if `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range(0)");
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // small ranges used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn gen_between(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "gen_between({lo}, {hi})");
        let span = hi as i128 - lo as i128 + 1;
        if span > u64::MAX as i128 {
            // Only possible for the full i64 range: every value is valid.
            return self.next_u64() as i64;
        }
        lo.wrapping_add(self.gen_range(span as u64) as i64)
    }

    /// Uniform `i64` over the full range.
    pub fn gen_i64(&mut self) -> i64 {
        self.next_u64() as i64
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Picks an element of a non-empty slice.
    pub fn choice<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_range(items.len() as u64) as usize]
    }

    /// Bernoulli draw with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Bounded random walk step: moves `current` by ±`step` (clamped).
    pub fn walk(&mut self, current: i64, step: i64, lo: i64, hi: i64) -> i64 {
        let delta = self.gen_between(-step, step);
        (current + delta).clamp(lo, hi)
    }

    /// Random bytes of length drawn uniformly from `[0, max_len]`.
    pub fn gen_bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.gen_range(max_len as u64 + 1) as usize;
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// Random printable-ASCII string of length drawn from `[0, max_len]`.
    pub fn gen_ascii(&mut self, max_len: usize) -> String {
        let len = self.gen_range(max_len as u64 + 1) as usize;
        (0..len)
            .map(|_| (b' ' + self.gen_range(95) as u8) as char)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(Rng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = Rng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let v = r.gen_range(10);
            assert!(v < 10);
            let b = r.gen_between(-5, 5);
            assert!((-5..=5).contains(&b));
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn full_range_between_does_not_overflow() {
        let mut r = Rng::new(3);
        for _ in 0..100 {
            let _ = r.gen_between(i64::MIN, i64::MAX);
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Rng::new(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.gen_range(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn walk_stays_in_bounds() {
        let mut r = Rng::new(11);
        let mut v = 5;
        for _ in 0..1000 {
            v = r.walk(v, 3, 0, 30);
            assert!((0..=30).contains(&v));
        }
    }

    #[test]
    fn choice_picks_members() {
        let mut r = Rng::new(13);
        let items = ["a", "b", "c"];
        for _ in 0..50 {
            assert!(items.contains(r.choice(&items)));
        }
    }

    #[test]
    fn string_and_byte_generators_respect_bounds() {
        let mut r = Rng::new(17);
        for _ in 0..200 {
            let s = r.gen_ascii(16);
            assert!(s.len() <= 16);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)));
            let b = r.gen_bytes(12);
            assert!(b.len() <= 12);
        }
    }
}
