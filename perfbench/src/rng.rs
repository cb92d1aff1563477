//! A small deterministic generator (SplitMix64): every input the
//! benchmark builds derives from the `--seed` argument through it.

/// SplitMix64 state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, stream)`, so one workload's
    /// inputs do not shift when another part draws more numbers.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
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

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        // n is a corpus or fleet size, far below 2^32: the modulo bias
        // is negligible.
        (self.next_u64() % n as u64) as usize
    }

    /// The indices `0..n` in a uniformly shuffled order.
    pub fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }

    /// `len` indices in `0..n` (`n > 0`) dealt as whole shuffled rounds
    /// one after another: each index appears `len / n` times or once
    /// more, so the mix is the same for every seed and only the order
    /// is drawn.
    pub fn deal(&mut self, n: usize, len: usize) -> Vec<usize> {
        std::iter::repeat_with(|| self.shuffled(n))
            .flatten()
            .take(len)
            .collect()
    }

    /// [`Rng::deal`] without end.
    pub fn rounds(mut self, n: usize) -> impl Iterator<Item = usize> {
        std::iter::repeat_with(move || self.shuffled(n)).flatten()
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deal_balances_the_mix() {
        let d = Rng::new(7).deal(5, 23);
        assert_eq!(d.len(), 23);
        for i in 0..5 {
            let k = d.iter().filter(|&&x| x == i).count();
            assert!(k == 4 || k == 5, "{i} dealt {k} times");
        }
        assert_ne!(d, Rng::new(8).deal(5, 23));
    }
}
