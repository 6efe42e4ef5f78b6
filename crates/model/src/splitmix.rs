//! The workspace's one seeded random stream.

/// A splitmix64 generator: every seeded adversary of the workspace draws
/// from it (the simulator's random schedules, the replicated log's
/// asynchronous prefixes, the chaos tests), so a seed names the same run
/// wherever it is replayed. Its streams are deterministic functions of the
/// seed; statistical quality beyond that is not a goal.
///
/// # Examples
///
/// ```
/// use indulgent_model::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream starts from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` from the next value's top 53 bits.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`, which must lie in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.next_unit() < p
    }

    /// A draw in `0..bound`, `bound > 0`: the next value modulo `bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Shuffles `items` in place (Fisher–Yates, last position first).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}
