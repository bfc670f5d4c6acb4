//! Weight levels and epoch arithmetic (paper Definition 4 and the epoch
//! machinery of Section 3).

use crate::math::{floor_log_base, powi};

/// Level of a weight: the integer `j ≥ 0` with `w ∈ [r^j, r^(j+1))`,
/// clamped to 0 for `w < r` (Definition 4 sets level 0 for `w ∈ [0, r)`).
#[inline]
pub fn level_of(weight: f64, r: f64) -> u32 {
    debug_assert!(weight > 0.0 && r > 1.0);
    if weight < r {
        0
    } else {
        floor_log_base(r, weight) as u32
    }
}

/// Highest level a finite weight can have: `level_of(f64::MAX, r)`.
///
/// A `LevelSaturated` broadcast above it names no weight, and setting its
/// bit would grow a [`LevelBits`] by `level / 64` words (512 MiB for
/// `u32::MAX`), so receivers drop such levels.
pub fn max_level(r: f64) -> u32 {
    level_of(f64::MAX, r)
}

/// Epoch index of a threshold statistic `u`: `Some(j)` with
/// `u ∈ [r^j, r^(j+1))` once `u ≥ 1`, `None` before that (the paper's
/// "epoch 0 until u first reaches r"; sites filter nothing while `None`).
#[inline]
pub fn epoch_of(u: f64, r: f64) -> Option<i64> {
    if u >= 1.0 {
        Some(floor_log_base(r, u))
    } else {
        None
    }
}

/// The filtering threshold `r^j` announced for epoch `j`.
pub fn epoch_threshold(epoch: i64, r: f64) -> f64 {
    powi(r, epoch)
}

/// Compact growable bitset over level indices — the per-site `saturated_j`
/// bits (O(1) machine words for any realistic weight range, Proposition 6).
#[derive(Clone, Debug, Default)]
pub struct LevelBits {
    words: Vec<u64>,
}

impl LevelBits {
    /// Empty bitset (all levels unsaturated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Tests bit `level`.
    pub fn get(&self, level: u32) -> bool {
        let w = (level / 64) as usize;
        self.words
            .get(w)
            .is_some_and(|&word| word >> (level % 64) & 1 == 1)
    }

    /// Sets bit `level`.
    pub fn set(&mut self, level: u32) {
        let w = (level / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (level % 64);
    }

    /// Length of the run of set bits that starts at level 0: levels
    /// `0..prefix_len()` are all set and level `prefix_len()` is not.
    pub fn prefix_len(&self) -> u32 {
        let mut len = 0;
        for &word in &self.words {
            len += word.trailing_ones();
            if word != u64::MAX {
                break;
            }
        }
        len
    }

    /// Number of storage words (for space accounting tests).
    pub fn words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_of_basic() {
        // r = 2: [1,2) -> 0 (w < r), [2,4) -> 1, [4,8) -> 2 ...
        assert_eq!(level_of(1.0, 2.0), 0);
        assert_eq!(level_of(1.9, 2.0), 0);
        assert_eq!(level_of(2.0, 2.0), 1);
        assert_eq!(level_of(3.999, 2.0), 1);
        assert_eq!(level_of(4.0, 2.0), 2);
        assert_eq!(level_of(1024.0, 2.0), 10);
    }

    #[test]
    fn level_of_sub_r_weights_are_zero() {
        assert_eq!(level_of(0.25, 2.0), 0);
        assert_eq!(level_of(0.001, 8.0), 0);
        assert_eq!(level_of(7.999, 8.0), 0);
        assert_eq!(level_of(8.0, 8.0), 1);
    }

    #[test]
    fn epoch_of_tracks_u() {
        assert_eq!(epoch_of(0.0, 2.0), None);
        assert_eq!(epoch_of(0.99, 2.0), None);
        assert_eq!(epoch_of(1.0, 2.0), Some(0));
        assert_eq!(epoch_of(1.5, 2.0), Some(0));
        assert_eq!(epoch_of(2.0, 2.0), Some(1));
        assert_eq!(epoch_of(1023.0, 2.0), Some(9));
        assert_eq!(epoch_of(1024.0, 2.0), Some(10));
    }

    #[test]
    fn threshold_is_power() {
        assert_eq!(epoch_threshold(0, 2.0), 1.0);
        assert_eq!(epoch_threshold(3, 2.0), 8.0);
        assert_eq!(epoch_threshold(2, 2.5), 6.25);
    }

    #[test]
    fn level_bits_set_get() {
        let mut b = LevelBits::new();
        assert!(!b.get(0));
        assert!(!b.get(200));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(200);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(200));
        assert!(!b.get(1) && !b.get(65) && !b.get(199));
        // ~200 levels need only 4 words: O(1) space in practice.
        assert!(b.words() <= 4);
    }

    #[test]
    fn level_bits_prefix_len() {
        let mut b = LevelBits::new();
        assert_eq!(b.prefix_len(), 0);
        b.set(1);
        assert_eq!(b.prefix_len(), 0, "level 0 unset");
        b.set(0);
        assert_eq!(b.prefix_len(), 2);
        for level in 2..64 {
            b.set(level);
        }
        assert_eq!(b.prefix_len(), 64, "one full word, next word absent");
        b.set(70);
        assert_eq!(b.prefix_len(), 64, "gap at 64");
        for level in 64..70 {
            b.set(level);
        }
        assert_eq!(b.prefix_len(), 71);
    }

    #[test]
    fn max_level_is_the_level_of_the_largest_weight() {
        // 2^1023 <= f64::MAX < 2^1024.
        assert_eq!(max_level(2.0), 1023);
        for r in [2.0, 3.7, 1000.0] {
            let top = max_level(r);
            assert!(powi(r, i64::from(top)) <= f64::MAX);
            assert_eq!(powi(r, i64::from(top) + 1), f64::INFINITY);
        }
    }

    #[test]
    fn level_and_epoch_consistent() {
        // An item of weight w in level j, when it becomes the s-th largest
        // key region marker u=w, yields epoch >= j is not required; but the
        // bucketing functions must agree on exact powers.
        for j in 0..30u32 {
            let r = 2.0;
            let w = powi(r, j as i64);
            assert_eq!(level_of(w, r), if w < r { 0 } else { j });
            if w >= 1.0 {
                assert_eq!(epoch_of(w, r), Some(j as i64));
            }
        }
    }
}
