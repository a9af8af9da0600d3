//! Flat bit vector with word-level scanning.
//!
//! [`Bitmap`] is the building block of the SMASH hierarchy. It stores bits
//! in 64-bit words and exposes the operations the software-only scanner of
//! paper §4.4 performs: word loads, count-trailing-zeros to find the next
//! set bit, and AND-masking to clear it.

/// Growable bit vector backed by `u64` words.
///
/// # Example
///
/// ```
/// use smash_core::Bitmap;
///
/// let mut b = Bitmap::zeros(130);
/// b.set(0, true);
/// b.set(129, true);
/// assert_eq!(b.count_ones(), 2);
/// assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates a bitmap of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates an empty bitmap that can grow via [`Bitmap::push`].
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// Builds a bitmap from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut b = Bitmap::zeros(bits.len());
        for (i, &v) in bits.iter().enumerate() {
            if v {
                b.set(i, true);
            }
        }
        b
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Sets bit `idx` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let (w, b) = (idx / 64, idx % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Appends a bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            let idx = self.len - 1;
            self.words[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// Appends `count` copies of `value`, one word at a time.
    pub fn extend_with(&mut self, count: usize, value: bool) {
        let fill = if value { u64::MAX } else { 0 };
        let mut remaining = count;
        while remaining > 0 {
            let take = remaining.min(64);
            self.push_bits(fill, take);
            remaining -= take;
        }
    }

    /// 64 bits starting at bit `idx` (unaligned read across word
    /// boundaries; bits past the end read as zero).
    pub(crate) fn word_at(&self, idx: usize) -> u64 {
        debug_assert!(idx <= self.len, "word_at {idx} out of range {}", self.len);
        let (wi, off) = (idx / 64, idx % 64);
        let lo = self.words.get(wi).copied().unwrap_or(0) >> off;
        if off == 0 {
            lo
        } else {
            lo | self.words.get(wi + 1).copied().unwrap_or(0) << (64 - off)
        }
    }

    /// Appends the low `n` bits of `word` (`n <= 64`).
    pub(crate) fn push_bits(&mut self, word: u64, n: usize) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let w = if n == 64 {
            word
        } else {
            word & ((1u64 << n) - 1)
        };
        let off = self.len % 64;
        if off == 0 {
            self.words.push(w);
        } else {
            let last = self.words.len() - 1;
            self.words[last] |= w << off;
            if off + n > 64 {
                self.words.push(w >> (64 - off));
            }
        }
        self.len += n;
    }

    /// ORs the low `n` bits of `word` into positions `[idx, idx + n)`
    /// (`n <= 64`, range must be in bounds).
    pub(crate) fn or_bits_at(&mut self, idx: usize, word: u64, n: usize) {
        debug_assert!(n <= 64 && idx + n <= self.len, "or_bits_at out of range");
        if n == 0 {
            return;
        }
        let w = if n == 64 {
            word
        } else {
            word & ((1u64 << n) - 1)
        };
        let (wi, off) = (idx / 64, idx % 64);
        self.words[wi] |= w << off;
        if off > 0 && off + n > 64 {
            self.words[wi + 1] |= w >> (64 - off);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits in `[0, idx)` (rank), by scanning every word
    /// below `idx`.
    ///
    /// O(n), and no kernel calls it: the line directory counts set bits
    /// in one running pass at build time, and the line cursor walks rows
    /// without ranking. The scan serves as a test oracle.
    ///
    /// # Panics
    ///
    /// Panics if `idx > len`.
    pub fn rank(&self, idx: usize) -> usize {
        assert!(
            idx <= self.len,
            "rank index {idx} out of range {}",
            self.len
        );
        let full_words = idx / 64;
        let mut count: usize = self.words[..full_words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let rem = idx % 64;
        if rem != 0 {
            count += (self.words[full_words] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        count
    }

    /// Whether any bit in `[lo, hi)` is set.
    ///
    /// # Panics
    ///
    /// Panics if `hi > len` or `lo > hi`.
    pub fn any_in_range(&self, lo: usize, hi: usize) -> bool {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds");
        let mut i = lo;
        while i < hi {
            let w = i / 64;
            let bit = i % 64;
            let span = (64 - bit).min(hi - i);
            let mask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << bit
            };
            if self.words[w] & mask != 0 {
                return true;
            }
            i += span;
        }
        false
    }

    /// Index of the first set bit at or after `from`, scanning by word and
    /// using count-trailing-zeros — the software scanner of paper §4.4.
    #[inline]
    pub fn next_one(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut w = from / 64;
        // Mask off bits below `from` within the first word.
        let mut word = self.words[w] & (u64::MAX << (from % 64));
        if word == 0 {
            w = first_nonzero_word(&self.words, w + 1)?;
            word = self.words[w];
        }
        let idx = w * 64 + word.trailing_zeros() as usize;
        (idx < self.len).then_some(idx)
    }

    /// Iterates over indices of set bits in increasing order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The backing words (the final word's unused high bits are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Storage footprint in bits (the logical length; this is what the SMASH
    /// storage accounting of Fig. 19 charges).
    pub fn storage_bits(&self) -> usize {
        self.len
    }

    /// Storage footprint in whole bytes.
    pub fn storage_bytes(&self) -> usize {
        self.len.div_ceil(8)
    }
}

/// Index of the first non-zero word at or after `w`. Tests eight words
/// per step, so a run of zero words in a sparse upper bitmap level costs
/// one branch per eight words, not one per word.
fn first_nonzero_word(words: &[u64], mut w: usize) -> Option<usize> {
    while let Some(chunk) = words.get(w..w + 8) {
        let mask = chunk
            .iter()
            .enumerate()
            .fold(0u32, |m, (i, &x)| m | (u32::from(x != 0) << i));
        if mask != 0 {
            return Some(w + mask.trailing_zeros() as usize);
        }
        w += 8;
    }
    let w = w.min(words.len());
    words[w..].iter().position(|&x| x != 0).map(|i| w + i)
}

/// Iterator over set-bit indices, produced by [`Bitmap::iter_ones`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                let idx = self.word_idx * 64 + bit;
                return if idx < self.bitmap.len {
                    Some(idx)
                } else {
                    None
                };
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut b = Bitmap::new();
        for v in iter {
            b.push(v);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_are_all_clear() {
        let b = Bitmap::zeros(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(99));
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut b = Bitmap::zeros(130);
        for &i in &[0, 63, 64, 65, 127, 128, 129] {
            b.set(i, true);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 7);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 6);
    }

    #[test]
    fn push_grows() {
        let mut b = Bitmap::new();
        for i in 0..200 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 200);
        assert_eq!(b.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut b = Bitmap::zeros(300);
        let set = [1usize, 2, 63, 64, 190, 299];
        for &i in &set {
            b.set(i, true);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), set);
    }

    #[test]
    fn next_one_scans_forward() {
        let mut b = Bitmap::zeros(200);
        b.set(5, true);
        b.set(130, true);
        assert_eq!(b.next_one(0), Some(5));
        assert_eq!(b.next_one(5), Some(5));
        assert_eq!(b.next_one(6), Some(130));
        assert_eq!(b.next_one(131), None);
    }

    #[test]
    fn rank_counts_prefix() {
        let b = Bitmap::from_bools(&[true, false, true, true, false]);
        assert_eq!(b.rank(0), 0);
        assert_eq!(b.rank(1), 1);
        assert_eq!(b.rank(3), 2);
        assert_eq!(b.rank(5), 3);
    }

    #[test]
    fn rank_across_words() {
        let mut b = Bitmap::zeros(256);
        for i in (0..256).step_by(2) {
            b.set(i, true);
        }
        assert_eq!(b.rank(128), 64);
        assert_eq!(b.rank(256), 128);
    }

    #[test]
    fn any_in_range_detects_isolated_bit() {
        let mut b = Bitmap::zeros(300);
        b.set(192, true);
        assert!(b.any_in_range(128, 256));
        assert!(b.any_in_range(192, 193));
        assert!(!b.any_in_range(0, 192));
        assert!(!b.any_in_range(193, 300));
        assert!(!b.any_in_range(10, 10));
    }

    #[test]
    fn extend_with_fills_words() {
        let mut b = Bitmap::zeros(3);
        b.extend_with(130, true);
        b.extend_with(70, false);
        assert_eq!(b.len(), 203);
        assert_eq!(b.count_ones(), 130);
        assert!(b.get(3) && b.get(132) && !b.get(133));
    }

    #[test]
    fn word_at_reads_unaligned() {
        let mut b = Bitmap::zeros(200);
        for &i in &[0, 5, 64, 70, 127, 199] {
            b.set(i, true);
        }
        for idx in [0usize, 1, 5, 63, 64, 65, 120, 136, 199, 200] {
            let w = b.word_at(idx);
            for bit in 0..64 {
                let want = idx + bit < 200 && b.get(idx + bit);
                assert_eq!((w >> bit) & 1 == 1, want, "idx {idx} bit {bit}");
            }
        }
    }

    #[test]
    fn or_bits_at_sets_range() {
        let mut b = Bitmap::zeros(200);
        b.or_bits_at(60, 0b1011, 4);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![60, 61, 63]);
        b.or_bits_at(126, u64::MAX, 64);
        assert_eq!(b.count_ones(), 3 + 64);
        assert!(b.get(126) && b.get(189) && !b.get(190));
    }

    #[test]
    fn from_iterator_collects() {
        let b: Bitmap = (0..10).map(|i| i % 2 == 1).collect();
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    fn storage_accounting() {
        let b = Bitmap::zeros(9);
        assert_eq!(b.storage_bits(), 9);
        assert_eq!(b.storage_bytes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::zeros(3).get(3);
    }
}
