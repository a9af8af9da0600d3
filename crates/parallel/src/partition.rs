//! Deterministic load-balanced partitioning of row ranges.
//!
//! The parallel kernels split a matrix into contiguous line ranges, one
//! per worker, weighted by non-zero count so a skewed matrix does not
//! leave most workers idle. The split depends only on the weights and the
//! part count — never on thread timing — which is one half of the
//! bit-for-bit determinism guarantee (the other half being that each line
//! is computed exactly as the serial kernel computes it).

use std::ops::Range;

/// Splits `0..n` into at most `parts` contiguous ranges whose summed
/// weights are approximately equal. Every item carries an implicit extra
/// weight of one so that zero-weight items (empty rows) still spread
/// across the ranges.
///
/// The result always covers `0..n` exactly, in order, with no empty
/// ranges (fewer than `parts` ranges are returned when `n < parts`).
///
/// # Example
///
/// ```
/// use smash_parallel::partition_by_weight;
///
/// // Heavily skewed weights: the first range holds just the heavy item.
/// let ranges = partition_by_weight(4, 2, |i| if i == 0 { 100 } else { 1 });
/// assert_eq!(ranges, vec![0..1, 1..4]);
/// ```
pub fn partition_by_weight(
    n: usize,
    parts: usize,
    weight: impl Fn(usize) -> u64,
) -> Vec<Range<usize>> {
    // For n == 0 the loop body never runs and the single range 0..0 falls
    // out of the final push.
    let parts = parts.max(1).min(n.max(1));
    let total: u64 = (0..n).map(|i| weight(i) + 1).sum();
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    for i in 0..n {
        acc += weight(i) + 1;
        // Close the current range once it reaches its pro-rata share, but
        // keep enough items for the remaining ranges to be non-empty.
        let k = ranges.len() as u64 + 1;
        let remaining_parts = parts - ranges.len() - 1;
        if ranges.len() + 1 < parts
            && acc * parts as u64 >= total * k
            && n - (i + 1) >= remaining_parts
        {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    ranges.push(start..n);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_covers(ranges: &[Range<usize>], n: usize) {
        let mut next = 0usize;
        for r in ranges {
            assert_eq!(r.start, next, "ranges must tile contiguously");
            assert!(r.end >= r.start);
            next = r.end;
        }
        assert_eq!(next, n, "ranges must cover 0..{n}");
    }

    #[test]
    fn covers_exactly_for_various_shapes() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 64] {
                let ranges = partition_by_weight(n, parts, |_| 1);
                assert_covers(&ranges, n);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn no_empty_ranges_when_fewer_items_than_parts() {
        let ranges = partition_by_weight(3, 8, |_| 5);
        assert_covers(&ranges, 3);
        assert!(ranges.iter().all(|r| !r.is_empty()));
        assert_eq!(ranges.len(), 3);
    }

    #[test]
    fn balances_skewed_weights() {
        // One huge row followed by many tiny ones: the huge row must not
        // drag half of the tiny rows into its range.
        let weights: Vec<u64> = std::iter::once(10_000)
            .chain(std::iter::repeat_n(10, 99))
            .collect();
        let ranges = partition_by_weight(100, 4, |i| weights[i]);
        assert_covers(&ranges, 100);
        assert_eq!(ranges[0], 0..1, "heavy head isolated: {ranges:?}");
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let w = |i: usize| (i as u64 * 7919) % 97;
        let a = partition_by_weight(500, 8, w);
        let b = partition_by_weight(500, 8, w);
        assert_eq!(a, b);
    }
}
