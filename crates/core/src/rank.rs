//! Ranking strategies over a block's word-line program latencies (§IV-A).
//!
//! All rankings operate on the layer-major latency vector of a block
//! (`lwl = layer * strings + string`) and break ties by index, matching the
//! paper's "sequentially assigns" rule. Each produces a rank vector aligned
//! with the word-line order so two blocks can be compared position by
//! position (Equation 1).

use crate::eigen::EigenSequence;

/// Ranks every logical word-line of the block by program latency
/// (0 = fastest). This is the paper's *LWL-rank* (ranks span `0..lwls`).
#[must_use]
pub fn lwl_ranks(tprog_us: &[f64]) -> Vec<u32> {
    rank_all(tprog_us)
}

/// Ranks each string's physical word-lines independently (*PWL-rank*): the
/// entry at `lwl(layer, string)` is the rank of `layer` among that string's
/// layers (ranks span `0..layers`).
///
/// # Panics
///
/// Panics if `tprog_us.len()` is not a multiple of `strings`.
#[must_use]
pub fn pwl_ranks(tprog_us: &[f64], strings: u16) -> Vec<u32> {
    let s = usize::from(strings);
    assert!(s > 0 && tprog_us.len().is_multiple_of(s), "latency vector not layer-major");
    let layers = tprog_us.len() / s;
    let (ids, distinct) = dense_ids(tprog_us);
    let mut out = vec![0u32; tprog_us.len()];
    let mut next = Vec::with_capacity(distinct);
    for string in 0..s {
        // This string's latencies across layers, by layer id.
        let column = (0..layers).map(|layer| ids[layer * s + string]);
        rank_dense(column, distinct, &mut next, |layer, rank| out[layer * s + string] = rank);
    }
    out
}

/// Ranks the strings within each physical word-line layer (*STR-rank*): the
/// entry at `lwl(layer, string)` is the rank of `string` on that layer
/// (ranks span `0..strings`).
///
/// # Panics
///
/// Panics if `tprog_us.len()` is not a multiple of `strings`.
#[must_use]
pub fn str_ranks(tprog_us: &[f64], strings: u16) -> Vec<u32> {
    let s = usize::from(strings);
    assert!(s > 0 && tprog_us.len().is_multiple_of(s), "latency vector not layer-major");
    let mut out = vec![0u32; tprog_us.len()];
    for (row, ranks) in tprog_us.chunks_exact(s).zip(out.chunks_exact_mut(s)) {
        // A layer has a handful of strings: count directly, no sort.
        for (string, (&t, rank)) in row.iter().zip(ranks.iter_mut()).enumerate() {
            let before = row[..string].iter().filter(|&&u| u <= t).count();
            let after = row[string + 1..].iter().filter(|&&u| u < t).count();
            *rank = (before + after) as u32;
        }
    }
    out
}

/// The *STR-median* 1-bit quantization (§IV-A-8, §V-B): on each physical
/// word-line layer the fastest half of the strings get bit 0, the rest get
/// bit 1; ties are broken by string index ("sequentially assigns bits zero
/// to the first two word-lines").
///
/// ```
/// use pvcheck::rank::str_median_eigen;
///
/// // One layer, four strings: strings 0 and 2 are fastest.
/// let eigen = str_median_eigen(&[10.0, 30.0, 20.0, 40.0], 4);
/// assert_eq!(eigen.to_string(), "0101");
/// ```
///
/// # Panics
///
/// Panics if `tprog_us.len()` is not a multiple of `strings`.
#[must_use]
pub fn str_median_eigen(tprog_us: &[f64], strings: u16) -> EigenSequence {
    let ranks = str_ranks(tprog_us, strings);
    let fast = u32::from(strings / 2).max(1);
    ranks.iter().map(|&r| r >= fast).collect()
}

/// Ranks an arbitrary latency vector (0 = fastest, ties by index).
fn rank_all(values: &[f64]) -> Vec<u32> {
    let (ids, distinct) = dense_ids(values);
    let mut out = vec![0u32; values.len()];
    rank_dense(ids.iter().copied(), distinct, &mut Vec::new(), |i, rank| out[i] = rank);
    out
}

/// Each latency's index among the distinct latencies of `values`, in
/// ascending order (equal latencies share an index), and how many distinct
/// latencies there are.
fn dense_ids(values: &[f64]) -> (Vec<u32>, usize) {
    let keys: Vec<u64> = values.iter().map(|&v| order_key(v)).collect();
    let mut distinct = keys.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let ids = keys
        .iter()
        .map(|key| distinct.binary_search(key).expect("every key is a distinct key") as u32)
        .collect();
    (ids, distinct.len())
}

/// Ranks a sequence of dense ids (0 = smallest, ties by position), calling
/// `place(position, rank)` for each: a stable counting sort, so an entry's
/// rank is the number of smaller entries plus the number of equal entries
/// before it. Characterized blocks repeat a handful of pulse-quantized
/// latencies across hundreds of word-lines, which makes counting much
/// cheaper than sorting positions by comparator. `next` is scratch.
fn rank_dense(
    ids: impl Iterator<Item = u32> + Clone,
    distinct: usize,
    next: &mut Vec<u32>,
    mut place: impl FnMut(usize, u32),
) {
    next.clear();
    next.resize(distinct, 0);
    for id in ids.clone() {
        next[id as usize] += 1;
    }
    // Counts to the first rank of each id.
    let mut first = 0;
    for slot in next.iter_mut() {
        first += std::mem::replace(slot, first);
    }
    for (i, id) in ids.enumerate() {
        let slot = &mut next[id as usize];
        place(i, *slot);
        *slot += 1;
    }
}

/// Monotone `u64` image of a latency: for every non-NaN `a` and `b`,
/// `a < b` exactly when `order_key(a) < order_key(b)`, and `a == b` exactly
/// when the keys are equal (`-0.0` folds onto `+0.0`).
fn order_key(v: f64) -> u64 {
    let bits = if v == 0.0 { 0 } else { v.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // 2 layers x 4 strings, layer-major.
    const T: [f64; 8] = [10.0, 30.0, 20.0, 40.0, 5.0, 5.0, 50.0, 5.0];

    #[test]
    fn lwl_ranks_order_everything() {
        let r = lwl_ranks(&T);
        // Sorted order: 5(idx4),5(idx5),5(idx7),10,20,30,40,50.
        assert_eq!(r, vec![3, 5, 4, 6, 0, 1, 7, 2]);
    }

    #[test]
    fn lwl_ranks_are_a_permutation() {
        let r = lwl_ranks(&T);
        let mut sorted = r.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn str_ranks_rank_within_each_layer() {
        let r = str_ranks(&T, 4);
        // Layer 0: 10,30,20,40 -> ranks 0,2,1,3.
        assert_eq!(&r[0..4], &[0, 2, 1, 3]);
        // Layer 1: 5,5,50,5 -> ties by index: 0,1,3,2.
        assert_eq!(&r[4..8], &[0, 1, 3, 2]);
    }

    #[test]
    fn pwl_ranks_rank_within_each_string() {
        let r = pwl_ranks(&T, 4);
        // String 0: layers (10, 5) -> layer1 faster: ranks layer0=1, layer1=0.
        assert_eq!(r[0], 1);
        assert_eq!(r[4], 0);
        // String 2: layers (20, 50) -> layer0=0, layer1=1.
        assert_eq!(r[2], 0);
        assert_eq!(r[6], 1);
    }

    #[test]
    fn str_median_marks_fastest_half_zero() {
        let e = str_median_eigen(&T, 4);
        // Layer 0: fast = 10,20 (strings 0,2) -> bits 0,1,0,1.
        // Layer 1: ties 5,5,50,5 -> first two fast (strings 0,1) -> 0,0,1,1.
        assert_eq!(e.to_string(), "0101 0011");
    }

    #[test]
    fn str_median_handles_two_strings() {
        let t = [1.0, 2.0, 4.0, 3.0]; // 2 layers x 2 strings
        let e = str_median_eigen(&t, 2);
        assert_eq!(e.to_string(), "0110");
    }

    #[test]
    fn identical_latencies_tie_break_by_index() {
        let t = [7.0; 8];
        let r = str_ranks(&t, 4);
        assert_eq!(&r[0..4], &[0, 1, 2, 3]);
        let e = str_median_eigen(&t, 4);
        assert_eq!(e.to_string(), "0011 0011");
    }

    #[test]
    #[should_panic(expected = "layer-major")]
    fn str_ranks_reject_ragged_input() {
        let _ = str_ranks(&[1.0, 2.0, 3.0], 4);
    }

    /// The paper's Figure 9 worked example (BLK-733): four strings per
    /// layer, eigen bits per layer must match the figure exactly, including
    /// tie-breaking ("sequentially assigns bits zero to the first two").
    #[test]
    fn figure9_worked_example_matches_paper() {
        // PWL 0: 1917.0, 1898.6, 1898.6, 1898.6 -> figure says 1 0 0 1.
        assert_eq!(str_median_eigen(&[1917.0, 1898.6, 1898.6, 1898.6], 4).to_string(), "1001");
        // PWL 1: all 1898.6 -> figure says 0 0 1 1.
        assert_eq!(str_median_eigen(&[1898.6; 4], 4).to_string(), "0011");
        // PWL 94: 1579.1, 1646.6, 1579.1, 1579.1 -> figure says 0 1 0 1.
        assert_eq!(str_median_eigen(&[1579.1, 1646.6, 1579.1, 1579.1], 4).to_string(), "0101");
        // PWL 95: 1898.6, 1910.8, 1880.1, 1910.8 -> figure says 0 1 0 1.
        assert_eq!(str_median_eigen(&[1898.6, 1910.8, 1880.1, 1910.8], 4).to_string(), "0101");
    }

    /// The index-indirect comparator sort the keyed sort replaced.
    fn rank_by_comparator(values: &[f64]) -> Vec<u32> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| {
            values[a].partial_cmp(&values[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        let mut out = vec![0u32; values.len()];
        for (rank, &i) in idx.iter().enumerate() {
            out[i] = rank as u32;
        }
        out
    }

    #[test]
    fn order_key_is_monotone_and_folds_signed_zero() {
        let ascending = [
            f64::NEG_INFINITY,
            -1e300,
            -18.4,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            18.4,
            1700.0,
            1e300,
            f64::INFINITY,
        ];
        for pair in ascending.windows(2) {
            assert!(order_key(pair[0]) < order_key(pair[1]), "{pair:?}");
        }
        assert_eq!(order_key(-0.0), order_key(0.0));
    }

    #[test]
    fn keyed_ranks_match_comparator_sort() {
        // Ties, signed zeros, negatives and quantized latencies.
        let mut values = vec![0.0, -0.0, 5.0, -3.5, 5.0, f64::INFINITY, -0.0, 1e-300];
        values.extend((0..96).map(|i| 1500.0 + 18.4 * f64::from((i * 7 % 11) as u32)));
        assert_eq!(lwl_ranks(&values), rank_by_comparator(&values));
        for strings in [1u16, 2, 4, 8] {
            let s = usize::from(strings);
            let layers = values.len() / s;
            let str_expected: Vec<u32> =
                values.chunks_exact(s).flat_map(rank_by_comparator).collect();
            assert_eq!(str_ranks(&values, strings), str_expected, "strings={strings}");
            let mut pwl_expected = vec![0u32; values.len()];
            for string in 0..s {
                let column: Vec<f64> = (0..layers).map(|l| values[l * s + string]).collect();
                for (layer, rank) in rank_by_comparator(&column).into_iter().enumerate() {
                    pwl_expected[layer * s + string] = rank;
                }
            }
            assert_eq!(pwl_ranks(&values, strings), pwl_expected, "strings={strings}");
        }
    }

    #[test]
    fn rank_vectors_align_with_input_length() {
        assert_eq!(lwl_ranks(&T).len(), 8);
        assert_eq!(pwl_ranks(&T, 4).len(), 8);
        assert_eq!(str_ranks(&T, 4).len(), 8);
        assert_eq!(str_median_eigen(&T, 4).len(), 8);
    }
}
