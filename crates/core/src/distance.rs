//! Equation (1): rank distance between blocks.

/// Number of word-line positions where two rank vectors disagree — the
/// paper's `SIM(i, j, wl)` summed over word-lines.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[must_use]
pub fn rank_distance(a: &[u32], b: &[u32]) -> u32 {
    assert_eq!(a.len(), b.len(), "rank vectors must have equal length");
    a.iter().zip(b).map(|(x, y)| u32::from(x != y)).sum()
}

/// Equation (1) over a whole combination: the sum of [`rank_distance`] over
/// every unordered pair of member rank vectors.
#[must_use]
pub fn combination_rank_distance(members: &[&[u32]]) -> u64 {
    let mut total = 0u64;
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            total += u64::from(rank_distance(members[i], members[j]));
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_have_zero_distance() {
        assert_eq!(rank_distance(&[1, 2, 3], &[1, 2, 3]), 0);
    }

    #[test]
    fn counts_each_differing_position_once() {
        assert_eq!(rank_distance(&[1, 2, 3, 4], &[1, 9, 3, 9]), 2);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [3, 1, 4, 1, 5];
        let b = [2, 7, 1, 8, 2];
        assert_eq!(rank_distance(&a, &b), rank_distance(&b, &a));
    }

    #[test]
    fn triangle_inequality_holds() {
        // Hamming-style distances satisfy the triangle inequality.
        let a = [0, 1, 2, 3];
        let b = [0, 9, 2, 9];
        let c = [9, 9, 9, 9];
        assert!(rank_distance(&a, &c) <= rank_distance(&a, &b) + rank_distance(&b, &c));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = rank_distance(&[1], &[1, 2]);
    }

    #[test]
    fn combination_distance_sums_pairs() {
        let a: &[u32] = &[0, 0];
        let b: &[u32] = &[0, 1];
        let c: &[u32] = &[1, 1];
        // ab=1, ac=2, bc=1.
        assert_eq!(combination_rank_distance(&[a, b, c]), 4);
    }

    #[test]
    fn combination_of_one_is_zero() {
        assert_eq!(combination_rank_distance(&[&[1u32, 2][..]]), 0);
        assert_eq!(combination_rank_distance(&[]), 0);
    }
}
