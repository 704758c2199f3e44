//! Rank-similarity assemblies (§IV-A-5..8): LWL-rank, PWL-rank, STR-rank
//! and STR-median.
//!
//! Each pool stays sorted by block program-latency sum; within a window the
//! combination minimizing the Equation-1 pairwise rank distance wins. The
//! four variants differ only in how a block is reduced to a comparison
//! vector.

use crate::assembly::windowed::assemble_rounds;
use crate::assembly::Assembler;
use crate::distance::rank_distance;
use crate::eigen::EigenSequence;
use crate::profile::BlockPool;
use crate::rank;
use crate::superblock::Superblock;

/// How a block's word-line latencies are reduced for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankStrategy {
    /// Rank all logical word-lines together (ranks `0..lwls`).
    Lwl,
    /// Rank each string's physical word-lines (ranks `0..layers`).
    Pwl,
    /// Rank the strings within each layer (ranks `0..strings`).
    Str,
    /// One bit per word-line: fastest half of strings per layer → 0.
    StrMedian,
}

impl RankStrategy {
    fn paper_name(self) -> &'static str {
        match self {
            RankStrategy::Lwl => "LWL-RANK",
            RankStrategy::Pwl => "PWL-RANK",
            RankStrategy::Str => "STR-RANK",
            RankStrategy::StrMedian => "STR-MED",
        }
    }
}

enum Vectors {
    Ranks(Vec<Vec<Vec<u32>>>),
    Eigens(Vec<Vec<EigenSequence>>),
}

/// Windowed assembly minimizing summed pairwise rank distance.
#[derive(Debug, Clone, Copy)]
pub struct RankAssembly {
    strategy: RankStrategy,
    window: usize,
}

impl RankAssembly {
    /// A rank assembly with the given strategy and window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(strategy: RankStrategy, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        RankAssembly { strategy, window }
    }

    /// The comparison strategy.
    #[must_use]
    pub fn strategy(&self) -> RankStrategy {
        self.strategy
    }

    /// The window size.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    fn precompute(&self, pool: &BlockPool) -> Vectors {
        let strings = pool.strings();
        match self.strategy {
            RankStrategy::StrMedian => Vectors::Eigens(
                (0..pool.pool_count())
                    .map(|p| {
                        pool.pool(p)
                            .iter()
                            .map(|b| rank::str_median_eigen(b.tprog_us(), strings))
                            .collect()
                    })
                    .collect(),
            ),
            _ => Vectors::Ranks(
                (0..pool.pool_count())
                    .map(|p| {
                        pool.pool(p)
                            .iter()
                            .map(|b| match self.strategy {
                                RankStrategy::Lwl => rank::lwl_ranks(b.tprog_us()),
                                RankStrategy::Pwl => rank::pwl_ranks(b.tprog_us(), strings),
                                RankStrategy::Str => rank::str_ranks(b.tprog_us(), strings),
                                RankStrategy::StrMedian => unreachable!(),
                            })
                            .collect()
                    })
                    .collect(),
            ),
        }
    }
}

impl Assembler for RankAssembly {
    fn name(&self) -> String {
        format!("{}({})", self.strategy.paper_name(), self.window)
    }

    fn assemble(&mut self, pool: &BlockPool) -> Vec<Superblock> {
        let vectors = self.precompute(pool);
        let distance = |p: usize, i: usize, q: usize, j: usize| -> u32 {
            match &vectors {
                Vectors::Ranks(r) => rank_distance(&r[p][i], &r[q][j]),
                Vectors::Eigens(e) => e[p][i].distance(&e[q][j]),
            }
        };
        let mut memo = WindowDistances::new(pool.pool_count(), self.window);
        assemble_rounds(pool, self.window, |windows| {
            memo.update(windows, distance);
            memo.best_combination(windows)
        })
    }
}

/// Pairwise distances between the current windows of every pool pair.
///
/// A block stays in its pool's window from the round it enters until the
/// round it is picked, so a pair's distance is computed once, when the
/// later of its two blocks enters, and carried over from then on: of the
/// 64 pairs a window-8 pool pair needs each round, 15 are new.
struct WindowDistances {
    pools: usize,
    window: usize,
    /// Last round's window (profile indices) of every pool.
    members: Vec<Vec<usize>>,
    /// Per pool pair `p < q` at `p * pools + q`: `window × window`, one row
    /// per position in `q`'s window, one column per position in `p`'s, so
    /// the distances of all of `p`'s candidates to one of `q`'s are
    /// contiguous.
    dist: Vec<Vec<u32>>,
    /// Where each current window position sat last round, per pool.
    carried: Vec<Vec<Option<usize>>>,
    spare: Vec<u32>,
}

/// The best combination found so far, and the picks being explored.
struct Incumbent {
    picks: Vec<usize>,
    score: u64,
    best: Vec<usize>,
}

impl WindowDistances {
    fn new(pools: usize, window: usize) -> Self {
        WindowDistances {
            pools,
            window,
            members: vec![Vec::new(); pools],
            dist: vec![vec![0; window * window]; pools * pools],
            carried: vec![Vec::new(); pools],
            spare: vec![0; window * window],
        }
    }

    fn update(
        &mut self,
        windows: &[&[usize]],
        distance: impl Fn(usize, usize, usize, usize) -> u32,
    ) {
        let w = self.window;
        for ((carried, members), window) in self.carried.iter_mut().zip(&self.members).zip(windows)
        {
            carried.clear();
            carried.extend(window.iter().map(|i| members.iter().position(|m| m == i)));
        }
        for p in 0..self.pools {
            for q in (p + 1)..self.pools {
                let old = &self.dist[p * self.pools + q];
                for (b, &j) in windows[q].iter().enumerate() {
                    for (a, &i) in windows[p].iter().enumerate() {
                        self.spare[b * w + a] = match (self.carried[p][a], self.carried[q][b]) {
                            (Some(oa), Some(ob)) => old[ob * w + oa],
                            _ => distance(p, i, q, j),
                        };
                    }
                }
                std::mem::swap(&mut self.dist[p * self.pools + q], &mut self.spare);
            }
        }
        for (members, window) in self.members.iter_mut().zip(windows) {
            members.clear();
            members.extend_from_slice(window);
        }
    }

    /// Window positions of the first combination, in mixed-radix order
    /// (pool 0 varying fastest), whose summed pairwise distance is strictly
    /// lowest.
    fn best_combination(&self, windows: &[&[usize]]) -> Vec<usize> {
        let sizes: Vec<usize> = windows.iter().map(|w| w.len()).collect();
        let mut scores = vec![0u64; self.pools * self.window];
        let mut inc =
            Incumbent { picks: vec![0; self.pools], score: u64::MAX, best: vec![0; self.pools] };
        if self.pools > 0 {
            self.search(&sizes, self.pools - 1, 0, &mut scores, &mut inc);
        }
        inc.best
    }

    /// Depth-first over pools `level..=0` in mixed-radix order. Each level
    /// scores all its candidates at once: the partial sum plus, per pool
    /// already chosen, one contiguous row of distances. Distances are
    /// non-negative, so a candidate whose partial sum reaches the
    /// incumbent cannot lead to a strictly better combination, and
    /// visiting in mixed-radix order keeps the plain scan's tie-break.
    /// `scores` holds one `window`-long slot per level.
    fn search(
        &self,
        sizes: &[usize],
        level: usize,
        partial: u64,
        scores: &mut [u64],
        inc: &mut Incumbent,
    ) {
        let (lower, this) = scores.split_at_mut(level * self.window);
        let this = &mut this[..sizes[level]];
        this.fill(partial);
        for q in (level + 1)..self.pools {
            let row = &self.dist[level * self.pools + q][inc.picks[q] * self.window..];
            for (score, &d) in this.iter_mut().zip(row) {
                *score += u64::from(d);
            }
        }
        for (i, &score) in this.iter().enumerate() {
            if score >= inc.score {
                continue;
            }
            inc.picks[level] = i;
            if level == 0 {
                inc.score = score;
                inc.best.copy_from_slice(&inc.picks);
            } else {
                self.search(sizes, level - 1, score, lower, inc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::test_support::*;
    use crate::assembly::RandomAssembly;
    use crate::superblock::ExtraLatency;

    fn avg_extra_pgm(pool: &BlockPool, sbs: &[Superblock]) -> f64 {
        sbs.iter().map(|sb| ExtraLatency::of_superblock(pool, sb).unwrap().program_us).sum::<f64>()
            / sbs.len() as f64
    }

    #[test]
    fn all_strategies_produce_valid_assemblies() {
        let pool = synthetic_pool(4, 8, 16);
        for strategy in
            [RankStrategy::Lwl, RankStrategy::Pwl, RankStrategy::Str, RankStrategy::StrMedian]
        {
            let sbs = RankAssembly::new(strategy, 4).assemble(&pool);
            assert_valid_assembly(&pool, &sbs);
        }
    }

    #[test]
    fn str_rank_beats_random() {
        let pool = synthetic_pool(4, 16, 16);
        let ranked = avg_extra_pgm(&pool, &RankAssembly::new(RankStrategy::Str, 8).assemble(&pool));
        let random = avg_extra_pgm(&pool, &RandomAssembly::new(2).assemble(&pool));
        assert!(ranked < random, "STR-RANK {ranked} vs random {random}");
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(RankAssembly::new(RankStrategy::Lwl, 8).name(), "LWL-RANK(8)");
        assert_eq!(RankAssembly::new(RankStrategy::StrMedian, 4).name(), "STR-MED(4)");
    }

    #[test]
    fn window_one_is_program_sort() {
        use crate::assembly::{LatencySortAssembly, SortKey};
        let pool = synthetic_pool(4, 8, 8);
        let ranked = RankAssembly::new(RankStrategy::Str, 1).assemble(&pool);
        let sorted = LatencySortAssembly::new(SortKey::Program).assemble(&pool);
        assert_eq!(ranked, sorted);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = RankAssembly::new(RankStrategy::Str, 0);
    }

    /// The plain windowed scan the memoized, pruned search replaced: every
    /// combination scored from the full comparison vectors.
    fn assemble_brute_force(
        strategy: RankStrategy,
        pool: &BlockPool,
        window: usize,
    ) -> Vec<Superblock> {
        use crate::assembly::windowed::for_each_combo;
        use crate::distance::combination_rank_distance;
        let vectors = RankAssembly::new(strategy, window).precompute(pool);
        let pools = pool.pool_count();
        assemble_rounds(pool, window, |windows| {
            let sizes: Vec<usize> = windows.iter().map(|w| w.len()).collect();
            let mut best_score = u64::MAX;
            let mut best = vec![0usize; pools];
            for_each_combo(&sizes, |picks| {
                let blocks = picks.iter().enumerate().map(|(p, &k)| (p, windows[p][k]));
                let s = match &vectors {
                    Vectors::Ranks(r) => {
                        let members: Vec<&[u32]> = blocks.map(|(p, i)| &r[p][i][..]).collect();
                        combination_rank_distance(&members)
                    }
                    Vectors::Eigens(e) => {
                        let members: Vec<&EigenSequence> = blocks.map(|(p, i)| &e[p][i]).collect();
                        let mut total = 0u64;
                        for (a, x) in members.iter().enumerate() {
                            for y in &members[a + 1..] {
                                total += u64::from(x.distance(y));
                            }
                        }
                        total
                    }
                };
                if s < best_score {
                    best_score = s;
                    best.copy_from_slice(picks);
                }
            });
            best
        })
    }

    #[test]
    fn matches_plain_brute_force() {
        // Exact equality, including tie-breaks. Block counts are not
        // multiples of the windows, so late rounds see short windows, and
        // one pool carries surplus blocks.
        let strategies =
            [RankStrategy::Lwl, RankStrategy::Pwl, RankStrategy::Str, RankStrategy::StrMedian];
        for pools in 1..=4 {
            for window in [1, 3, 8, 12] {
                for blocks in [7, 13] {
                    let mut pool = synthetic_pool(pools, blocks, 16);
                    let extra = synthetic_pool(1, blocks + 2, 16);
                    for b in &extra.pool(0)[blocks..] {
                        pool.push(pools - 1, b.clone()).unwrap();
                    }
                    for strategy in strategies {
                        let fast = RankAssembly::new(strategy, window).assemble(&pool);
                        let slow = assemble_brute_force(strategy, &pool, window);
                        assert_eq!(
                            fast, slow,
                            "{strategy:?} pools={pools} window={window} blocks={blocks}"
                        );
                    }
                }
            }
        }
    }
}
