//! Local optimal assembly (§IV-A-4): windowed brute force on the real
//! objective.

use crate::assembly::windowed::assemble_rounds;
use crate::assembly::Assembler;
use crate::profile::BlockPool;
use crate::superblock::Superblock;

/// Candidates of one pool scored side by side.
const LANES: usize = 8;

/// Word-lines between checks for dropping a whole lane group.
const DROP_CHECK_WLS: usize = 32;

/// Enumerates every combination of the `window` fastest remaining blocks of
/// each pool and keeps the one with the smallest *actual* extra program
/// latency.
///
/// With window 8 and four pools this checks 4,096 combinations per
/// superblock — the paper's impractical-but-instructive ground reference.
///
/// # Search
///
/// The result is exactly the plain windowed brute force: each round picks
/// the first combination in mixed-radix order (pool 0 varying fastest)
/// whose score — the per-word-line spread `max - min`, summed in
/// word-line order — is strictly lower than every earlier one. The search
/// gets there with less work:
///
/// - It is a depth-first branch and bound from the last pool down to pool
///   0. Each level folds its candidate into the per-word-line min/max of
///   the pools already chosen, and skips the branch once that partial
///   spread reaches the incumbent: adding pools only widens each
///   word-line's spread.
/// - Every pool's window is transposed to word-line-major layout once per
///   round, and each level scores eight candidates side by side, one
///   accumulator each. Independent addition chains advance together
///   instead of one long dependent chain, and the min/max steps
///   vectorize. A lane group is dropped once every lane has reached the
///   incumbent, checked every 32 word-lines.
///
/// Why the winner is bit-identical: each lane adds the same terms in the
/// same word-line order as the plain scan, so a surviving candidate's
/// score has the same bits. Rounding is monotone and every term is
/// non-negative, so a sum over fewer word-lines or fewer pools never
/// exceeds the full score, and every prune discards only combinations that
/// cannot be strictly better. Lanes
/// are offered to the incumbent in lane order, which is mixed-radix order,
/// so ties resolve as in the plain scan.
#[derive(Debug, Clone, Copy)]
pub struct OptimalAssembly {
    window: usize,
}

impl OptimalAssembly {
    /// An optimal assembly with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        OptimalAssembly { window }
    }

    /// The window size.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Assembler for OptimalAssembly {
    fn name(&self) -> String {
        format!("Optimal({})", self.window)
    }

    fn assemble(&mut self, pool: &BlockPool) -> Vec<Superblock> {
        let pools = pool.pool_count();
        let wl_count = pool.wl_count();
        // Scratch min/max buffers, one pair per recursion level above the
        // innermost, and one lane layout per pool, reused across rounds.
        let mut scratch: Vec<(Vec<f64>, Vec<f64>)> =
            vec![(vec![0.0; wl_count], vec![0.0; wl_count]); pools.saturating_sub(1)];
        let mut lanes: Vec<LaneWindow> = (0..pools).map(|_| LaneWindow::default()).collect();
        let top_min = vec![f64::INFINITY; wl_count];
        let top_max = vec![f64::NEG_INFINITY; wl_count];
        assemble_rounds(pool, self.window, |windows| {
            let cands: Vec<Vec<&[f64]>> = (0..pools)
                .map(|p| windows[p].iter().map(|&i| pool.pool(p)[i].tprog_us()).collect())
                .collect();
            for (lane, cand) in lanes.iter_mut().zip(&cands) {
                lane.fill(cand, wl_count);
            }
            let mut search = Search {
                cands: &cands,
                lanes: &lanes,
                wl_count,
                picks: vec![0; pools],
                best_score: f64::INFINITY,
                best: vec![0; pools],
            };
            if !cands.iter().any(Vec::is_empty) {
                search.visit(pools - 1, &top_min, &top_max, &mut scratch);
            }
            search.best
        })
    }
}

/// One pool's window in word-line-major lane groups: row
/// `g * wl_count + wl` holds word-line `wl` of window positions
/// `g * LANES..(g + 1) * LANES`. Lanes past the last candidate are padding.
#[derive(Default)]
struct LaneWindow {
    rows: Vec<[f64; LANES]>,
    count: usize,
}

impl LaneWindow {
    fn fill(&mut self, cands: &[&[f64]], wl_count: usize) {
        self.rows.clear();
        self.rows.resize(cands.len().div_ceil(LANES) * wl_count, [0.0; LANES]);
        for (i, cand) in cands.iter().enumerate() {
            let group = &mut self.rows[(i / LANES) * wl_count..][..wl_count];
            for (row, &t) in group.iter_mut().zip(cand.iter()) {
                row[i % LANES] = t;
            }
        }
        self.count = cands.len();
    }
}

/// Per-lane spread sums of one lane group merged into the chosen pools'
/// per-word-line min/max, each summed in word-line order — or `None` once
/// all `live` lanes have reached `best`.
fn spread_sums(
    rows: &[[f64; LANES]],
    suffix_min: &[f64],
    suffix_max: &[f64],
    live: usize,
    best: f64,
) -> Option<[f64; LANES]> {
    let mut acc = [0.0f64; LANES];
    let chunks = rows
        .chunks(DROP_CHECK_WLS)
        .zip(suffix_min.chunks(DROP_CHECK_WLS))
        .zip(suffix_max.chunks(DROP_CHECK_WLS));
    for ((rows, lo), hi) in chunks {
        for ((row, &lo), &hi) in rows.iter().zip(lo).zip(hi) {
            for (a, &t) in acc.iter_mut().zip(row) {
                let max = if t > hi { t } else { hi };
                let min = if t < lo { t } else { lo };
                *a += max - min;
            }
        }
        if acc[..live].iter().all(|&a| a >= best) {
            return None;
        }
    }
    Some(acc)
}

/// One round's branch and bound: enumerates pick combinations in
/// mixed-radix order (pool 0 varying fastest, exactly like the plain
/// product loop), carrying per-word-line min/max of the already-chosen
/// pools so each level scores its candidates, a lane group at a time,
/// against one merged spread.
struct Search<'a> {
    cands: &'a [Vec<&'a [f64]>],
    lanes: &'a [LaneWindow],
    wl_count: usize,
    picks: Vec<usize>,
    best_score: f64,
    best: Vec<usize>,
}

impl Search<'_> {
    fn visit(
        &mut self,
        level: usize,
        suffix_min: &[f64],
        suffix_max: &[f64],
        scratch: &mut [(Vec<f64>, Vec<f64>)],
    ) {
        let lanes = &self.lanes[level];
        for g in 0..lanes.count.div_ceil(LANES) {
            let rows = &lanes.rows[g * self.wl_count..][..self.wl_count];
            let live = (lanes.count - g * LANES).min(LANES);
            let Some(acc) = spread_sums(rows, suffix_min, suffix_max, live, self.best_score) else {
                continue;
            };
            for (k, &score) in acc[..live].iter().enumerate() {
                // At the innermost level `score` is the full objective;
                // above it, a lower bound on every completion.
                if score >= self.best_score {
                    continue;
                }
                let i = g * LANES + k;
                self.picks[level] = i;
                if level == 0 {
                    self.best_score = score;
                    self.best.copy_from_slice(&self.picks);
                    continue;
                }
                let ((level_min, level_max), rest) =
                    scratch.split_first_mut().expect("one scratch pair per non-innermost level");
                let cand = self.cands[level][i];
                for (wl, &t) in cand.iter().enumerate() {
                    level_max[wl] = if t > suffix_max[wl] { t } else { suffix_max[wl] };
                    level_min[wl] = if t < suffix_min[wl] { t } else { suffix_min[wl] };
                }
                self.visit(level - 1, level_min, level_max, rest);
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
    fn produces_valid_assembly() {
        let pool = synthetic_pool(4, 8, 8);
        let sbs = OptimalAssembly::new(4).assemble(&pool);
        assert_valid_assembly(&pool, &sbs);
    }

    #[test]
    fn beats_random_on_average() {
        let pool = synthetic_pool(4, 16, 16);
        let opt = avg_extra_pgm(&pool, &OptimalAssembly::new(8).assemble(&pool));
        let rnd = avg_extra_pgm(&pool, &RandomAssembly::new(1).assemble(&pool));
        assert!(opt < rnd, "optimal {opt} vs random {rnd}");
    }

    #[test]
    fn window_one_degenerates_to_program_sort() {
        use crate::assembly::{LatencySortAssembly, SortKey};
        let pool = synthetic_pool(4, 8, 8);
        let opt = OptimalAssembly::new(1).assemble(&pool);
        let sorted = LatencySortAssembly::new(SortKey::Program).assemble(&pool);
        assert_eq!(opt, sorted);
    }

    #[test]
    fn larger_window_is_no_worse() {
        let pool = synthetic_pool(4, 16, 16);
        let w2 = avg_extra_pgm(&pool, &OptimalAssembly::new(2).assemble(&pool));
        let w8 = avg_extra_pgm(&pool, &OptimalAssembly::new(8).assemble(&pool));
        // Greedy rounds mean this is not a theorem, but on well-behaved
        // pools the wider window should win (the paper's Table II trend).
        assert!(w8 <= w2 * 1.05, "w8 {w8} vs w2 {w2}");
    }

    #[test]
    fn name_includes_window() {
        assert_eq!(OptimalAssembly::new(8).name(), "Optimal(8)");
    }

    /// The plain windowed brute force the branch-and-bound search replaced.
    fn assemble_brute_force(pool: &BlockPool, window: usize) -> Vec<Superblock> {
        use crate::assembly::windowed::for_each_combo;
        use crate::superblock::extra_program_us;
        let pools = pool.pool_count();
        let mut candidate: Vec<&[f64]> = Vec::with_capacity(pools);
        assemble_rounds(pool, window, |windows| {
            let sizes: Vec<usize> = windows.iter().map(|w| w.len()).collect();
            let mut best_score = f64::INFINITY;
            let mut best = vec![0usize; pools];
            for_each_combo(&sizes, |picks| {
                candidate.clear();
                for (p, &pick) in picks.iter().enumerate() {
                    candidate.push(pool.pool(p)[windows[p][pick]].tprog_us());
                }
                let s = extra_program_us(&candidate);
                if s < best_score {
                    best_score = s;
                    best.copy_from_slice(picks);
                }
            });
            best
        })
    }

    /// Identical blocks (every third one) among blocks quantized to three
    /// 18.4 µs pulse levels: many combinations tie exactly, which pins the
    /// mixed-radix tie-break.
    fn tie_heavy_pool(pools: usize, blocks: usize, lwls: usize) -> BlockPool {
        use crate::profile::BlockProfile;
        use flash_model::{BlockAddr, BlockId, ChipId, PlaneId};
        let mut pool = BlockPool::new(pools, 4);
        for p in 0..pools {
            for b in 0..blocks {
                let addr = BlockAddr::new(ChipId(p as u16), PlaneId(0), BlockId(b as u32));
                let tprog: Vec<f64> = (0..lwls)
                    .map(|w| {
                        let level = if b % 3 == 0 { 1 } else { (b * 5 + w * 3 + p) % 3 };
                        1692.8 + 18.4 * level as f64
                    })
                    .collect();
                pool.push(p, BlockProfile::new(addr, 0, tprog, 3500.0)).unwrap();
            }
        }
        pool
    }

    #[test]
    fn matches_plain_brute_force() {
        // Exact equality, including tie-breaks: the pruned search must pick
        // the same first-strictly-better combination every round. Window 12
        // gives one full lane group and one partial group; the word-line
        // counts are not multiples of the lane or drop-check widths.
        for (pools, blocks, window, lwls) in [
            (4, 12, 8, 16),
            (3, 10, 4, 16),
            (2, 6, 6, 16),
            (1, 4, 3, 16),
            (4, 9, 1, 16),
            (4, 14, 12, 44),
            (3, 13, 12, 36),
            (4, 11, 8, 70),
            (2, 9, 5, 3),
        ] {
            for (kind, pool) in [
                ("synthetic", synthetic_pool(pools, blocks, lwls)),
                ("tie-heavy", tie_heavy_pool(pools, blocks, lwls)),
            ] {
                let fast = OptimalAssembly::new(window).assemble(&pool);
                let slow = assemble_brute_force(&pool, window);
                assert_eq!(fast, slow, "{kind} pools={pools} blocks={blocks} window={window}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = OptimalAssembly::new(0);
    }
}
