//! Property-based tests: the simulated SSD must agree with an in-memory
//! model of the logical address space under arbitrary request streams, and
//! the dense page mapping must agree with its naive `HashMap` oracle.

use flash_model::{BlockAddr, CellType, Geometry, PageAddr};
use ftl::{FtlConfig, IoRequest, Mapping, OrganizationScheme, Ssd};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Read(u64),
    Trim(u64),
}

fn arb_ops(capacity: u64, len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..10, 0..capacity).prop_map(|(kind, lpn)| match kind {
            0..=5 => Op::Write(lpn),
            6..=8 => Op::Read(lpn),
            _ => Op::Trim(lpn),
        }),
        0..len,
    )
}

fn schemes() -> [OrganizationScheme; 3] {
    [
        OrganizationScheme::Random,
        OrganizationScheme::Sequential,
        OrganizationScheme::QstrMed { candidates: 4 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn device_agrees_with_model(ops in arb_ops(200, 400), seed in any::<u64>(), scheme_idx in 0usize..3) {
        let mut config = FtlConfig::small_test();
        config.scheme = schemes()[scheme_idx];
        let mut dev = Ssd::new(config, seed).unwrap();
        let capacity = dev.geometry_info().logical_pages;
        let mut model: HashMap<u64, ()> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Write(lpn) if lpn < capacity => {
                    dev.write(lpn).unwrap();
                    model.insert(lpn, ());
                }
                Op::Read(lpn) if lpn < capacity => {
                    let got = dev.read(lpn).unwrap();
                    prop_assert_eq!(got.is_some(), model.contains_key(&lpn),
                        "read({}) visibility mismatch", lpn);
                }
                Op::Trim(lpn) if lpn < capacity => {
                    dev.trim(lpn).unwrap();
                    model.remove(&lpn);
                }
                _ => {}
            }
        }
        // After a flush, every model page must still be readable.
        dev.flush().unwrap();
        for lpn in model.keys() {
            prop_assert!(dev.read(*lpn).unwrap().is_some(), "lost page {}", lpn);
        }
    }

    #[test]
    fn valid_pages_never_exceed_logical_capacity(writes in proptest::collection::vec(0u64..150, 0..600), seed in any::<u64>()) {
        let mut dev = Ssd::new(FtlConfig::small_test(), seed).unwrap();
        let capacity = dev.geometry_info().logical_pages;
        let mut distinct = std::collections::HashSet::new();
        for lpn in writes {
            if lpn < capacity {
                dev.write(lpn).unwrap();
                distinct.insert(lpn);
            }
        }
        dev.flush().unwrap();
        prop_assert_eq!(dev.valid_pages(), distinct.len());
    }

    #[test]
    fn stats_are_internally_consistent(n_writes in 1usize..400, seed in any::<u64>()) {
        let mut dev = Ssd::new(FtlConfig::small_test(), seed).unwrap();
        let capacity = dev.geometry_info().logical_pages;
        for i in 0..n_writes {
            dev.write(i as u64 % (capacity / 2).max(1)).unwrap();
        }
        let s = dev.stats();
        prop_assert_eq!(s.host_writes, n_writes as u64);
        prop_assert!(s.waf() >= 1.0 || s.gc_relocations == 0);
        prop_assert!(s.extra_program_us >= 0.0);
        prop_assert!(s.busy_us > 0.0);
        prop_assert_eq!(s.write_latency.len(), n_writes);
    }

    #[test]
    fn gc_reclaims_enough_to_keep_writing(seed in any::<u64>()) {
        // Overwrite a small working set many times: every write must succeed
        // because GC always finds nearly-empty victims.
        let mut dev = Ssd::new(FtlConfig::small_test(), seed).unwrap();
        let capacity = dev.geometry_info().logical_pages;
        let span = (capacity / 4).max(1);
        for i in 0..(capacity * 4) {
            dev.write(i % span).unwrap();
        }
        prop_assert!(dev.stats().gc_runs > 0);
    }
}

/// The `HashMap` reference model of [`Mapping`]: both directions in hash
/// maps, every per-block query a scan over all mapped pages. Slow but
/// obviously correct, which makes it the dense store's oracle.
#[derive(Debug, Default)]
struct NaiveMapping {
    l2p: HashMap<u64, PageAddr>,
    p2l: HashMap<PageAddr, u64>,
}

impl NaiveMapping {
    fn lookup(&self, lpn: u64) -> Option<PageAddr> {
        self.l2p.get(&lpn).copied()
    }

    fn reverse(&self, ppa: PageAddr) -> Option<u64> {
        self.p2l.get(&ppa).copied()
    }

    fn map(&mut self, lpn: u64, ppa: PageAddr) {
        if let Some(old) = self.l2p.insert(lpn, ppa) {
            self.p2l.remove(&old);
        }
        let prev = self.p2l.insert(ppa, lpn);
        assert!(prev.is_none(), "physical page written twice without erase");
    }

    fn unmap(&mut self, lpn: u64) -> Option<PageAddr> {
        let old = self.l2p.remove(&lpn)?;
        self.p2l.remove(&old);
        Some(old)
    }

    fn invalidate_block(&mut self, block: BlockAddr) {
        for (lpn, _) in self.valid_in_block(block) {
            self.unmap(lpn);
        }
    }

    /// Valid pages of `block` in `(lwl, page)` program order.
    fn valid_in_block(&self, block: BlockAddr) -> Vec<(u64, PageAddr)> {
        let mut v: Vec<(u64, PageAddr)> =
            self.p2l.iter().filter(|(p, _)| p.wl.block == block).map(|(p, &l)| (l, *p)).collect();
        v.sort_by_key(|&(_, p)| (p.wl.lwl, p.page.index()));
        v
    }
}

/// One step against the mapping stores: map a logical page somewhere, trim
/// one, or sweep a whole block (what GC does after relocating + erasing).
#[derive(Debug, Clone, Copy)]
enum MapStep {
    Map { lpn: u64, page: usize },
    Unmap { lpn: u64 },
    InvalidateBlock { block: usize },
}

fn arb_map_steps(
    capacity: u64,
    total_pages: usize,
    total_blocks: usize,
    len: usize,
) -> impl Strategy<Value = Vec<MapStep>> {
    proptest::collection::vec(
        (0u8..8, 0..capacity, 0..total_pages).prop_map(move |(kind, lpn, page)| match kind {
            0..=4 => MapStep::Map { lpn, page },
            5..=6 => MapStep::Unmap { lpn },
            _ => MapStep::InvalidateBlock { block: page % total_blocks },
        }),
        0..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dense_mapping_agrees_with_naive_oracle(
        steps in arb_map_steps(100, 144, 12, 300),
    ) {
        // Dense store (flat p2l + per-block counters) vs the HashMap
        // model, driven through identical random write/trim/GC sequences:
        // every query must agree after every step.
        let geo = Geometry::new(2, 2, 3, 2, 2, CellType::Tlc);
        let blocks: Vec<_> = geo.blocks().collect();
        let ppb = geo.pages_per_block() as usize;
        prop_assert_eq!(blocks.len() * ppb, 144);
        let pages: Vec<PageAddr> =
            (0..144).map(|i| geo.page_at_offset(blocks[i / ppb], i % ppb)).collect();
        let mut dense = Mapping::new(100, &geo);
        let mut naive = NaiveMapping::default();
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                MapStep::Map { lpn, page } => {
                    // A physical page is programmed once per erase cycle;
                    // the reverse-map check below already pinned that both
                    // stores agree on whether this one is taken.
                    if !dense.is_valid(pages[page]) {
                        dense.map(lpn, pages[page]);
                        naive.map(lpn, pages[page]);
                    }
                }
                MapStep::Unmap { lpn } => {
                    prop_assert_eq!(dense.unmap(lpn), naive.unmap(lpn));
                }
                MapStep::InvalidateBlock { block } => {
                    dense.invalidate_block(blocks[block]);
                    naive.invalidate_block(blocks[block]);
                }
            }
            prop_assert_eq!(dense.valid_pages(), naive.p2l.len(), "step {}", i);
            for &ppa in &pages {
                prop_assert_eq!(dense.reverse(ppa), naive.reverse(ppa), "step {}: reverse({:?})", i, ppa);
                prop_assert_eq!(dense.is_valid(ppa), naive.reverse(ppa).is_some());
            }
            for &b in &blocks {
                let d: Vec<_> = dense.valid_in_block(b).collect();
                let n = naive.valid_in_block(b);
                prop_assert_eq!(dense.valid_in_block_count(b), n.len(), "step {}: count({:?})", i, b);
                prop_assert_eq!(d, n, "step {}: valid_in_block({:?})", i, b);
            }
            for lpn in 0..100 {
                prop_assert_eq!(dense.lookup(lpn), naive.lookup(lpn), "step {}: lookup({})", i, lpn);
            }
        }
        prop_assert!(dense.is_consistent());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_parser_never_panics(input in "[ -~\n]{0,256}") {
        // Arbitrary printable input: parse must return Ok or Err, not panic.
        let _ = ftl::trace::parse_trace(input.as_bytes());
    }

    #[test]
    fn parsed_traces_roundtrip_through_fold(lpns in proptest::collection::vec(0u64..10_000, 0..50), capacity in 1u64..500) {
        let text: String = lpns.iter().map(|l| format!("W,{l}\n")).collect();
        let reqs = ftl::trace::parse_trace(text.as_bytes()).unwrap();
        let folded = ftl::trace::fold_to_capacity(&reqs, capacity);
        prop_assert_eq!(folded.len(), reqs.len());
        prop_assert!(folded.iter().all(|r| r.lpn < capacity));
    }
}

#[test]
fn read_your_writes_with_requests_api() {
    let mut dev = Ssd::new(FtlConfig::small_test(), 1).unwrap();
    let reqs: Vec<IoRequest> =
        (0..50).map(IoRequest::write).chain((0..50).map(IoRequest::read)).collect();
    dev.run(&reqs).unwrap();
    assert_eq!(dev.stats().host_reads, 50);
    assert_eq!(dev.stats().read_latency.len(), 50);
}
