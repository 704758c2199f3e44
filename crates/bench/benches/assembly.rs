//! Assembly cost per scheme: how long each direction takes to organize a
//! whole pool of characterized blocks (the practicality axis of Table I).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use flash_model::{CellType, FlashArray, FlashConfig, Geometry};
use pvcheck::assembly::{
    Assembler, LatencySortAssembly, OptimalAssembly, QstrMed, RandomAssembly, RankAssembly,
    RankStrategy, SequentialAssembly, SortKey,
};
use pvcheck::{BlockPool, Characterizer, SpeedClass};

fn pool() -> BlockPool {
    let config = FlashConfig {
        geometry: Geometry::new(4, 1, 100, 96, 4, CellType::Tlc),
        variation: flash_model::VariationConfig::default(),
    };
    let array = FlashArray::new(config.clone(), 1);
    Characterizer::new(&config).snapshot(array.latency_model(), 0)
}

type AssemblerFactory = Box<dyn Fn() -> Box<dyn Assembler>>;

fn bench_assembly(c: &mut Criterion) {
    let pool = pool();
    let mut group = c.benchmark_group("assemble_400_blocks");
    group.sample_size(10);
    let schemes: Vec<(&str, AssemblerFactory)> = vec![
        ("random", Box::new(|| Box::new(RandomAssembly::new(1)))),
        ("sequential", Box::new(|| Box::new(SequentialAssembly::new()))),
        ("pgm_sort", Box::new(|| Box::new(LatencySortAssembly::new(SortKey::Program)))),
        ("optimal_w4", Box::new(|| Box::new(OptimalAssembly::new(4)))),
        ("str_rank_w4", Box::new(|| Box::new(RankAssembly::new(RankStrategy::Str, 4)))),
        ("str_med_w4", Box::new(|| Box::new(RankAssembly::new(RankStrategy::StrMedian, 4)))),
        ("lwl_rank_w4", Box::new(|| Box::new(RankAssembly::new(RankStrategy::Lwl, 4)))),
        // The paper's Table I window.
        ("optimal_w8", Box::new(|| Box::new(OptimalAssembly::new(8)))),
        ("lwl_rank_w8", Box::new(|| Box::new(RankAssembly::new(RankStrategy::Lwl, 8)))),
        ("pwl_rank_w8", Box::new(|| Box::new(RankAssembly::new(RankStrategy::Pwl, 8)))),
        ("str_rank_w8", Box::new(|| Box::new(RankAssembly::new(RankStrategy::Str, 8)))),
        ("qstr_med_c4", Box::new(|| Box::new(QstrMed::with_candidates(4)))),
    ];
    for (name, make) in schemes {
        group.bench_function(name, |b| {
            b.iter_batched(&make, |mut asm| asm.assemble(&pool), BatchSize::SmallInput)
        });
    }
    group.finish();
}

/// A QSTR-MED instance pre-loaded with every block summary of `pool` — the
/// steady FTL state the on-demand path starts from.
fn loaded_qstr(pool: &BlockPool, candidates: usize) -> QstrMed {
    let mut qstr = QstrMed::with_candidates(candidates);
    let strings = pool.strings();
    for p in 0..pool.pool_count() {
        for block in pool.pool(p) {
            qstr.insert(p, block.summary(strings));
        }
    }
    qstr
}

/// The FTL hot path in isolation: one `assemble_on_demand` call against a
/// full pool set (fast and slow requests, plus draining the whole state).
fn bench_on_demand(c: &mut Criterion) {
    let pool = pool();
    let mut group = c.benchmark_group("qstr_on_demand");
    group.sample_size(20);
    let loaded = loaded_qstr(&pool, 4);
    group.bench_function("fast_one", |b| {
        b.iter_batched(
            || loaded.clone(),
            |mut q| q.assemble_on_demand(SpeedClass::Fast).expect("pools are full"),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("slow_one", |b| {
        b.iter_batched(
            || loaded.clone(),
            |mut q| q.assemble_on_demand(SpeedClass::Slow).expect("pools are full"),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("drain_all", |b| {
        b.iter_batched(
            || loaded.clone(),
            |mut q| {
                let mut n = 0usize;
                while q.assemble_on_demand(SpeedClass::Fast).is_some() {
                    n += 1;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_assembly, bench_on_demand);
criterion_main!(benches);
