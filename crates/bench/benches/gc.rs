//! GC hot-path cost over the dense page mapping.
//!
//! Greedy victim selection asks "how many valid pages does each candidate
//! hold?" once per candidate, which the mapping answers from a per-block
//! counter; relocation then walks one victim block's contiguous slice of
//! the reverse map.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flash_model::{CellType, Geometry, PageType};
use ftl::Mapping;

/// Maps one LSB page per word-line of every block (a half-full device).
fn populated(geo: &Geometry) -> Mapping {
    let mut m = Mapping::new(geo.total_pages(), geo);
    let mut lpn = 0u64;
    for block in geo.blocks() {
        for lwl in geo.lwls() {
            m.map(lpn, block.wl(lwl).page(PageType::Lsb));
            lpn += 1;
        }
    }
    m
}

fn bench_victim_scan(c: &mut Criterion) {
    let geo = Geometry::new(4, 1, 48, 24, 4, CellType::Tlc);
    let blocks: Vec<_> = geo.blocks().collect();
    let m = populated(&geo);
    let mut group = c.benchmark_group("gc_victim_scan");
    group.sample_size(10);
    group.bench_function("dense", |b| {
        b.iter(|| {
            // What one Greedy victim selection does: count valid pages in
            // every candidate block and take the minimum.
            black_box(blocks.iter().map(|&blk| m.valid_in_block_count(blk)).min())
        })
    });
    group.finish();
}

fn bench_relocation_list(c: &mut Criterion) {
    let geo = Geometry::new(4, 1, 48, 24, 4, CellType::Tlc);
    let victim = geo.blocks().next().expect("geometry has blocks");
    let m = populated(&geo);
    let mut buf: Vec<(u64, flash_model::PageAddr)> = Vec::new();
    let mut group = c.benchmark_group("gc_relocation_list");
    group.sample_size(10);
    group.bench_function("dense", |b| {
        b.iter(|| {
            // What relocating one victim member does: collect its valid
            // pages (in program order) into the reusable scratch buffer.
            buf.clear();
            buf.extend(m.valid_in_block(victim));
            black_box(buf.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_victim_scan, bench_relocation_list);
criterion_main!(benches);
