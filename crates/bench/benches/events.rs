//! Micro-benchmarks of the event core's scheduler primitives: the
//! sorted-ring depth tracker and arena alloc/free.
//!
//! These isolate the structures behind the timed replay and the frontend
//! drain so a throughput regression can be attributed: is the tracker or
//! the arena slower, or is it the replay loop around them?

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ftl::sched::{Arena, DepthTracker};

/// Near-sorted completion times the way a replay produces them: a
/// monotone base clock plus a small per-chip service jitter.
fn near_sorted_times(n: u32) -> Vec<f64> {
    (0..n).map(|i| f64::from(i) * 2.5 + f64::from(i.wrapping_mul(2654435761) % 97)).collect()
}

fn bench_events(c: &mut Criterion) {
    let near_sorted = near_sorted_times(4096);

    c.bench_function("depth_tracker_replay_4096", |b| {
        // One complete_at + one arrive per op, near-sorted input — the
        // exact access pattern of the batched device replay.
        b.iter(|| {
            let mut dt = DepthTracker::new();
            let mut depth = 0usize;
            for &t in &near_sorted {
                dt.complete_at(black_box(t + 50.0));
                depth = depth.wrapping_add(dt.arrive(black_box(t)));
            }
            depth
        })
    });

    c.bench_function("arena_alloc_free_churn_4096", |b| {
        // Bounded in-flight depth: 64 live records, LIFO slot reuse.
        b.iter(|| {
            let mut arena: Arena<[u64; 4]> = Arena::new();
            let mut live = [0u32; 64];
            for (slot, live_handle) in live.iter_mut().enumerate() {
                *live_handle = arena.alloc([slot as u64; 4]);
            }
            let mut acc = 0u64;
            for i in 0..4096u64 {
                let slot = (i % 64) as usize;
                acc = acc.wrapping_add(arena.free(live[slot])[0]);
                live[slot] = arena.alloc([i; 4]);
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_events);
criterion_main!(benches);
