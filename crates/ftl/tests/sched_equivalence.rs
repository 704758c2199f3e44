//! Property tests for the event core's scheduler primitives.
//!
//! The depth tracker keeps in-flight completion times in a sorted ring
//! whose fast path assumes near-sorted pushes; its contract is that of a
//! binary heap of completion times: an arrival retires every completion
//! `<=` its time and reports how many remain. These properties drive it
//! through per-chip clock streams and arbitrary interleavings and hold it
//! to a plain-vector oracle. The arena is held to a `Vec` of live handles.

use ftl::sched::{Arena, DepthTracker};
use proptest::prelude::*;

/// Depth oracle: retires every completion `<= arrival` from a plain vector
/// and returns how many remain in flight.
fn retire(outstanding: &mut Vec<f64>, arrival: f64) -> usize {
    outstanding.retain(|&c| c > arrival);
    outstanding.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_pushes_and_pops_stay_in_lockstep(
        ops in proptest::collection::vec((any::<bool>(), 0u32..2000), 1..300),
    ) {
        // Arrivals ("pops") interleave with completions ("pushes") at
        // arbitrary times, including completions behind an already-retired
        // time and arrivals that move backwards, which exercises the
        // out-of-order insert path.
        let mut dt = DepthTracker::new();
        let mut outstanding: Vec<f64> = Vec::new();
        for (i, &(arrive, t)) in ops.iter().enumerate() {
            let t = f64::from(t) * 0.25;
            if arrive {
                let want = retire(&mut outstanding, t);
                prop_assert_eq!(dt.arrive(t), want, "op {}: depth diverged at t={}", i, t);
            } else {
                dt.complete_at(t);
                outstanding.push(t);
            }
            prop_assert_eq!(dt.len(), outstanding.len(), "op {}", i);
        }
    }

    #[test]
    fn depth_tracking_matches_a_busy_until_min_scan(
        ops in proptest::collection::vec((0u32..500, 0usize..4, 1u32..900), 1..200),
    ) {
        // The replay's shape: four chips with busy-until clocks. A command
        // starts when its chip frees up, so each chip's completions are
        // monotone but the merged stream arrives out of order.
        let mut dt = DepthTracker::new();
        let mut outstanding: Vec<f64> = Vec::new();
        let mut busy_until = [0.0_f64; 4];
        let mut now = 0.0_f64;
        for &(gap, chip, service) in &ops {
            now += f64::from(gap) * 0.5;
            let want = retire(&mut outstanding, now);
            prop_assert_eq!(dt.arrive(now), want, "depth diverged at t={}", now);
            busy_until[chip] = busy_until[chip].max(now) + f64::from(service);
            dt.complete_at(busy_until[chip]);
            outstanding.push(busy_until[chip]);
        }
    }

    #[test]
    fn sorted_ring_depth_tracker_matches_the_same_oracle(
        gaps in proptest::collection::vec((0u32..500, 1u32..900), 1..200),
    ) {
        // One completion per arrival with an independent service time: a
        // short command issued after a long one completes first, so pushes
        // land out of order whenever `service` shrinks faster than `gap`.
        let mut dt = DepthTracker::new();
        let mut outstanding: Vec<f64> = Vec::new();
        let mut now = 0.0_f64;
        for &(gap, service) in &gaps {
            now += f64::from(gap) * 0.5;
            let want = retire(&mut outstanding, now);
            prop_assert_eq!(dt.arrive(now), want, "depth diverged at t={}", now);
            let completion = now + f64::from(service);
            dt.complete_at(completion);
            outstanding.push(completion);
        }
    }

    #[test]
    fn arena_round_trips_values_under_arbitrary_alloc_free(
        ops in proptest::collection::vec(any::<bool>(), 1..400),
    ) {
        // Oracle: a list of live (handle, value) pairs. Alloc on `true` (or when
        // nothing is live), free the oldest live handle on `false`.
        let mut arena: Arena<u64> = Arena::new();
        let mut live: Vec<(u32, u64)> = Vec::new();
        let mut counter = 0u64;
        for &alloc in &ops {
            if alloc || live.is_empty() {
                counter += 1;
                let handle = arena.alloc(counter);
                prop_assert!(arena.get(handle) == Some(&counter));
                live.push((handle, counter));
            } else {
                let (handle, want) = live.remove(0);
                let got = arena.free(handle);
                prop_assert_eq!(got, want, "freed value diverged");
                prop_assert!(arena.get(handle).is_none(), "freed handle still readable");
            }
            prop_assert_eq!(arena.len(), live.len());
            for &(handle, value) in &live {
                prop_assert!(arena.get(handle) == Some(&value), "live handle lost");
            }
        }
    }
}
