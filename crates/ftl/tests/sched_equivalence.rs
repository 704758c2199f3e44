//! Property tests for the event core's scheduler primitives.
//!
//! The calendar queue is an amortized-O(1) priority queue whose bucket
//! rotation has real floating-point edge cases (bucket boundaries, cursor
//! rewinds on out-of-order pushes, resize thresholds). Its contract is
//! simple though: pop order equals a naive min-scan over the pending set,
//! with ties broken by insertion sequence — deterministically, because the
//! replay's bit-identity oracle depends on it. These properties drive the
//! queue through arbitrary interleavings and hold it to that contract.

use ftl::sched::{Arena, CalendarQueue, DepthTracker};
use proptest::prelude::*;

/// Naive oracle: linear min-scan over `(time, seq)` pairs.
#[derive(Debug, Default)]
struct NaiveQueue {
    pending: Vec<(f64, u64, u32)>,
    next_seq: u64,
}

impl NaiveQueue {
    fn push(&mut self, time: f64, payload: u32) {
        self.pending.push((time, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn pop_min(&mut self) -> Option<(f64, u64, u32)> {
        let idx = self
            .pending
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(i, _)| i)?;
        Some(self.pending.remove(idx))
    }
}

/// Event times drawn from a coarse grid so duplicates (ties) are common,
/// plus occasional spread to force bucket resizes and rotation.
fn arb_times(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u32..400, 1u32..51), 1..len)
        .prop_map(|raw| raw.into_iter().map(|(t, q)| f64::from(t * q)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calendar_queue_pops_in_naive_min_scan_order(times in arb_times(200)) {
        let mut cq = CalendarQueue::new();
        let mut naive = NaiveQueue::default();
        for (i, &t) in times.iter().enumerate() {
            cq.push(t, i as u32);
            naive.push(t, i as u32);
        }
        prop_assert_eq!(cq.len(), times.len());
        while let Some((t, seq, payload)) = naive.pop_min() {
            let ev = cq.pop_min().expect("calendar queue drained early");
            prop_assert_eq!(ev.time.to_bits(), t.to_bits(), "time order diverged");
            prop_assert_eq!(ev.seq, seq, "tie broken differently at t={}", t);
            prop_assert_eq!(ev.payload, payload);
        }
        prop_assert!(cq.is_empty(), "calendar queue has leftover events");
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_in_lockstep(
        ops in proptest::collection::vec((any::<bool>(), 0u32..2000), 1..300),
    ) {
        // Pops interleave with pushes, including pushes *behind* the cursor
        // (an already-popped time), which is exactly the case the cursor
        // rewind guard exists for.
        let mut cq = CalendarQueue::new();
        let mut naive = NaiveQueue::default();
        for (i, &(pop, t)) in ops.iter().enumerate() {
            if pop {
                let got = cq.pop_min();
                let want = naive.pop_min();
                match (got, want) {
                    (None, None) => {}
                    (Some(ev), Some((t, seq, payload))) => {
                        prop_assert_eq!(ev.time.to_bits(), t.to_bits());
                        prop_assert_eq!(ev.seq, seq);
                        prop_assert_eq!(ev.payload, payload);
                    }
                    (got, want) => {
                        prop_assert!(false, "op {}: got {:?} want {:?}", i, got, want);
                    }
                }
            } else {
                cq.push(f64::from(t) * 0.25, i as u32);
                naive.push(f64::from(t) * 0.25, i as u32);
            }
            prop_assert_eq!(cq.len(), naive.pending.len());
        }
    }

    #[test]
    fn depth_tracking_matches_a_busy_until_min_scan(
        gaps in proptest::collection::vec((0u32..500, 1u32..900), 1..200),
    ) {
        // The replay uses the queue as an open-loop depth tracker: arrive()
        // retires completions <= arrival and returns the in-flight count.
        // Oracle: a plain vector of completion times, min-scanned per
        // arrival — the semantics of a binary heap of completion times.
        let mut cq = CalendarQueue::new();
        let mut outstanding: Vec<f64> = Vec::new();
        let mut now = 0.0_f64;
        for &(gap, service) in &gaps {
            now += f64::from(gap) * 0.5;
            outstanding.retain(|&c| c > now);
            let depth = cq.arrive(now);
            prop_assert_eq!(depth, outstanding.len(), "depth diverged at t={}", now);
            let completion = now + f64::from(service);
            cq.complete_at(completion);
            outstanding.push(completion);
        }
    }

    #[test]
    fn sorted_ring_depth_tracker_matches_the_same_oracle(
        gaps in proptest::collection::vec((0u32..500, 1u32..900), 1..200),
    ) {
        // The batched device path replaced the calendar queue with the
        // sorted-ring tracker; it must honor the identical busy-until
        // contract, including completions landing out of order when
        // per-chip clocks interleave (the `service < gap` case).
        let mut dt = DepthTracker::new();
        let mut outstanding: Vec<f64> = Vec::new();
        let mut now = 0.0_f64;
        for &(gap, service) in &gaps {
            now += f64::from(gap) * 0.5;
            outstanding.retain(|&c| c > now);
            let depth = dt.arrive(now);
            prop_assert_eq!(depth, outstanding.len(), "depth diverged at t={}", now);
            let completion = now + f64::from(service);
            dt.complete_at(completion);
            outstanding.push(completion);
        }
    }

    #[test]
    fn arena_round_trips_values_under_arbitrary_alloc_free(
        ops in proptest::collection::vec(any::<bool>(), 1..400),
    ) {
        // Oracle: a HashMap from handle to value. Alloc on `true` (or when
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
