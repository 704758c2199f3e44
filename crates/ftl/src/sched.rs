//! Event-core primitives for the timed replay ([`crate::Ssd::timed_step`])
//! and the host frontend's drain.
//!
//! Two allocation-free building blocks live here:
//!
//! * [`DepthTracker`] — a sorted ring of in-flight completion times that
//!   answers "how many commands are still in flight at this arrival?" in
//!   O(1) amortized on the near-sorted streams per-chip clocks emit.
//! * [`Arena`] — a slab with an intrusive free-list handing out stable
//!   `u32` handles. In-flight request records live here so steady-state
//!   replay performs no per-op heap allocation.
//!
//! Both are exercised against naive oracles by the proptest suite
//! (`crates/ftl/tests/sched_equivalence.rs`) and microbenched by
//! `crates/bench/benches/events.rs`.

use std::collections::VecDeque;

/// Depth tracker specialized for the chip-completion streams a replay
/// emits.
///
/// Per-chip busy-until clocks only move forward, so completion times arrive
/// in near-sorted order; a single sorted ring with insert-from-the-back
/// makes both [`DepthTracker::complete_at`] and [`DepthTracker::arrive`]
/// O(1) amortized with strictly sequential memory traffic, where a binary
/// heap pays an O(log n) pointer-hopping sift per event on the same stream
/// and a calendar ring scatters a deep backlog across cold buckets. Depth
/// counting needs no tie-break: `arrive` retires every completion `<=
/// arrival`, so only the multiset of times matters.
#[derive(Debug, Default)]
pub struct DepthTracker {
    /// Completion times, ascending.
    completions: VecDeque<f64>,
}

impl DepthTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of completions still outstanding.
    #[must_use]
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// True when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// Registers a completion event at `at`. Monotone (and equal-time)
    /// pushes append in O(1); a clock interleaving briefly out of order
    /// falls back to a binary search and a short move from the back.
    pub fn complete_at(&mut self, at: f64) {
        match self.completions.back() {
            Some(&back) if at.total_cmp(&back).is_lt() => {
                let pos = self.completions.partition_point(|c| c.total_cmp(&at).is_le());
                self.completions.insert(pos, at);
            }
            _ => self.completions.push_back(at),
        }
    }

    /// Retires events with `time <= arrival`; returns how many remain in
    /// flight.
    pub fn arrive(&mut self, arrival: f64) -> usize {
        while self.completions.front().is_some_and(|&c| c <= arrival) {
            self.completions.pop_front();
        }
        self.completions.len()
    }
}

/// Slab + free-list arena handing out stable `u32` handles.
///
/// `alloc` reuses the most recently freed slot (LIFO), so steady-state
/// replays with bounded in-flight depth never grow the slab after warm-up
/// and touch hot cache lines.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    /// Head of the intrusive free list (`u32::MAX` = empty).
    free_head: u32,
    live: usize,
}

#[derive(Debug)]
enum Slot<T> {
    Occupied(T),
    /// Free slot; payload is the next free slot's index (`u32::MAX` ends
    /// the list).
    Free(u32),
}

/// Sentinel terminating the free list.
const NIL: u32 = u32::MAX;

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Arena { slots: Vec::new(), free_head: NIL, live: 0 }
    }

    /// Creates an arena with room for `cap` records before any reallocation.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Arena { slots: Vec::with_capacity(cap), free_head: NIL, live: 0 }
    }

    /// Number of live records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no records are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Stores `value`, returning its handle. Reuses freed slots LIFO.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` records are live at once.
    pub fn alloc(&mut self, value: T) -> u32 {
        self.live += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            match self.slots[idx as usize] {
                Slot::Free(next) => self.free_head = next,
                Slot::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
            self.slots[idx as usize] = Slot::Occupied(value);
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("arena overflow");
            assert!(idx != NIL, "arena overflow");
            self.slots.push(Slot::Occupied(value));
            idx
        }
    }

    /// Removes and returns the record behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is stale (already freed) or out of range.
    pub fn free(&mut self, handle: u32) -> T {
        let slot = std::mem::replace(&mut self.slots[handle as usize], Slot::Free(self.free_head));
        match slot {
            Slot::Occupied(value) => {
                self.free_head = handle;
                self.live -= 1;
                value
            }
            Slot::Free(prev) => {
                self.slots[handle as usize] = Slot::Free(prev);
                panic!("double free of arena handle {handle}");
            }
        }
    }

    /// Shared access to a live record.
    #[must_use]
    pub fn get(&self, handle: u32) -> Option<&T> {
        match self.slots.get(handle as usize) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Mutable access to a live record.
    #[must_use]
    pub fn get_mut(&mut self, handle: u32) -> Option<&mut T> {
        match self.slots.get_mut(handle as usize) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_tracker_matches_heap_semantics() {
        // The depth sequence a binary heap of completion times would give.
        let mut q = DepthTracker::new();
        assert_eq!(q.arrive(0.0), 0);
        q.complete_at(10.0);
        q.complete_at(20.0);
        assert_eq!(q.arrive(5.0), 2, "both still running at t=5");
        assert_eq!(q.arrive(10.0), 1, "first completed exactly at t=10");
        assert_eq!(q.arrive(25.0), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn depth_tracker_accepts_out_of_order_completions() {
        // Per-chip clocks interleave: chip A's completion can land behind
        // chip B's already-registered one. The ring must stay sorted.
        let mut q = DepthTracker::new();
        q.complete_at(30.0);
        q.complete_at(10.0);
        q.complete_at(20.0);
        q.complete_at(20.0);
        assert_eq!(q.len(), 4);
        assert_eq!(q.arrive(10.0), 3);
        assert_eq!(q.arrive(20.0), 1);
        assert_eq!(q.arrive(29.999), 1);
        assert_eq!(q.arrive(30.0), 0);
    }

    #[test]
    fn arena_allocates_and_frees() {
        let mut a = Arena::new();
        let h1 = a.alloc("one");
        let h2 = a.alloc("two");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h1), Some(&"one"));
        assert_eq!(a.free(h1), "one");
        assert_eq!(a.len(), 1);
        assert!(a.get(h1).is_none());
        // LIFO reuse of the freed slot.
        let h3 = a.alloc("three");
        assert_eq!(h3, h1);
        assert_eq!(a.get(h2), Some(&"two"));
        assert_eq!(a.get(h3), Some(&"three"));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn arena_rejects_double_free() {
        let mut a = Arena::new();
        let h = a.alloc(1u8);
        a.free(h);
        a.free(h);
    }

    #[test]
    fn arena_get_mut_updates_in_place() {
        let mut a = Arena::new();
        let h = a.alloc(41u64);
        *a.get_mut(h).unwrap() += 1;
        assert_eq!(a.free(h), 42);
    }
}
