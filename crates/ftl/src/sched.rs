//! Event-core primitives for the timed replay ([`crate::Ssd::timed_step`])
//! and the host frontend's drain.
//!
//! Two allocation-free building blocks live here:
//!
//! * [`CalendarQueue`] — a ring-of-buckets priority queue over event
//!   timestamps (R. Brown, CACM 1988). Completion events are inserted in
//!   near-sorted order during a replay, which makes the calendar layout
//!   O(1) amortized for both insert and pop, versus `O(log n)` for the
//!   binary heap it replaces. Ties are broken by insertion sequence so
//!   event ordering is fully deterministic.
//! * [`Arena`] — a slab with an intrusive free-list handing out stable
//!   `u32` handles. In-flight request records live here so steady-state
//!   replay performs no per-op heap allocation.
//!
//! Both are exercised head-to-head against naive oracles by the proptest
//! suite (`crates/ftl/tests/sched_equivalence.rs`) and microbenched by
//! `crates/bench/benches/events.rs`.

use std::collections::VecDeque;

/// One scheduled event: a timestamp plus a caller-supplied payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Absolute simulation time of the event, µs.
    pub time: f64,
    /// Monotonic insertion sequence; breaks timestamp ties so pop order is
    /// deterministic (FIFO among equal timestamps).
    pub seq: u64,
    /// Caller payload (e.g. an [`Arena`] handle).
    pub payload: u32,
}

/// Calendar-queue scheduler: a ring of time buckets, each a small sorted-on-
/// demand vector. See the [module docs](self) for why this beats a heap on
/// replay workloads.
///
/// The queue orders events by `(time, seq)` using `f64::total_cmp`, so NaN
/// never panics and ties pop in insertion order. The calendar resizes itself
/// (doubling/halving bucket count, re-deriving bucket width from the observed
/// inter-event gap) when occupancy drifts outside the classic 0.5–2 events
/// per bucket band.
#[derive(Debug)]
pub struct CalendarQueue {
    /// `buckets[i]` holds events whose day number satisfies
    /// `day & mask == i` (the bucket count is always a power of two).
    /// Each bucket is kept sorted ascending by `(time, seq)`: the next
    /// event pops from the front and the common near-sorted insert is an
    /// O(1) `push_back`, so neither end of the hot path moves memory.
    buckets: Vec<VecDeque<Event>>,
    /// Width of one bucket, µs.
    width: f64,
    /// Cached `1.0 / width`; day numbers are `(time * inv_width) as u64`,
    /// and every placement/scan decision uses that one function so bucket
    /// membership and rotation stay mutually consistent.
    inv_width: f64,
    /// `buckets.len() - 1`; bucket counts are powers of two so the ring
    /// index is a mask, not a modulo.
    mask: usize,
    /// Total events across all buckets.
    len: usize,
    /// Index of the bucket the cursor is scanning.
    cursor: usize,
    /// Day number the cursor is scanning — no queued event has a smaller
    /// day (push rewinds the cursor to keep this invariant).
    cursor_day: u64,
    /// The current global minimum as `(bucket, day, event)`, when known.
    /// Pushes can only improve it and pops refill it from the same-day
    /// bucket tail, so the hot "probe but nothing due" path never touches
    /// the (cold) bucket memory at all — it compares against this cache.
    /// `None` means unknown; the next rotation scan recomputes it.
    min_cache: Option<(usize, u64, Event)>,
    /// Next insertion sequence number.
    next_seq: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// Creates an empty queue (two buckets of 1 ms until the first resize
    /// learns the real event spacing).
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue {
            buckets: vec![VecDeque::new(), VecDeque::new()],
            width: 1_000.0,
            inv_width: 1.0 / 1_000.0,
            mask: 1,
            len: 0,
            cursor: 0,
            cursor_day: 0,
            min_cache: None,
            next_seq: 0,
        }
    }

    /// Number of events currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules an event at absolute time `time`; returns the sequence
    /// number assigned (ties pop FIFO by this number).
    pub fn push(&mut self, time: f64, payload: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let day = self.day(time);
        if day < self.cursor_day {
            // Keep the invariant that no queued event predates the cursor's
            // day; the rotation scan in `scan_min` relies on it.
            self.cursor_day = day;
            self.cursor = (day as usize) & self.mask;
        }
        let ev = Event { time, seq, payload };
        let idx = (day as usize) & self.mask;
        insert_sorted(&mut self.buckets[idx], ev);
        self.len += 1;
        // A push can only improve a known minimum, never stale it.
        match self.min_cache {
            None if self.len == 1 => self.min_cache = Some((idx, day, ev)),
            Some((_, _, m)) if cmp_event(ev.time, ev.seq, m.time, m.seq).is_lt() => {
                self.min_cache = Some((idx, day, ev));
            }
            _ => {}
        }
        if self.len > self.buckets.len() * 2 {
            if self.buckets.len() >= 1024 {
                // Deep queues grow by splitting buckets in place; the full
                // rebuild (which re-derives the width) already ran on the
                // way up through the small sizes, so the width is a settled
                // estimate by the time splits take over.
                self.grow_split();
            } else {
                self.resize(self.buckets.len() * 2);
            }
        }
        seq
    }

    /// Doubles the bucket count by splitting every bucket in place, keeping
    /// the current width. Day numbers don't change, so bucket `i`'s events
    /// belong to new bucket `i` or `i + n` according to the next day bit,
    /// and a stable `retain` keeps both halves sorted. This avoids the
    /// full rebuild's collect/re-insert pass on the hot growth path.
    fn grow_split(&mut self) {
        let n = self.buckets.len();
        self.buckets.resize_with(n * 2, VecDeque::new);
        self.mask = n * 2 - 1;
        let bit = n as u64;
        let inv_width = self.inv_width;
        // Same day function as `Self::day`, restated so the closure does
        // not borrow `self` inside the split loop.
        let day = move |t: f64| (t.max(0.0) * inv_width) as u64;
        let (low, high) = self.buckets.split_at_mut(n);
        for (src, dst) in low.iter_mut().zip(high.iter_mut()) {
            src.retain(|ev| {
                if day(ev.time) & bit == 0 {
                    true
                } else {
                    dst.push_back(*ev);
                    false
                }
            });
        }
        self.cursor = (self.cursor_day as usize) & self.mask;
        // Day numbers are unchanged, so a cached minimum stays the minimum;
        // only its ring position moves.
        if let Some((idx, cached_day, _)) = self.min_cache.as_mut() {
            *idx = (*cached_day as usize) & (n * 2 - 1);
        }
    }

    /// Earliest event without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<Event> {
        self.scan_min().map(|(_, _, ev)| ev)
    }

    /// Removes and returns the earliest event (ties in insertion order).
    pub fn pop_min(&mut self) -> Option<Event> {
        let (idx, day, _) = self.scan_min()?;
        let ev = self.buckets[idx].pop_front().expect("scan_min found a non-empty bucket");
        self.len -= 1;
        // Advance the cursor to the popped event's day so future scans
        // start near it.
        self.cursor = idx;
        self.cursor_day = day;
        self.refill_min(idx, day);
        if self.len >= 4 && self.len < self.buckets.len() / 2 {
            self.resize((self.buckets.len() / 2).max(2));
        }
        Some(ev)
    }

    /// After popping the minimum from bucket `idx` (day `day`), the new
    /// global minimum is the bucket's new front iff that event is still in
    /// the same day (all events of one day share one bucket, and every
    /// other bucket's days are strictly later). Otherwise it's unknown.
    fn refill_min(&mut self, idx: usize, day: u64) {
        self.min_cache = match self.buckets[idx].front() {
            Some(t) if self.day(t.time) == day => Some((idx, day, *t)),
            _ => None,
        };
    }

    /// Day number owning `time`. Every placement, rewind, and scan decision
    /// funnels through this one function, so an event's bucket and the day
    /// the rotation visits it on can never disagree.
    fn day(&self, time: f64) -> u64 {
        (time.max(0.0) * self.inv_width) as u64
    }

    /// Finds the bucket holding the global minimum; returns its index, the
    /// minimum's day and the event. Walks at most one full calendar year;
    /// falls back to a direct scan when events are sparse.
    ///
    /// Why the accepted front is the global minimum: every queued event's day
    /// is `>= cursor_day` (push/pop maintain that), a bucket only holds days
    /// congruent to its index, and all events of one day share one bucket.
    /// So when the sweep at day `d` sees a front with `day(front) <= d`, any
    /// bucket later in the sweep can only hold strictly later days, and any
    /// earlier-skipped bucket's events are at least a full ring-rotation
    /// away.
    fn scan_min(&self) -> Option<(usize, u64, Event)> {
        if self.len == 0 {
            return None;
        }
        if self.min_cache.is_some() {
            return self.min_cache;
        }
        let mut idx = self.cursor;
        for day in self.cursor_day..self.cursor_day + self.buckets.len() as u64 {
            if let Some(ev) = self.buckets[idx].front() {
                if self.day(ev.time) <= day {
                    return Some((idx, day, *ev));
                }
            }
            idx = (idx + 1) & self.mask;
        }
        // Sparse case: direct scan across bucket fronts.
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.front().map(|ev| (i, self.day(ev.time), *ev)))
            .min_by(|a, b| cmp_event(a.2.time, a.2.seq, b.2.time, b.2.seq))
    }

    /// Rebuilds the calendar with `nbuckets` buckets and a width derived
    /// from the observed event span.
    fn resize(&mut self, nbuckets: usize) {
        debug_assert!(nbuckets.is_power_of_two(), "bucket counts double/halve from 2");
        let mut events: Vec<Event> = Vec::with_capacity(self.len);
        let old_n = self.buckets.len();
        for step in 0..old_n {
            // Walk the ring starting at the cursor: when the span fits one
            // calendar year (the common case) this collects events in
            // ascending-day order, so redistribution below streams through
            // destination buckets sequentially instead of at random.
            // `drain` empties the bucket but keeps its heap buffer, so a
            // grow-resize reuses every existing allocation instead of
            // dropping n buffers and re-allocating them on first push.
            let idx = (self.cursor + step) & self.mask;
            events.extend(self.buckets[idx].drain(..));
        }
        let (lo, hi) = events.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), e| {
            (lo.min(e.time), hi.max(e.time))
        });
        if events.len() >= 2 && hi > lo {
            // Aim for ~1 event per bucket across the occupied span.
            self.width = ((hi - lo) / events.len() as f64 * 2.0).max(f64::MIN_POSITIVE);
            self.inv_width = 1.0 / self.width;
        }
        self.buckets.resize_with(nbuckets, VecDeque::new);
        self.mask = nbuckets - 1;
        self.len = 0;
        // The width (and with it every day number) may have changed;
        // recompute the minimum lazily on the next scan.
        self.min_cache = None;
        self.cursor_day = if lo.is_finite() { self.day(lo) } else { 0 };
        self.cursor = (self.cursor_day as usize) & self.mask;
        for ev in events {
            let idx = (self.day(ev.time) as usize) & self.mask;
            insert_sorted(&mut self.buckets[idx], ev);
            self.len += 1;
        }
    }

    /// Retires events with `time <= arrival`; returns how many remain
    /// queued (the same contract as [`DepthTracker::arrive`]).
    ///
    /// It fuses peek and pop into a single rotation scan per retired event
    /// and memoizes the cursor at the minimum's day even when nothing
    /// retires — the common "probe fails" call is then a one-bucket check,
    /// like a heap's O(1) peek. For the chip-completion backlog itself,
    /// prefer [`DepthTracker`]: its input is near-sorted by construction,
    /// which admits a flat sorted ring with no bucket indirection at all.
    pub fn arrive(&mut self, arrival: f64) -> usize {
        // Fast path: a known minimum later than the arrival means nothing
        // retires — no bucket memory is touched at all.
        if let Some((_, _, ev)) = self.min_cache {
            if ev.time > arrival {
                return self.len;
            }
        }
        while self.len > 0 {
            let Some((idx, day, ev)) = self.scan_min() else { break };
            self.cursor = idx;
            self.cursor_day = day;
            if ev.time > arrival {
                self.min_cache = Some((idx, day, ev));
                break;
            }
            self.buckets[idx].pop_front();
            self.len -= 1;
            self.refill_min(idx, day);
            if self.len >= 4 && self.len < self.buckets.len() / 2 {
                self.resize((self.buckets.len() / 2).max(2));
            }
        }
        self.len
    }

    /// Registers a completion event at `at` (depth-tracker compatible).
    pub fn complete_at(&mut self, at: f64) {
        self.push(at, 0);
    }
}

/// Orders `(time, seq)` pairs ascending: `total_cmp` on time (NaN-safe),
/// insertion sequence breaks ties.
fn cmp_event(at: f64, aseq: u64, bt: f64, bseq: u64) -> std::cmp::Ordering {
    at.total_cmp(&bt).then(aseq.cmp(&bseq))
}

/// Inserts `ev` into an ascending bucket. Near-sorted streams append at the
/// back in O(1); out-of-order events fall back to a binary search plus a
/// `VecDeque::insert`, which moves from whichever end is closer.
fn insert_sorted(bucket: &mut VecDeque<Event>, ev: Event) {
    match bucket.back() {
        Some(b) if cmp_event(ev.time, ev.seq, b.time, b.seq).is_lt() => {
            let pos = bucket.partition_point(|e| cmp_event(e.time, e.seq, ev.time, ev.seq).is_lt());
            bucket.insert(pos, ev);
        }
        _ => bucket.push_back(ev),
    }
}

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
    fn calendar_pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.push(30.0, 3);
        q.push(10.0, 1);
        q.push(20.0, 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_min().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn calendar_breaks_ties_by_insertion_order() {
        let mut q = CalendarQueue::new();
        q.push(5.0, 10);
        q.push(5.0, 11);
        q.push(5.0, 12);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_min().map(|e| e.payload)).collect();
        assert_eq!(order, vec![10, 11, 12]);
    }

    #[test]
    fn calendar_survives_resize_cycles() {
        let mut q = CalendarQueue::new();
        for i in 0..1000u32 {
            // Deterministic scatter across a wide span.
            q.push(f64::from((i * 7919) % 10_000), i);
        }
        let mut last = f64::NEG_INFINITY;
        let mut n = 0;
        while let Some(ev) = q.pop_min() {
            assert!(ev.time >= last, "pop order regressed: {} after {last}", ev.time);
            last = ev.time;
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn calendar_interleaves_push_and_pop() {
        let mut q = CalendarQueue::new();
        q.push(1.0, 1);
        q.push(3.0, 3);
        assert_eq!(q.pop_min().unwrap().payload, 1);
        q.push(2.0, 2);
        assert_eq!(q.pop_min().unwrap().payload, 2);
        assert_eq!(q.pop_min().unwrap().payload, 3);
        assert!(q.pop_min().is_none());
    }

    #[test]
    fn calendar_depth_tracker_matches_heap_semantics() {
        // The depth sequence a binary heap of completion times would give.
        let mut q = CalendarQueue::new();
        assert_eq!(q.arrive(0.0), 0);
        q.complete_at(10.0);
        q.complete_at(20.0);
        assert_eq!(q.arrive(5.0), 2, "both still running at t=5");
        assert_eq!(q.arrive(10.0), 1, "first completed exactly at t=10");
        assert_eq!(q.arrive(25.0), 0);
    }

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
