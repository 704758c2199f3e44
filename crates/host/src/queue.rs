//! Per-tenant submission queues and statistics.

use ftl::sched::Arena;
use ftl::{IoRequest, LatencyHistogram, QosClass};
use std::collections::VecDeque;

/// Per-tenant garbage-collection SLO: at most `debt_us` µs of budgeted
/// collection work may be charged to this tenant's commands inside any
/// `window_us`-long wall-clock window. Windows are fixed (aligned at
/// multiples of `window_us` from time zero, selected by a command's
/// submission time), and debt resets at each window boundary. When a
/// window's budget is exhausted the frontend dispatches the tenant's
/// commands with a zero device-side allowance — ladder slices are
/// suppressed until the next window, though the device's emergency floor
/// still runs (media safety outranks the SLO).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcSlo {
    /// Collection-debt budget per window, µs.
    pub debt_us: f64,
    /// Window length, µs.
    pub window_us: f64,
}

/// Static description of one tenant: its QoS class, its arbitration
/// weight, the depth of its submission queue, and an optional GC SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable tenant name (carried into stats and CSV rows).
    pub name: String,
    /// QoS class — picks the superblock speed class its writes land in
    /// under function-based placement.
    pub qos: QosClass,
    /// Weighted-round-robin weight (ignored by plain round-robin).
    pub weight: u32,
    /// Submission-queue depth; arrivals beyond it are backpressured in
    /// host memory until a slot frees.
    pub queue_depth: usize,
    /// Per-window collection-debt budget; `None` (the default) leaves the
    /// tenant on the device's global per-command budget alone.
    pub gc_slo: Option<GcSlo>,
}

impl TenantSpec {
    /// A tenant with unit weight, an unbounded submission queue and no GC
    /// SLO.
    #[must_use]
    pub fn new(name: &str, qos: QosClass) -> Self {
        TenantSpec { name: name.to_string(), qos, weight: 1, queue_depth: usize::MAX, gc_slo: None }
    }

    /// Sets the weighted-round-robin weight (must be at least 1).
    #[must_use]
    pub fn weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "weight must be at least 1");
        self.weight = weight;
        self
    }

    /// Bounds the submission queue (must admit at least 1 entry).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth must be at least 1");
        self.queue_depth = depth;
        self
    }

    /// Caps the collection debt this tenant's commands may be charged to
    /// `debt_us` µs per `window_us`-long window. `debt_us` must be `>= 0`
    /// (zero forbids any charged collection work), `window_us` must be
    /// `> 0`, and both must be finite.
    ///
    /// # Panics
    ///
    /// Panics if either bound is violated.
    #[must_use]
    pub fn gc_slo(mut self, debt_us: f64, window_us: f64) -> Self {
        assert!(debt_us >= 0.0 && debt_us.is_finite(), "debt budget must be finite and >= 0");
        assert!(window_us > 0.0 && window_us.is_finite(), "window must be finite and positive");
        self.gc_slo = Some(GcSlo { debt_us, window_us });
        self
    }
}

/// Per-tenant completion statistics collected by the frontend.
///
/// Latencies are end-to-end from the tenant's point of view: queueing in
/// the bounded submission queue, waiting for the device, and service.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name (copied from the spec).
    pub name: String,
    /// QoS class (copied from the spec).
    pub qos: QosClass,
    /// Commands completed.
    pub completed: u64,
    /// End-to-end write latencies.
    pub write_latency: LatencyHistogram,
    /// End-to-end read latencies (misses record their wait).
    pub read_latency: LatencyHistogram,
    /// Total time commands spent between arrival and dispatch.
    pub queue_wait_us: f64,
    /// Highest submission-queue occupancy observed.
    pub depth_high_water: usize,
    /// Arrivals that found the submission queue full and had to wait in
    /// host memory for a slot.
    pub backpressured: u64,
    /// Total budgeted collection work charged to this tenant's commands,
    /// µs (the tenant's share of the device's `gc_stall_us`). Tracked only
    /// for tenants with a [`GcSlo`]; stays 0 otherwise.
    pub gc_debt_us: f64,
    /// Highest collection debt accumulated inside any single SLO window,
    /// µs. The SLO holds when this stays at or under the budget plus one
    /// slice overrun (a slice yields only between word-line steps).
    pub gc_window_peak_us: f64,
    /// Commands dispatched while the window's debt budget was exhausted
    /// (their device-side allowance was zero, suppressing ladder slices).
    pub gc_throttled: u64,
}

impl TenantStats {
    fn new(spec: &TenantSpec) -> Self {
        TenantStats {
            name: spec.name.clone(),
            qos: spec.qos,
            completed: 0,
            write_latency: LatencyHistogram::default(),
            read_latency: LatencyHistogram::default(),
            queue_wait_us: 0.0,
            depth_high_water: 0,
            backpressured: 0,
            gc_debt_us: 0.0,
            gc_window_peak_us: 0.0,
            gc_throttled: 0,
        }
    }

    /// Mean time from arrival to dispatch, over all completed commands.
    #[must_use]
    pub fn mean_queue_wait_us(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.queue_wait_us / self.completed as f64
        }
    }
}

/// One entry sitting in a submission queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    /// When the tenant issued the request.
    pub arrival: f64,
    /// When it entered the submission queue (later than `arrival` only
    /// under backpressure).
    pub submit: f64,
    /// The request itself.
    pub req: IoRequest,
}

/// Runtime state of one tenant: its pending arrival stream, its bounded
/// submission queue, and its stats.
#[derive(Debug)]
pub(crate) struct TenantState {
    pub spec: TenantSpec,
    /// Arrival-sorted request stream not yet admitted to the queue.
    pub stream: Vec<(f64, IoRequest)>,
    /// Index of the next stream entry to admit.
    pub next: usize,
    /// Submission queue: handles into the frontend's record arena.
    pub sq: VecDeque<u32>,
    /// When the last slot freed while the queue was full — the earliest
    /// instant a backpressured arrival can enter the queue.
    pub freed_at: f64,
    pub stats: TenantStats,
    /// Index (`floor(submit / window_us)`, kept as f64 so huge clocks never
    /// overflow a cast) of the SLO window the debt below belongs to.
    gc_window: f64,
    /// Collection debt accumulated inside the current SLO window, µs.
    gc_window_debt: f64,
}

impl TenantState {
    pub(crate) fn new(spec: TenantSpec) -> Self {
        let stats = TenantStats::new(&spec);
        TenantState {
            spec,
            stream: Vec::new(),
            next: 0,
            sq: VecDeque::new(),
            freed_at: 0.0,
            stats,
            gc_window: 0.0,
            gc_window_debt: 0.0,
        }
    }

    /// Rolls the SLO window forward to the one containing `submit` and
    /// returns the remaining debt allowance for a command dispatched now —
    /// `None` when the tenant has no SLO (allowance stays uncapped). A
    /// returned `0.0` means the window budget is spent; the caller counts
    /// the dispatch as throttled.
    pub(crate) fn gc_allowance(&mut self, submit: f64) -> Option<f64> {
        let slo = self.spec.gc_slo?;
        let window = (submit / slo.window_us).floor();
        if window != self.gc_window {
            self.gc_window = window;
            self.gc_window_debt = 0.0;
        }
        Some((slo.debt_us - self.gc_window_debt).max(0.0))
    }

    /// Charges `debt_us` of collection work to the current SLO window and
    /// folds it into the tenant's totals. Call only for SLO tenants, after
    /// the dispatch whose [`TenantState::gc_allowance`] selected the
    /// window.
    pub(crate) fn charge_gc_debt(&mut self, debt_us: f64) {
        self.gc_window_debt += debt_us;
        self.stats.gc_debt_us += debt_us;
        self.stats.gc_window_peak_us = self.stats.gc_window_peak_us.max(self.gc_window_debt);
    }

    /// Arrival time of the next not-yet-admitted request, if any.
    pub(crate) fn next_arrival(&self) -> Option<f64> {
        self.stream.get(self.next).map(|&(arrival, _)| arrival)
    }

    /// Moves every request that has arrived by `now` into the submission
    /// queue, respecting the depth bound. Records live in the frontend's
    /// shared [`Arena`] and the queue holds handles — one slab serves every
    /// tenant, and a record is touched exactly twice (alloc at admission,
    /// free at dispatch).
    pub(crate) fn admit(&mut self, now: f64, arena: &mut Arena<Queued>) {
        while let Some(&(arrival, req)) = self.stream.get(self.next) {
            if arrival > now || self.sq.len() >= self.spec.queue_depth {
                break;
            }
            // A backpressured arrival enters only once a slot freed.
            let submit = arrival.max(self.freed_at);
            if submit > arrival {
                self.stats.backpressured += 1;
            }
            self.sq.push_back(arena.alloc(Queued { arrival, submit, req }));
            self.stats.depth_high_water = self.stats.depth_high_water.max(self.sq.len());
            self.next += 1;
        }
    }

    /// Whether every submitted request has been admitted and completed.
    pub(crate) fn drained(&self) -> bool {
        self.next == self.stream.len() && self.sq.is_empty()
    }
}
