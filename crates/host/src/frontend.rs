//! The multi-queue host frontend event loop.

use crate::arbiter::{Arbiter, Arbitration};
use crate::queue::{Queued, TenantSpec, TenantState, TenantStats};
use ftl::sched::Arena;
use ftl::trace::TracedRequest;
use ftl::{IoOp, IoRequest, QosClass, Ssd, TimedOutcome};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A multi-queue host frontend: one submission queue per tenant, feeding
/// a single [`Ssd`] through a deterministic event loop.
///
/// Each tenant owns an arrival-timed request stream, a bounded submission
/// queue, and a QoS class. The frontend admits arrivals into the queues,
/// arbitrates over the non-empty ones (round-robin or weighted
/// round-robin), and dispatches one command at a time to the device via
/// its incremental timed engine — so device-side queueing, garbage
/// collection and per-chip clocks all behave exactly as in
/// [`Ssd::run_timed`]. The tenant's QoS class rides along with every
/// write and picks the superblock speed class under function-based
/// placement.
///
/// **Determinism contract**: a single tenant with unit weight and an
/// unbounded queue replays its stream in arrival order with unmodified
/// submission times, which makes the frontend bit-identical to calling
/// [`Ssd::run_timed`] directly (`tests/golden.rs` pins this).
///
/// # Example
///
/// ```
/// use ftl::{poisson_arrivals, FtlConfig, QosClass, Ssd, Workload};
/// use host::{Arbitration, HostFrontend, TenantSpec};
///
/// let ssd = Ssd::new(FtlConfig::small_test(), 42).expect("valid config");
/// let info = ssd.geometry_info();
/// let mut front = HostFrontend::new(
///     ssd,
///     vec![
///         TenantSpec::new("db", QosClass::LatencyCritical).weight(4),
///         TenantSpec::new("scrub", QosClass::Background).queue_depth(8),
///     ],
///     Arbitration::WeightedRoundRobin,
/// );
/// for tenant in 0..2 {
///     let reqs = Workload::random_write(0.4).generate(&info, 500, tenant as u64);
///     front.submit(tenant, &poisson_arrivals(&reqs, 100.0, tenant as u64));
/// }
/// front.run().expect("replay succeeds");
/// assert_eq!(front.tenant_stats(0).completed, 500);
/// assert_eq!(front.tenant_stats(1).completed, 500);
/// ```
#[derive(Debug)]
pub struct HostFrontend {
    ssd: Ssd,
    tenants: Vec<TenantState>,
    arbiter: Arbiter,
    dispatch_log: Vec<usize>,
    now: f64,
    /// Records of admitted commands; tenant submission queues hold handles.
    arena: Arena<Queued>,
}

impl HostFrontend {
    /// Builds a frontend over `specs.len()` submission queues.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty (weights and depths are validated by
    /// [`TenantSpec`]'s builders).
    #[must_use]
    pub fn new(ssd: Ssd, specs: Vec<TenantSpec>, arbitration: Arbitration) -> Self {
        assert!(!specs.is_empty(), "frontend needs at least one tenant");
        let weights = specs.iter().map(|s| s.weight).collect();
        let tenants = specs.into_iter().map(TenantState::new).collect();
        HostFrontend {
            ssd,
            tenants,
            arbiter: Arbiter::new(arbitration, weights),
            dispatch_log: Vec::new(),
            now: 0.0,
            arena: Arena::with_capacity(64),
        }
    }

    /// Number of tenants (submission queues).
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Appends `(arrival_us, request)` pairs to a tenant's stream. Streams
    /// may be submitted in several batches; they are kept sorted by
    /// arrival time (stable, so equal arrivals preserve submission order).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range or called after [`run`].
    ///
    /// [`run`]: HostFrontend::run
    pub fn submit(&mut self, tenant: usize, requests: &[(f64, IoRequest)]) {
        assert!(self.dispatch_log.is_empty() && self.now == 0.0, "submit before run");
        let state = &mut self.tenants[tenant];
        state.stream.extend_from_slice(requests);
        state.stream.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("arrival times are not NaN"));
    }

    /// Routes parsed trace requests to their queues by tenant id (the
    /// trace's optional fourth column), pairing each with its arrival: one
    /// routing pass plus a single stable sort per tenant, so equal arrivals
    /// keep trace order — the same streams per-request [`submit`] calls
    /// would build, at O(n log n) instead of a re-sort per request.
    ///
    /// # Panics
    ///
    /// Panics if a tenant id is out of range or called after [`run`].
    ///
    /// [`submit`]: HostFrontend::submit
    /// [`run`]: HostFrontend::run
    pub fn submit_traced_batched(&mut self, requests: &[(f64, TracedRequest)]) {
        assert!(self.dispatch_log.is_empty() && self.now == 0.0, "submit before run");
        let n = self.tenants.len();
        for &(arrival, traced) in requests {
            let tenant = traced.tenant as usize;
            assert!(tenant < n, "trace tenant {tenant} but frontend has {n} queues");
            self.tenants[tenant].stream.push((arrival, traced.request));
        }
        for state in &mut self.tenants {
            state.stream.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("arrival times are not NaN"));
        }
    }

    /// Replays every submitted stream to completion.
    ///
    /// The drain is event-driven: host arrivals live as events in a
    /// min-heap, readiness is a packed bitmask updated on queue
    /// transitions, queue records are arena-allocated, and per-tenant
    /// latency samples accumulate in vectors folded once at the end.
    /// Admission runs exactly when the queue state can change — after the
    /// clock advances past an arrival, or after a dispatch frees a slot.
    ///
    /// # Errors
    ///
    /// Propagates the first device error (invalid LPN, injected fault,
    /// power loss). The device keeps its partial state and stats.
    pub fn run(&mut self) -> ftl::Result<()> {
        self.ssd.timed_begin();
        let mut drain = Drain::new(&self.tenants);
        let result = self.drain(&mut drain);
        // Fold partial clocks and samples into the stats even on the error
        // path.
        self.ssd.timed_end();
        for (t, (w, r)) in
            self.tenants.iter_mut().zip(drain.write_samples.iter().zip(&drain.read_samples))
        {
            t.stats.write_latency.extend(w);
            t.stats.read_latency.extend(r);
        }
        result
    }

    fn drain(&mut self, run: &mut Drain) -> ftl::Result<()> {
        for i in 0..self.tenants.len() {
            self.admit_one(run, i);
        }
        loop {
            // When the device wants a GC slice — or patrol scrubbing has
            // starved past a full interval and will bill foreground
            // commands — drain latency-critical queues first: their
            // commands skip both payments device-side, and granting a
            // lower class first would sandwich the waiting LC command
            // behind that command's slice. Work-conserving — the mask only
            // applies while a latency-critical queue is ready.
            let pick = if self.ssd.gc_slice_pending()
                && run.ready.iter().zip(&run.lc_mask).any(|(&r, &m)| r & m != 0)
            {
                for (m, (&r, &l)) in run.masked.iter_mut().zip(run.ready.iter().zip(&run.lc_mask)) {
                    *m = r & l;
                }
                self.arbiter.pick_mask(&run.masked)
            } else {
                self.arbiter.pick_mask(&run.ready)
            };
            let Some(k) = pick else {
                // Every queue is empty: jump to the next arrival event, or
                // stop once all streams are drained. (No queue ready means
                // no tenant is depth-blocked, so every pending arrival has
                // an event in the heap.)
                let Some(Reverse(ev)) = run.arrivals.pop() else {
                    return Ok(());
                };
                let i = ev.tenant;
                run.scheduled[i] = false;
                self.now = self.now.max(ev.time);
                self.admit_one(run, i);
                self.fire_due_arrivals(run);
                continue;
            };
            let state = &mut self.tenants[k];
            let was_full = state.sq.len() >= state.spec.queue_depth;
            let handle = state.sq.pop_front().expect("picked queue is ready");
            let item = self.arena.free(handle);
            if state.sq.is_empty() {
                run.ready[k / 64] &= !(1u64 << (k % 64));
            }
            if was_full {
                // The slot frees the instant the command is fetched.
                state.freed_at = self.now;
            }
            let qos = state.spec.qos;
            let out = self.step_with_slo(k, item, qos)?;
            self.now = self.now.max(out.completion_us);
            self.dispatch_log.push(k);
            let stats = &mut self.tenants[k].stats;
            let wait = out.start_us - item.arrival;
            stats.queue_wait_us += wait;
            match item.req.op {
                IoOp::Write => run.write_samples[k].push(wait + out.service_us),
                IoOp::Read => {
                    // Mirror the device convention: a miss has no service
                    // time but its wait still counts as a latency sample.
                    if out.service_us > 0.0 {
                        run.read_samples[k].push(wait + out.service_us);
                    } else {
                        run.read_samples[k].push(wait);
                    }
                }
                IoOp::Trim => {}
            }
            stats.completed += 1;
            // The clock moved and a slot freed: fire due arrival events
            // first (they may include tenant k's), then top up tenant k.
            self.fire_due_arrivals(run);
            self.admit_one(run, k);
        }
    }

    /// One device step under tenant `k`'s GC SLO. For a tenant with a
    /// [`crate::GcSlo`], the device's per-command allowance is set to the
    /// window's remaining debt budget before the step, the collection
    /// stall the command was actually charged (the device's `gc_stall_us`
    /// delta — foreground GC slices, overdue patrol-scrub payments down the
    /// same QoS ladder, plus any emergency-floor reclaim, never idle-gap
    /// work) is folded back into the window after it, and the allowance is
    /// restored to `INFINITY` so other tenants stay uncapped. Tenants
    /// without an SLO take the plain step — the device field never moves
    /// off its default, keeping SLO-free runs bit-identical to builds
    /// without this feature.
    fn step_with_slo(
        &mut self,
        k: usize,
        item: Queued,
        qos: QosClass,
    ) -> ftl::Result<TimedOutcome> {
        let Some(allowance) = self.tenants[k].gc_allowance(item.submit) else {
            return self.ssd.timed_step(item.submit, item.req, qos);
        };
        self.ssd.set_gc_allowance(allowance);
        let before = self.ssd.stats().gc_stall_us;
        let result = self.ssd.timed_step(item.submit, item.req, qos);
        // Charge the debt even on the error path, mirroring how partial
        // clocks are folded by `run`.
        let debt = self.ssd.stats().gc_stall_us - before;
        self.ssd.set_gc_allowance(f64::INFINITY);
        let state = &mut self.tenants[k];
        state.charge_gc_debt(debt);
        if allowance <= 0.0 {
            state.stats.gc_throttled += 1;
        }
        result
    }

    /// Admits tenant `i` up to `self.now`, updates its readiness bit, and
    /// schedules its next arrival event. A depth-blocked tenant gets no
    /// event — only a dispatch (which calls back here) can unblock it.
    fn admit_one(&mut self, run: &mut Drain, i: usize) {
        let state = &mut self.tenants[i];
        state.admit(self.now, &mut self.arena);
        if !state.sq.is_empty() {
            run.ready[i / 64] |= 1u64 << (i % 64);
        }
        if !run.scheduled[i] && state.sq.len() < state.spec.queue_depth {
            if let Some(t) = state.next_arrival() {
                run.arrivals.push(Reverse(Arrival { time: t, seq: run.next_seq, tenant: i }));
                run.next_seq += 1;
                run.scheduled[i] = true;
            }
        }
    }

    /// Fires every arrival event due by `self.now`, admitting its tenant.
    fn fire_due_arrivals(&mut self, run: &mut Drain) {
        while run.arrivals.peek().is_some_and(|Reverse(ev)| ev.time <= self.now) {
            let Reverse(ev) = run.arrivals.pop().expect("peeked event exists");
            let i = ev.tenant;
            run.scheduled[i] = false;
            self.admit_one(run, i);
        }
    }

    /// Whether every submitted request has been dispatched and completed.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.tenants.iter().all(TenantState::drained)
    }

    /// Per-tenant statistics.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    #[must_use]
    pub fn tenant_stats(&self, tenant: usize) -> &TenantStats {
        &self.tenants[tenant].stats
    }

    /// Statistics for every tenant, in queue order.
    #[must_use]
    pub fn all_stats(&self) -> Vec<&TenantStats> {
        self.tenants.iter().map(|t| &t.stats).collect()
    }

    /// The order tenants were granted the device, one entry per command.
    #[must_use]
    pub fn dispatch_log(&self) -> &[usize] {
        &self.dispatch_log
    }

    /// The wrapped device.
    #[must_use]
    pub fn device(&self) -> &Ssd {
        &self.ssd
    }

    /// Consumes the frontend, returning the device (for stats extraction
    /// or further replay).
    #[must_use]
    pub fn into_device(self) -> Ssd {
        self.ssd
    }
}

/// A tenant's next host arrival, pending in the drain's min-heap.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Absolute arrival time, µs.
    time: f64,
    /// Push order; equal times pop first-pushed first.
    seq: u64,
    tenant: usize,
}

/// Ordered by `time` (`f64::total_cmp`), then `seq`, so the pop order is
/// deterministic and never panics on NaN.
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Arrival {}

/// Working set of one drain: the host-arrival heap, the packed readiness
/// mask and the per-tenant latency accumulators.
struct Drain {
    /// Pending arrivals, earliest first.
    arrivals: BinaryHeap<Reverse<Arrival>>,
    /// Sequence number of the next pushed arrival.
    next_seq: u64,
    /// Whether tenant `i` has an arrival event queued (at most one each).
    scheduled: Vec<bool>,
    ready: Vec<u64>,
    /// Which tenants are latency-critical (fixed over the run); `ready &
    /// lc_mask` is the LC-first readiness used while a GC slice is pending.
    lc_mask: Vec<u64>,
    /// Scratch for the masked readiness, kept allocated across dispatches.
    masked: Vec<u64>,
    write_samples: Vec<Vec<f64>>,
    read_samples: Vec<Vec<f64>>,
}

impl Drain {
    fn new(tenants: &[TenantState]) -> Self {
        let n = tenants.len();
        let mut lc_mask = vec![0u64; n.div_ceil(64)];
        for (i, t) in tenants.iter().enumerate() {
            if t.spec.qos == QosClass::LatencyCritical {
                lc_mask[i / 64] |= 1u64 << (i % 64);
            }
        }
        Drain {
            arrivals: BinaryHeap::with_capacity(n),
            next_seq: 0,
            scheduled: vec![false; n],
            ready: vec![0u64; n.div_ceil(64)],
            lc_mask,
            masked: vec![0u64; n.div_ceil(64)],
            write_samples: vec![Vec::new(); n],
            read_samples: vec![Vec::new(); n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl::{poisson_arrivals, FtlConfig, QosClass, Workload};

    fn small_ssd() -> Ssd {
        Ssd::new(FtlConfig::small_test(), 7).unwrap()
    }

    fn timed_writes(ssd: &Ssd, n: usize, seed: u64, mean_us: f64) -> Vec<(f64, IoRequest)> {
        let reqs = Workload::random_write(0.5).generate(&ssd.geometry_info(), n, seed);
        poisson_arrivals(&reqs, mean_us, seed)
    }

    #[test]
    fn arrivals_pop_by_time_then_push_order() {
        let mut heap = BinaryHeap::new();
        for (seq, (time, tenant)) in
            [(30.0, 0), (5.0, 1), (5.0, 2), (10.0, 3), (5.0, 4)].into_iter().enumerate()
        {
            heap.push(Reverse(Arrival { time, seq: seq as u64, tenant }));
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| heap.pop().map(|Reverse(a)| a.tenant)).collect();
        assert_eq!(order, vec![1, 2, 4, 3, 0], "time first, ties in push order");
    }

    #[test]
    fn two_tenants_complete_everything() {
        let ssd = small_ssd();
        let streams: Vec<_> = (0..2).map(|i| timed_writes(&ssd, 300, i, 120.0)).collect();
        let mut front = HostFrontend::new(
            ssd,
            vec![
                TenantSpec::new("a", QosClass::LatencyCritical),
                TenantSpec::new("b", QosClass::Background),
            ],
            Arbitration::RoundRobin,
        );
        front.submit(0, &streams[0]);
        front.submit(1, &streams[1]);
        front.run().unwrap();
        assert!(front.drained());
        assert_eq!(front.tenant_stats(0).completed, 300);
        assert_eq!(front.tenant_stats(1).completed, 300);
        assert_eq!(front.dispatch_log().len(), 600);
        let dev = front.device();
        assert_eq!(dev.stats().host_writes, 600);
        assert_eq!(dev.stats().host_writes_by_class, [300, 0, 300]);
    }

    #[test]
    fn bounded_queue_backpressures_and_records_high_water() {
        let ssd = small_ssd();
        // Arrivals far faster than the device: everything piles up.
        let stream = timed_writes(&ssd, 400, 3, 1.0);
        let mut front = HostFrontend::new(
            ssd,
            vec![TenantSpec::new("hot", QosClass::Standard).queue_depth(4)],
            Arbitration::RoundRobin,
        );
        front.submit(0, &stream);
        front.run().unwrap();
        let stats = front.tenant_stats(0);
        assert_eq!(stats.completed, 400);
        assert_eq!(stats.depth_high_water, 4, "depth bound is respected");
        assert!(stats.backpressured > 0, "saturating arrivals must backpressure");
        assert!(stats.queue_wait_us > 0.0);
    }

    #[test]
    fn unbounded_queue_never_backpressures() {
        let ssd = small_ssd();
        let stream = timed_writes(&ssd, 400, 3, 1.0);
        let mut front = HostFrontend::new(
            ssd,
            vec![TenantSpec::new("hot", QosClass::Standard)],
            Arbitration::RoundRobin,
        );
        front.submit(0, &stream);
        front.run().unwrap();
        let stats = front.tenant_stats(0);
        assert_eq!(stats.completed, 400);
        assert_eq!(stats.backpressured, 0);
        assert!(stats.depth_high_water > 4, "saturating arrivals pile up in the unbounded queue");
    }

    #[test]
    fn traced_requests_route_by_tenant_column() {
        let trace = b"W,1,1,0\nW,2,1,1\nR,1,1,0\nW,3,2,1\n" as &[u8];
        let parsed = ftl::trace::parse_trace_tenants(trace).unwrap();
        let timed: Vec<(f64, TracedRequest)> =
            parsed.iter().enumerate().map(|(i, &t)| (i as f64 * 50.0, t)).collect();
        let mut front = HostFrontend::new(
            small_ssd(),
            vec![
                TenantSpec::new("t0", QosClass::Standard),
                TenantSpec::new("t1", QosClass::Background),
            ],
            Arbitration::RoundRobin,
        );
        front.submit_traced_batched(&timed);
        front.run().unwrap();
        assert_eq!(front.tenant_stats(0).completed, 2, "W,1 and R,1");
        assert_eq!(front.tenant_stats(1).completed, 3, "W,2 and the 2-page run W,3");
    }

    #[test]
    #[should_panic(expected = "frontend has 1 queues")]
    fn traced_tenant_out_of_range_is_rejected() {
        let parsed = ftl::trace::parse_trace_tenants(b"W,1,1,5\n" as &[u8]).unwrap();
        let mut front = HostFrontend::new(
            small_ssd(),
            vec![TenantSpec::new("only", QosClass::Standard)],
            Arbitration::RoundRobin,
        );
        front.submit_traced_batched(&[(0.0, parsed[0])]);
    }

    #[test]
    fn device_error_is_propagated_and_clocks_are_folded() {
        let ssd = small_ssd();
        let cap = ssd.geometry_info().logical_pages;
        let mut front = HostFrontend::new(
            ssd,
            vec![TenantSpec::new("bad", QosClass::Standard)],
            Arbitration::RoundRobin,
        );
        front.submit(0, &[(0.0, IoRequest::write(1)), (10.0, IoRequest::write(cap))]);
        assert!(front.run().is_err());
        let dev = front.device();
        assert_eq!(dev.stats().host_writes, 1, "work before the error sticks");
        assert!(dev.stats().makespan_us > 0.0, "timed_end folded the partial makespan");
    }
}
