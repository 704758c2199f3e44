//! The timed replay: clocks, queue-inclusive latency samples and the
//! idle-gap hook that runs background GC and patrol.

use super::Ssd;
use crate::config::QosClass;
use crate::gc::GcBudget;
use crate::request::{IoOp, IoRequest};
use crate::sched::DepthTracker;
use crate::timing::{ChipClocks, Clock, QueueModel, ReplayState, TimedOutcome};
use crate::Result;

impl Ssd {
    /// Executes an open-loop request stream with arrival times: recorded
    /// latencies include queueing delay, so GC pauses and slow superblocks
    /// show up in the tail percentiles.
    /// [`FtlConfig::queue_model`](crate::FtlConfig::queue_model) selects
    /// the clock: `Single` serializes every request behind one device-wide
    /// queue (the original model, bit-identical outputs); `PerChip` gives
    /// each chip/plane group its own busy-until clock so a request waits
    /// only for the chips it touches and work overlaps across chips.
    ///
    /// `requests` must be sorted by arrival time (µs).
    ///
    /// # Errors
    ///
    /// Stops at the first failing request.
    pub fn run_timed(&mut self, requests: &[(f64, IoRequest)]) -> Result<()> {
        self.timed_begin();
        let result = requests.iter().try_for_each(|&(arrival, r)| {
            self.timed_step(arrival, r, QosClass::Standard).map(drop)
        });
        self.timed_end();
        result
    }

    /// Starts an incremental timed replay: initializes the clock state for
    /// the configured [`FtlConfig::queue_model`](crate::FtlConfig::queue_model)
    /// so individual requests can be fed through [`Ssd::timed_step`]. [`Ssd::run_timed`] is exactly
    /// `timed_begin` + one `timed_step` per request + [`Ssd::timed_end`];
    /// external dispatchers (a multi-queue host frontend arbitrating
    /// between tenants) use the same API so their single-queue degenerate
    /// case is structurally identical to the serial replay.
    ///
    /// Beginning a new replay while one is in progress first ends the live
    /// one exactly as [`Ssd::timed_end`] would (its makespan and latency
    /// samples are kept), then starts fresh clocks.
    pub fn timed_begin(&mut self) {
        self.timed_end();
        let clock = match self.config.queue_model {
            QueueModel::Single => Clock::Single(0.0),
            QueueModel::PerChip => {
                self.touches.set_enabled(true);
                let groups = self.array.geometry().chip_plane_groups();
                if self.stats.chip_busy_us.len() != groups + 1 {
                    self.stats.chip_busy_us = vec![0.0; groups + 1];
                }
                Clock::PerChip(ChipClocks::new(groups))
            }
        };
        self.replay = Some(ReplayState {
            clock,
            in_flight: DepthTracker::new(),
            write_samples: Vec::new(),
            read_samples: Vec::new(),
        });
    }

    /// Executes one request of an incremental timed replay: the request
    /// arrives at `arrival` µs, waits for the device clocks per the
    /// configured queue model, and executes with its writes placed by
    /// `class`. Returns where the request landed on the clocks.
    ///
    /// Under `PerChip` the request starts once its arrival has passed and
    /// every resource it touches (member chips of its flash commands, plus
    /// the host channel for page transfers) is free; each touched resource
    /// then stays busy for its own recorded duration, so fast member chips
    /// free early and independent requests overlap. Host-visible latency
    /// keeps the same wait + service shape as the `Single` model — only
    /// the wait changes.
    ///
    /// Arrivals should be non-decreasing across calls (queue-depth
    /// accounting assumes it, like [`Ssd::run_timed`]'s sorted input).
    ///
    /// # Panics
    ///
    /// Panics if called outside a [`Ssd::timed_begin`] … [`Ssd::timed_end`]
    /// replay.
    ///
    /// # Errors
    ///
    /// Propagates the failing request's error; the replay stays live so the
    /// caller decides whether to continue or [`Ssd::timed_end`].
    pub fn timed_step(
        &mut self,
        arrival: f64,
        r: IoRequest,
        class: QosClass,
    ) -> Result<TimedOutcome> {
        // Credit idle wall time to the device clock: data retention decays
        // while the device sits idle waiting for this arrival, not just
        // while it works. (With integrity tracking off nothing reads the
        // clock, so the credit is inert.)
        let wall = self.device_clock_us();
        if arrival > wall {
            self.idle_wall_us += arrival - wall;
        }
        let mut replay = self.replay.take().expect("timed_step requires timed_begin");
        let result = self.step_replay(&mut replay, arrival, r, class);
        self.replay = Some(replay);
        result
    }

    fn step_replay(
        &mut self,
        replay: &mut ReplayState,
        arrival: f64,
        r: IoRequest,
        class: QosClass,
    ) -> Result<TimedOutcome> {
        self.background_in_gap(&mut replay.clock, arrival)?;
        let service = match r.op {
            IoOp::Write => self.write_service(r.lpn, class)?,
            IoOp::Read => self.read_service(r.lpn)?.unwrap_or(0.0),
            IoOp::Trim => {
                self.trim(r.lpn)?;
                0.0
            }
        };
        let start = match &mut replay.clock {
            Clock::Single(device_free_at) => device_free_at.max(arrival),
            Clock::PerChip(chips) => {
                chips.occupy(&mut self.touches, &mut self.stats.chip_busy_us, arrival)
            }
        };
        let wait = start - arrival;
        let completion = start + service;
        // The queue-inclusive latency is the histogram sample. Reads that
        // miss take zero service but the host still waited `wait` for the
        // answer, so that wait is the sample; trim waits land in
        // `trim_wait_us` (trims record no histogram sample).
        self.stats.queue_wait_us += wait;
        match r.op {
            IoOp::Write => replay.write_samples.push(wait + service),
            IoOp::Read if service > 0.0 => replay.read_samples.push(wait + service),
            IoOp::Read => replay.read_samples.push(wait),
            IoOp::Trim => self.stats.trim_wait_us += wait,
        }
        let depth = replay.in_flight.arrive(arrival) as u64 + 1;
        self.stats.queue_depth_max = self.stats.queue_depth_max.max(depth);
        replay.in_flight.complete_at(completion);
        match &mut replay.clock {
            Clock::Single(device_free_at) => *device_free_at = completion,
            Clock::PerChip(chips) => chips.makespan = chips.makespan.max(completion),
        }
        Ok(TimedOutcome {
            wait_us: wait,
            service_us: service,
            start_us: start,
            completion_us: completion,
        })
    }

    /// Background work in the idle gap before `arrival`: idle-time GC
    /// pre-frees space (shrinking foreground pauses), then patrol scrubbing
    /// rides whatever gap is left. Each piece of work is booked on the
    /// clock — the scalar clock advances by its duration; per-chip clocks
    /// charge only the groups it touched — and accounted in `idle_gc_us` or
    /// `patrol_us` rather than foreground utilization.
    fn background_in_gap(&mut self, clock: &mut Clock, arrival: f64) -> Result<()> {
        if self.config.idle_gc {
            match self.config.gc_budget {
                GcBudget::Unbounded => {
                    while clock.now() < arrival
                        && self.manager.assemblable() < self.config.gc_high_watermark
                    {
                        let Some(t) = self.gc_once()? else { break };
                        self.stats.idle_gc_us += t;
                        self.book_background(clock, t);
                    }
                }
                GcBudget::Sliced { .. } => {
                    // The whole idle gap is the budget; the slice parks the
                    // victim when the gap runs out.
                    let now = clock.now();
                    if now < arrival && self.manager.assemblable() < self.config.gc_high_watermark {
                        let t = self.gc_slice(arrival - now)?;
                        if t > 0.0 {
                            self.stats.idle_gc_us += t;
                            self.book_background(clock, t);
                        }
                    }
                }
            }
        }
        let now = clock.now();
        if now < arrival && self.patrol_due() {
            let t = self.patrol_slice(arrival - now)?;
            if t > 0.0 {
                self.stats.patrol_us += t;
                self.book_background(clock, t);
            }
        }
        Ok(())
    }

    /// Books `t` µs of background work on the replay clock.
    fn book_background(&mut self, clock: &mut Clock, t: f64) {
        match clock {
            Clock::Single(device_free_at) => *device_free_at += t,
            Clock::PerChip(chips) => {
                chips.occupy(&mut self.touches, &mut self.stats.chip_busy_us, 0.0);
            }
        }
    }

    /// Finishes an incremental timed replay: folds the final clock state
    /// into [`SsdStats::makespan_us`](crate::SsdStats::makespan_us), appends
    /// the replay's latency samples to the histograms (same values, same
    /// order as per-op records) and drops the replay state. No-op when no replay is in progress.
    pub fn timed_end(&mut self) {
        let Some(replay) = self.replay.take() else { return };
        let makespan = match replay.clock {
            Clock::Single(device_free_at) => device_free_at,
            Clock::PerChip(chips) => {
                self.touches.set_enabled(false);
                chips.makespan.max(chips.busy.iter().fold(0.0f64, |a, &b| a.max(b)))
            }
        };
        self.stats.makespan_us = self.stats.makespan_us.max(makespan);
        self.stats.write_latency.extend(&replay.write_samples);
        self.stats.read_latency.extend(&replay.read_samples);
    }
}
