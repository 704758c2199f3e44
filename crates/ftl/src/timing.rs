//! Timing models for open-loop trace replay ([`crate::Ssd::run_timed`]).
//!
//! The device can be clocked two ways:
//!
//! * [`QueueModel::Single`] — one scalar `device_free_at` clock: every
//!   request serializes behind every other, as if the SSD had a single
//!   command queue. This is the original model and stays bit-identical.
//! * [`QueueModel::PerChip`] — one busy-until clock per chip/plane group
//!   plus one for the host channel: a request waits only for the resources
//!   it actually touches, so a superpage program occupies exactly its member
//!   chips until `max(tPROG)` while reads and programs on other chips
//!   proceed. This is the overlap QSTR-MED's superpage striping exploits.
//!
//! During a `PerChip` replay the device records every flash command into a
//! [`TouchLog`] as `(chip/plane group, duration)`; the replay loop turns the
//! log into per-group occupancy. The log is disabled outside `PerChip`
//! replays so the `Single` path stays untouched.

use crate::sched::DepthTracker;

/// Which timing model [`crate::Ssd::run_timed`] uses. See the
/// [module docs](self) for the two models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueModel {
    /// One device-wide command queue (the original scalar clock).
    #[default]
    Single,
    /// Per-chip/plane busy-until clocks; requests overlap across chips.
    PerChip,
}

/// Replay engine selector, kept so existing configurations compile.
///
/// It has no effect: every timed replay runs the one event-driven core
/// (see [`crate::sched`]), whichever variant a configuration names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// No effect.
    #[default]
    Stepper,
    /// No effect.
    Batched,
}

/// Sentinel group index for the host channel/controller resource (page
/// transfers); replay maps it to the slot after the last chip/plane group.
pub(crate) const CONTROLLER: usize = usize::MAX;

/// Where one [`crate::Ssd::timed_step`] landed on the device clocks.
///
/// All times are absolute simulation microseconds on the replay clock that
/// started at [`crate::Ssd::timed_begin`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedOutcome {
    /// Queueing delay: time between the request's arrival and its service
    /// starting, µs.
    pub wait_us: f64,
    /// Service time of the request itself, µs.
    pub service_us: f64,
    /// Absolute time service started, µs.
    pub start_us: f64,
    /// Absolute time the request completed, µs.
    pub completion_us: f64,
}

/// Live state of an in-progress timed replay. Created by
/// [`crate::Ssd::timed_begin`], advanced by [`crate::Ssd::timed_step`],
/// folded into the stats by [`crate::Ssd::timed_end`].
#[derive(Debug)]
pub(crate) struct ReplayState {
    /// The device clocks of the configured [`QueueModel`].
    pub(crate) clock: Clock,
    /// Open-loop queue-depth tracker.
    pub(crate) in_flight: DepthTracker,
    /// Queue-inclusive write latencies, in write order; folded into the
    /// write histogram in one `extend` at `timed_end`.
    pub(crate) write_samples: Vec<f64>,
    /// Queue-inclusive read latencies (hits) and bare waits (misses), in
    /// read order; folded like `write_samples`.
    pub(crate) read_samples: Vec<f64>,
}

/// The device clocks of a timed replay, one variant per [`QueueModel`].
#[derive(Debug)]
pub(crate) enum Clock {
    /// One scalar device-wide clock: when the single command queue drains.
    Single(f64),
    /// Per chip/plane group busy-until clocks plus the host channel.
    PerChip(ChipClocks),
}

impl Clock {
    /// When every accrued piece of work is done: the earliest instant the
    /// device sits idle.
    pub(crate) fn now(&self) -> f64 {
        match self {
            Clock::Single(device_free_at) => *device_free_at,
            Clock::PerChip(c) => c.busy.iter().fold(0.0f64, |a, &b| a.max(b)),
        }
    }
}

/// Busy-until clocks of a [`QueueModel::PerChip`] replay.
#[derive(Debug)]
pub(crate) struct ChipClocks {
    /// Busy-until clock per group; the last slot is the controller.
    pub(crate) busy: Vec<f64>,
    /// Scratch: summed occupancy per group for the current request.
    agg: Vec<f64>,
    /// Scratch: groups the current request touched.
    touched: Vec<usize>,
    /// Scratch: raw touch-log entries.
    buf: Vec<(usize, f64)>,
    /// Latest completion seen so far.
    pub(crate) makespan: f64,
}

impl ChipClocks {
    /// Clocks for `groups` chip/plane groups plus the controller slot.
    pub(crate) fn new(groups: usize) -> Self {
        ChipClocks {
            busy: vec![0.0; groups + 1],
            agg: vec![0.0; groups + 1],
            touched: Vec::with_capacity(groups + 1),
            buf: Vec::new(),
            makespan: 0.0,
        }
    }

    /// Drains the touch log and books one piece of work on the groups it
    /// touched: the work starts once `floor` has passed and every touched
    /// group is free, then each touched group stays busy for its own summed
    /// duration (also added to `chip_busy_us`). Returns the start time.
    pub(crate) fn occupy(
        &mut self,
        touches: &mut TouchLog,
        chip_busy_us: &mut [f64],
        floor: f64,
    ) -> f64 {
        touches.take_into(&mut self.buf);
        let controller = self.busy.len() - 1;
        self.touched.clear();
        for &(g, d) in &self.buf {
            let g = if g == CONTROLLER { controller } else { g };
            if !self.touched.contains(&g) {
                self.touched.push(g);
            }
            self.agg[g] += d;
        }
        let start = self.touched.iter().fold(floor, |a, &g| a.max(self.busy[g]));
        for &g in &self.touched {
            self.busy[g] = start + self.agg[g];
            chip_busy_us[g] += self.agg[g];
            self.agg[g] = 0.0;
        }
        start
    }
}

/// Records which chip/plane groups each request occupies and for how long.
///
/// Recording is off by default; [`crate::Ssd::run_timed`] enables it only
/// for `PerChip` replays, so untimed runs and the `Single` model pay one
/// branch per flash command and nothing else.
#[derive(Debug, Default)]
pub(crate) struct TouchLog {
    enabled: bool,
    entries: Vec<(usize, f64)>,
}

impl TouchLog {
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.entries.clear();
    }

    /// Records `us` of occupancy on a group (or [`CONTROLLER`]).
    pub(crate) fn record(&mut self, group: usize, us: f64) {
        if self.enabled {
            self.entries.push((group, us));
        }
    }

    /// Moves the recorded entries into `buf` (cleared first), leaving the
    /// log empty; buffers swap so neither side reallocates.
    pub(crate) fn take_into(&mut self, buf: &mut Vec<(usize, f64)>) {
        buf.clear();
        std::mem::swap(buf, &mut self.entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TouchLog::default();
        log.record(0, 5.0);
        let mut buf = Vec::new();
        log.take_into(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn enabled_log_round_trips_entries() {
        let mut log = TouchLog::default();
        log.set_enabled(true);
        log.record(2, 5.0);
        log.record(CONTROLLER, 1.0);
        let mut buf = Vec::new();
        log.take_into(&mut buf);
        assert_eq!(buf, vec![(2, 5.0), (CONTROLLER, 1.0)]);
        log.record(1, 3.0);
        log.take_into(&mut buf);
        assert_eq!(buf, vec![(1, 3.0)], "take_into drains the log");
    }
}
