//! Patrol scrubbing: the due/payment schedule, the scan order and the
//! word-line step, with parity-stripe verification riding the scan.

use super::Ssd;
use crate::active::Purpose;
use crate::config::{PatrolConfig, PatrolOrder, QosClass};
use crate::gc::PatrolJob;
use crate::Result;
use flash_model::{FlashError, LwlId, PageAddr, PageType};
use pvcheck::SpeedClass;

impl Ssd {
    /// Whether patrol wants a slice right now: a pass is mid-flight, or the
    /// next one has come due on the device clock.
    pub(super) fn patrol_due(&self) -> bool {
        matches!(self.config.integrity.patrol, PatrolConfig::On { .. })
            && (self.patrol_job.is_some() || self.device_clock_us() >= self.patrol_due_at)
    }

    /// Whether patrol is starved badly enough (a full interval past due)
    /// that foreground commands start paying for it down the QoS ladder.
    pub(super) fn patrol_payment_pending(&self) -> bool {
        match self.config.integrity.patrol {
            PatrolConfig::On { interval_us, .. } => {
                self.device_clock_us() >= self.patrol_due_at + interval_us
            }
            PatrolConfig::Off => false,
        }
    }

    /// Runs overdue patrol work on a foreground command's time, down the
    /// same QoS ladder as sliced GC: background commands pay once patrol is
    /// one interval past due, standard ones at two intervals, and
    /// latency-critical ones never. The per-tenant GC allowance caps the
    /// slice exactly as it caps GC slices; the caller folds the returned
    /// time into the command's GC stall so SLO ledgers see it.
    pub(super) fn maybe_patrol(&mut self, class: QosClass) -> Result<f64> {
        let PatrolConfig::On { interval_us, slice_us, .. } = self.config.integrity.patrol else {
            return Ok(0.0);
        };
        let pays = match class {
            QosClass::Background => self.patrol_payment_pending(),
            QosClass::Standard => self.device_clock_us() >= self.patrol_due_at + 2.0 * interval_us,
            QosClass::LatencyCritical => false,
        };
        if pays && self.gc_allowance_us > 0.0 {
            self.patrol_slice(slice_us.min(self.gc_allowance_us))
        } else {
            Ok(0.0)
        }
    }

    /// Runs up to `budget_us` of patrol scanning — further capped by the
    /// configured `slice_us`, which bounds patrol work per opportunity no
    /// matter how long the idle gap is (scrubbing is a trickle by design:
    /// it must never monopolize idle time other background work, or a
    /// power-conscious host, may want). Parks the in-progress pass when the
    /// budget runs out. Yields only between super word-line steps (the same
    /// quantum as a GC slice), so a slice may overrun by one word-line
    /// scan.
    pub(super) fn patrol_slice(&mut self, budget_us: f64) -> Result<f64> {
        let budget = match self.config.integrity.patrol {
            PatrolConfig::On { slice_us, .. } => budget_us.min(slice_us),
            PatrolConfig::Off => return Ok(0.0),
        };
        let mut time = 0.0;
        while self.patrol_due() && time < budget {
            time += self.patrol_step()?;
        }
        Ok(time)
    }

    /// Sealed-superblock scan order for a new patrol pass.
    fn patrol_order(&self) -> Vec<u64> {
        match self.config.integrity.patrol {
            PatrolConfig::On { order: PatrolOrder::SlowPoolFirst, .. } => {
                // Slow pool first (GC/background data — the cold tail whose
                // retention ages worst on the worst media), unknown-class
                // superblocks next, fast ones last; oldest sealed first
                // within each group.
                let mut keyed: Vec<(u8, u64, u64)> = self
                    .sealed
                    .iter()
                    .map(|s| {
                        let rank = match s.class {
                            Some(SpeedClass::Slow) => 0u8,
                            None => 1,
                            Some(SpeedClass::Fast) => 2,
                        };
                        (rank, s.sealed_at, s.sb_id)
                    })
                    .collect();
                keyed.sort_unstable();
                keyed.into_iter().map(|(_, _, id)| id).collect()
            }
            _ => self.sealed.iter().map(|s| s.sb_id).collect(),
        }
    }

    /// One word-line-granularity step of the patrol pass: scans every live
    /// page of the next super word-line, refreshing those whose projected
    /// error bits crossed the refresh threshold. Completing the pass
    /// flushes the staged refreshes.
    ///
    /// The interval timer re-arms when a pass *starts*, and a pass still
    /// in flight when the next interval comes due is abandoned and
    /// restarted from the front of a freshly sorted order. `interval_us`
    /// is therefore a cadence, not a gap — and when idle bandwidth cannot
    /// cover the whole device per interval, the scan order decides which
    /// pages the scarce budget protects: the tail of the order starves.
    /// Abandonment is safe — staged refreshes stay staged (they flush as
    /// word lines fill or at the next completed pass) and a scanned-twice
    /// page merely costs a redundant read.
    fn patrol_step(&mut self) -> Result<f64> {
        let PatrolConfig::On { interval_us, refresh_fraction, .. } = self.config.integrity.patrol
        else {
            return Ok(0.0);
        };
        let mut job = match self.patrol_job.take() {
            Some(job) if self.device_clock_us() < self.patrol_due_at => job,
            _ => {
                self.patrol_due_at = self.device_clock_us() + interval_us;
                PatrolJob::new(self.patrol_order())
            }
        };
        let refresh_at = refresh_fraction * self.config.retry.uncorrectable_limit();
        loop {
            let Some(&sb_id) = job.order.get(job.sb_cursor) else {
                // Pass complete: make the staged refreshes durable so the
                // rotting copies actually stop being read.
                let t = self.flush_purpose(Purpose::Gc)?;
                self.stats.patrol_passes += 1;
                return Ok(t);
            };
            // The superblock may have been collected while the pass was
            // parked; its id then no longer resolves and the cursor skips.
            let Some(sb) = self.sealed.iter().find(|s| s.sb_id == sb_id) else {
                job.sb_cursor += 1;
                job.lwl_cursor = 0;
                continue;
            };
            let geo = self.array.geometry();
            if job.lwl_cursor >= geo.lwls_per_block() {
                job.sb_cursor += 1;
                job.lwl_cursor = 0;
                continue;
            }
            let lwl = LwlId(job.lwl_cursor);
            job.lwl_cursor += 1;
            let members = sb.members.clone();
            let cell = geo.cell();
            let pages_per_lwl = geo.pages_per_lwl();
            let mut time = 0.0;
            // Parity verification rides the existing scan for free: the OOB
            // reads below already visit every page of the stripe, so the
            // stripe XOR accumulates as a side effect and only the parity
            // payload itself costs one extra read. No second cursor.
            let parity_on = self.config.parity.enabled();
            let mut lwl_xor = 0u64;
            let mut parity_page: Option<PageAddr> = None;
            let mut live_pages = 0u64;
            let mut unrefreshed_live: Vec<u64> = Vec::new();
            for member in members {
                for k in 0..pages_per_lwl {
                    let pt = PageType::from_index(cell, k).expect("k < pages_per_lwl");
                    let page = member.wl(lwl).page(pt);
                    let oob = match self.array.read_oob(page) {
                        Ok(oob) => oob,
                        Err(FlashError::ReadUnwritten { .. } | FlashError::TornWordLine { .. }) => {
                            continue;
                        }
                        Err(e) => return Err(e.into()),
                    };
                    if parity_on {
                        if oob.is_parity() {
                            parity_page = Some(page);
                            continue;
                        }
                        // Every data/filler tag — live or stale — is part of
                        // the stripe XOR (payload tag == OOB lpn for both).
                        lwl_xor ^= oob.lpn;
                    }
                    if oob.is_filler() || self.mapping.lookup(oob.lpn) != Some(page) {
                        // Filler or a stale copy: nothing to protect.
                        continue;
                    }
                    let (tag, t_read) = self.array.read_page(page)?;
                    debug_assert_eq!(tag, oob.lpn);
                    self.touch_block(page.wl.block, t_read);
                    time += t_read;
                    self.stats.patrol_scanned_pages += 1;
                    live_pages += 1;
                    let bits = self.array.expected_error_bits(page, self.data_age_hours(oob.lpn));
                    if bits >= refresh_at {
                        // Same emergency floor as the read path: a
                        // refresh-heavy pass through aged media must not
                        // outrun collection and drain the pool.
                        time += self.reclaim_floor()?;
                        time += self.stage_write(oob.lpn, Purpose::Gc)?;
                        self.stats.patrol_refreshes += 1;
                    } else if parity_on {
                        unrefreshed_live.push(oob.lpn);
                    }
                }
            }
            if parity_on && live_pages > 0 {
                let mut mismatch = false;
                match parity_page {
                    Some(page) => {
                        let (ptag, t_read) = self.array.read_page(page)?;
                        self.touch_block(page.wl.block, t_read);
                        time += t_read;
                        if ptag == lwl_xor {
                            self.stats.parity_verified += 1;
                        } else {
                            mismatch = true;
                        }
                    }
                    // Live data with no parity page (the parity-carrying
                    // member was dropped): the stripe is unprotected.
                    None => mismatch = true,
                }
                if mismatch {
                    // The stripe can no longer rebuild a lost page: feed its
                    // live pages through the same reactive-refresh path an
                    // uncorrectable read takes, so fresh protected copies
                    // replace the exposed ones.
                    self.stats.parity_mismatch += 1;
                    for lpn in unrefreshed_live {
                        time += self.reclaim_floor()?;
                        time += self.stage_write(lpn, Purpose::Gc)?;
                        self.stats.refresh_relocations += 1;
                    }
                }
            }
            self.patrol_job = Some(job);
            return Ok(time);
        }
    }
}
