//! Garbage collection: whole-victim collection, the sliced job, the QoS
//! ladder and the emergency floor.

use super::Ssd;
use crate::active::Purpose;
use crate::config::QosClass;
use crate::gc::{select_victim, GcBudget, GcJob};
use crate::recovery::JournalEntry;
use crate::Result;
use flash_model::{BlockAddr, PageAddr};

impl Ssd {
    /// Runs garbage collection if free space is low; returns time spent,
    /// which the caller charges to the triggering command as its GC stall.
    pub(super) fn maybe_gc(&mut self, class: QosClass) -> Result<f64> {
        match self.config.gc_budget {
            GcBudget::Unbounded => {
                if self.manager.assemblable() >= self.config.gc_low_watermark {
                    return Ok(0.0);
                }
                let mut time = 0.0;
                while self.manager.assemblable() < self.config.gc_high_watermark {
                    match self.gc_once()? {
                        Some(t) => time += t,
                        None => break,
                    }
                }
                // The caller (the triggering write) folds this time into its
                // own latency, which is what updates busy_us — no double
                // counting here.
                Ok(time)
            }
            GcBudget::Sliced { slice_us } => {
                let mut time = 0.0;
                if self.gc_backlog() {
                    // Collection pressure maps onto the QoS ladder:
                    // background commands pay a slice on any backlog,
                    // standard ones only once free space dips under the low
                    // watermark, latency-critical ones never (beyond the
                    // emergency below).
                    let pays = match class {
                        QosClass::Background => true,
                        QosClass::Standard => {
                            self.manager.assemblable() < self.config.gc_low_watermark
                        }
                        QosClass::LatencyCritical => false,
                    };
                    // A per-tenant SLO allowance caps the budgeted slice:
                    // an exhausted window (`allowance == 0`) skips ladder
                    // payment entirely, a partial one shortens the slice.
                    // The default `INFINITY` allowance reduces both
                    // expressions to the plain ladder, bit for bit.
                    if pays && self.gc_allowance_us > 0.0 {
                        time += self.gc_slice(slice_us.min(self.gc_allowance_us))?;
                    }
                }
                time += self.reclaim_floor()?;
                Ok(time)
            }
        }
    }

    /// Whether sliced collection wants a slice: free space under the low
    /// watermark, or a parked victim still short of the high one.
    fn gc_backlog(&self) -> bool {
        let assemblable = self.manager.assemblable();
        assemblable < self.config.gc_low_watermark
            || (self.gc_job.is_some() && assemblable < self.config.gc_high_watermark)
    }

    /// Whether the device will run collection or overdue-patrol work on
    /// upcoming writes (sliced-GC backlog, or patrol starved past one full
    /// interval — the unbounded collector never reports pending). Frontends
    /// use this to drain latency-critical queues before granting
    /// lower-priority commands that would carry a slice.
    #[must_use]
    pub fn gc_slice_pending(&self) -> bool {
        (matches!(self.config.gc_budget, GcBudget::Sliced { .. }) && self.gc_backlog())
            || self.patrol_payment_pending()
    }

    /// Caps the budgeted collection work the *next* commands may be charged
    /// ([`GcBudget::Sliced`] only): each ladder slice runs for at most
    /// `min(slice_us, allowance)` µs, and an allowance of `0` skips ladder
    /// payment outright. Frontends enforcing per-tenant GC SLOs call this
    /// before each dispatch with the tenant's remaining debt budget for the
    /// current window. Negative and NaN values clamp to `0` (no slice);
    /// the default is `INFINITY` (uncapped — identical to pre-SLO
    /// behavior). The emergency floor (pool nearly empty) is exempt: media
    /// safety outranks an SLO.
    pub fn set_gc_allowance(&mut self, allowance_us: f64) {
        self.gc_allowance_us = if allowance_us.is_nan() { 0.0 } else { allowance_us.max(0.0) };
    }

    /// The emergency floor, unbudgeted and paid by every QoS class. Once
    /// the pool is nearly empty (GC staging itself may have taken a
    /// superblock), every class — latency-critical included — reclaims
    /// toward two, because relocation needs one assemblable superblock in
    /// reserve whenever the GC slot seals mid-victim, and the triggering
    /// write consumes another. No further: the budgeted ladder resumes from
    /// there instead of running a multi-victim burst to the high watermark.
    /// Returns the time spent (zero when two are already assemblable).
    pub(super) fn reclaim_floor(&mut self) -> Result<f64> {
        self.gc_slice_toward(f64::INFINITY, 2)
    }

    /// Runs up to `budget_us` of relocation work toward the high watermark,
    /// parking the in-progress victim when the budget runs out. Yields only
    /// between word-line steps, so a slice may overrun by one program.
    pub(super) fn gc_slice(&mut self, budget_us: f64) -> Result<f64> {
        self.gc_slice_toward(budget_us, self.config.gc_high_watermark)
    }

    /// [`Ssd::gc_slice`] with an explicit free-space target (the emergency
    /// floor reclaims toward 2, not the high watermark).
    fn gc_slice_toward(&mut self, budget_us: f64, target: usize) -> Result<f64> {
        let mut time = 0.0;
        let mut yielded = false;
        while self.manager.assemblable() < target {
            if time >= budget_us {
                yielded = self.gc_job.is_some();
                break;
            }
            if self.gc_job.is_none() && !self.gc_start_job() {
                break;
            }
            time += self.gc_job_step()?;
        }
        if time > 0.0 {
            self.stats.gc_slices += 1;
            self.stats.gc_slice_us.record(time);
        }
        if yielded {
            self.stats.gc_yield_count += 1;
        }
        Ok(time)
    }

    /// Index into `sealed` of the configured policy's victim; `None` when
    /// nothing is sealed. Scoring normalizes valid-page counts by the pages
    /// a superblock can hold for host data — all of them, minus the
    /// one-parity-page-per-super-word-line reserve when parity is on — so a
    /// full parity superblock still scores as full.
    fn pick_victim(&self) -> Option<usize> {
        let mut pages_per_sb = self.geometry_info().pages_per_superblock as usize;
        if self.config.parity.enabled() {
            pages_per_sb -= self.array.geometry().lwls_per_block() as usize;
        }
        select_victim(
            self.config.gc_policy,
            &self.sealed,
            &self.mapping,
            pages_per_sb,
            self.seal_seq,
        )
    }

    /// Relocates one valid victim page into the GC stream: the read (with
    /// its parity check) and the restage. Returns `(read, stage)` time so
    /// each caller keeps its own summation order.
    fn relocate(&mut self, lpn: u64, ppa: PageAddr, stripe: &[BlockAddr]) -> Result<(f64, f64)> {
        let (tag, t_read) = self.array.read_page(ppa)?;
        debug_assert_eq!(tag, lpn);
        let t_read = self.gc_read_with_parity_check(lpn, ppa, t_read, stripe)?;
        self.touch_block(ppa.wl.block, t_read);
        let t_stage = self.stage_write(lpn, Purpose::Gc)?;
        self.stats.gc_relocations += 1;
        Ok((t_read, t_stage))
    }

    /// Frees a drained victim whose copies are durable, then journals it.
    /// Journaled only now: had power died mid-relocation, the victim would
    /// still hold its data and must still be recovered under its old
    /// identity.
    fn free_victim(&mut self, sb_id: u64, members: &[BlockAddr]) {
        for &member in members {
            self.mapping.invalidate_block(member);
            self.manager.free(member, None);
        }
        self.spor.journal(JournalEntry::Freed { sb_id });
        self.stats.gc_runs += 1;
    }

    /// Selects a victim and parks it as the resumable job. The victim stays
    /// in the sealed list — and therefore in every checkpoint — until the
    /// final flush + free, so a crash mid-collection recovers it under its
    /// old identity. Returns false when nothing is sealed.
    fn gc_start_job(&mut self) -> bool {
        let Some(victim_idx) = self.pick_victim() else {
            return false;
        };
        let victim = &self.sealed[victim_idx];
        self.gc_job = Some(GcJob::new(victim.sb_id, victim.members.clone()));
        true
    }

    /// One word-line-granularity step of the parked job: relocate the next
    /// valid page, or — once every member has drained — flush the staged
    /// copies and free the victim. A step never splits a program, so it is
    /// the preemption quantum.
    fn gc_job_step(&mut self) -> Result<f64> {
        let mut job = self.gc_job.take().expect("caller started a job");
        loop {
            if let Some(&(lpn, ppa)) = job.pending.get(job.pending_cursor) {
                job.pending_cursor += 1;
                // The host may have overwritten or trimmed the page while
                // the job was parked; the mapping is the ground truth.
                if self.mapping.lookup(lpn) != Some(ppa) {
                    continue;
                }
                let (read, stage) = self.relocate(lpn, ppa, &job.members)?;
                job.staged.insert(lpn);
                self.gc_job = Some(job);
                return Ok(read + stage);
            }
            if let Some(&member) = job.members.get(job.member_cursor) {
                job.member_cursor += 1;
                // Staged LPNs keep mapping into the victim until their GC
                // copy programs; filtering them out of the re-collection is
                // what keeps resumption from relocating a page twice.
                job.pending.clear();
                job.pending_cursor = 0;
                let staged = &job.staged;
                job.pending.extend(
                    self.mapping.valid_in_block(member).filter(|(lpn, _)| !staged.contains(lpn)),
                );
                continue;
            }
            // All members drained: make the staged copies durable, then free
            // the victim and retire its identity.
            let t = self.flush_purpose(Purpose::Gc)?;
            let idx = self
                .sealed
                .iter()
                .position(|s| s.sb_id == job.sb_id)
                .expect("victim stays sealed until freed");
            self.sealed.swap_remove(idx);
            self.free_victim(job.sb_id, &job.members);
            return Ok(t);
        }
    }

    /// Collects one victim superblock; `None` when no sealed victim exists.
    pub(super) fn gc_once(&mut self) -> Result<Option<f64>> {
        let Some(victim_idx) = self.pick_victim() else {
            return Ok(None);
        };
        let victim = self.sealed.swap_remove(victim_idx);
        let mut time = 0.0;
        // The valid-page iterator borrows the mapping, which stage_write
        // mutates — collect into the reusable scratch buffer first.
        let mut scratch = std::mem::take(&mut self.scratch);
        for &member in &victim.members {
            scratch.clear();
            scratch.extend(self.mapping.valid_in_block(member));
            for &(lpn, ppa) in &scratch {
                let (read, stage) = self.relocate(lpn, ppa, &victim.members)?;
                time += read;
                time += stage;
            }
        }
        scratch.clear();
        self.scratch = scratch;
        // Everything staged must be durable before the old copies vanish.
        time += self.flush_purpose(Purpose::Gc)?;
        self.free_victim(victim.sb_id, &victim.members);
        Ok(Some(time))
    }
}
