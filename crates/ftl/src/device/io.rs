//! Host I/O and the write path: staging, flush and program-failure
//! handling.

use super::Ssd;
use crate::active::{ActiveSuperblock, FailedMember, Purpose, FILLER, PURPOSES};
use crate::config::QosClass;
use crate::error::FtlError;
use crate::gc::SealedSuperblock;
use crate::manager::speed_class_for;
use crate::recovery::JournalEntry;
use crate::Result;
use flash_model::{BlockAddr, BlockSummaryRecord, MpOutcome, PageAddr, SealRecord};
use pvcheck::SpeedClass;

impl Ssd {
    /// Writes one logical page, returning the host-visible latency in µs
    /// (transfer + any triggered program/erase/GC work). Equivalent to
    /// [`Ssd::write_with_class`] with [`QosClass::Standard`].
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] or [`FtlError::OutOfSpace`].
    pub fn write(&mut self, lpn: u64) -> Result<f64> {
        self.write_with_class(lpn, QosClass::Standard)
    }

    /// Writes one logical page on behalf of a tenant of the given QoS
    /// class; the class picks the open superblock via the placement hook
    /// (see [`QosClass`]). `Standard` is byte-identical to [`Ssd::write`].
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] or [`FtlError::OutOfSpace`].
    pub fn write_with_class(&mut self, lpn: u64, class: QosClass) -> Result<f64> {
        let latency = self.write_service(lpn, class)?;
        self.stats.write_latency.record(latency);
        Ok(latency)
    }

    /// The write path without its histogram sample: a timed replay records
    /// the queue-inclusive latency instead.
    pub(super) fn write_service(&mut self, lpn: u64, class: QosClass) -> Result<f64> {
        self.ensure_powered()?;
        self.check_lpn(lpn)?;
        self.touch_controller(self.config.transfer_us);
        let mut latency = self.config.transfer_us;
        let mut stall = self.maybe_gc(class)?;
        // Overdue patrol work is paid down the same QoS ladder and folded
        // into the same stall, so per-tenant GC-SLO frontends charge it to
        // the tenant's debt ledger without any extra plumbing.
        stall += self.maybe_patrol(class)?;
        if stall > 0.0 {
            self.stats.gc_stall_us += stall;
            self.stats.gc_stall.record(stall);
        }
        latency += stall;
        latency += self.stage_write(lpn, Purpose::Host(class))?;
        self.stats.host_writes += 1;
        self.stats.host_writes_by_class[class.index()] += 1;
        self.stats.busy_us += latency;
        self.maybe_checkpoint()?;
        Ok(latency)
    }

    /// Reads one logical page: `Ok(None)` if it was never written, else the
    /// host-visible latency in µs.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] for out-of-range pages.
    pub fn read(&mut self, lpn: u64) -> Result<Option<f64>> {
        let latency = self.read_service(lpn)?;
        if let Some(us) = latency {
            self.stats.read_latency.record(us);
        }
        Ok(latency)
    }

    /// The read path without its histogram sample (see
    /// [`Ssd::write_service`]).
    pub(super) fn read_service(&mut self, lpn: u64) -> Result<Option<f64>> {
        self.ensure_powered()?;
        self.check_lpn(lpn)?;
        // Serve from the staging buffers first (write-back cache).
        let staged = self.actives.any_staged(lpn);
        let latency = if staged {
            self.touch_controller(self.config.transfer_us);
            self.config.transfer_us
        } else {
            match self.mapping.lookup(lpn) {
                None => return Ok(None),
                Some(ppa) => {
                    let (tag, t) = self.array.read_page(ppa)?;
                    debug_assert_eq!(tag, lpn, "mapping points at the right payload");
                    self.touch_controller(self.config.transfer_us);
                    if self.config.fault.enabled() || self.config.integrity.track {
                        // Consult the ECC model at the page's true data age;
                        // pages past the retry ladder are refreshed
                        // (rewritten elsewhere) before they rot into data
                        // loss. Without integrity tracking the age is 0 and
                        // the disturb count is 0, reproducing the fault-only
                        // path bit for bit.
                        let bits = self.array.expected_error_bits(ppa, self.data_age_hours(lpn));
                        let flash_us = self.config.retry.read_latency_us(t, bits);
                        self.touch_block(ppa.wl.block, flash_us);
                        if self.config.retry.is_uncorrectable(bits) {
                            // The relocation is background work: the host
                            // sees only the sensing + retry + transfer time,
                            // and the rewrite lands in `refresh_us` (still
                            // advancing `busy_us`).
                            self.stats.uncorrectable_reads += 1;
                            if self.config.parity.enabled() {
                                self.rebuild_page(lpn, ppa, None)?;
                            }
                            // A read-heavy phase stages refreshes with no
                            // host write in sight to trigger collection —
                            // reclaim the emergency floor so reactive
                            // refreshes can't drain the free pool into
                            // OutOfSpace.
                            let slice = self.reclaim_floor()?;
                            let restage = self.stage_write(lpn, Purpose::Gc)?;
                            if self.config.parity.enabled() && slice > 0.0 {
                                // Rebuild-triggered emergency collection is
                                // paid like a foreground GC stall so per-
                                // tenant GC-SLO frontends charge it to the
                                // tenant's debt ledger.
                                self.stats.gc_stall_us += slice;
                                self.stats.gc_stall.record(slice);
                                self.stats.busy_us += slice;
                                self.stats.refresh_us += restage;
                                self.stats.busy_us += restage;
                            } else {
                                let refresh = slice + restage;
                                self.stats.refresh_us += refresh;
                                self.stats.busy_us += refresh;
                            }
                            self.stats.refresh_relocations += 1;
                        }
                        flash_us + self.config.transfer_us
                    } else {
                        self.touch_block(ppa.wl.block, t);
                        t + self.config.transfer_us
                    }
                }
            }
        };
        self.stats.host_reads += 1;
        self.stats.busy_us += latency;
        // Refresh relocations on the fault path may have programmed.
        self.maybe_checkpoint()?;
        Ok(Some(latency))
    }

    /// Invalidates one logical page.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] for out-of-range pages.
    pub fn trim(&mut self, lpn: u64) -> Result<()> {
        self.ensure_powered()?;
        self.check_lpn(lpn)?;
        self.mapping.unmap(lpn);
        self.actives.discard_staged(lpn);
        if self.spor.enabled {
            // Tombstone: any on-flash copy with a lower sequence number is
            // dead to recovery, even if its superblock is never scanned
            // again before the next checkpoint.
            let seq = self.spor.next_seq();
            self.spor.trim_seqs.insert(lpn, seq);
            self.spor.journal(JournalEntry::Trimmed { lpn, seq });
        }
        self.stats.host_trims += 1;
        Ok(())
    }

    fn class_for(&self, purpose: Purpose) -> SpeedClass {
        speed_class_for(self.config.placement, purpose)
    }

    fn slot(&mut self, purpose: Purpose) -> &mut Option<ActiveSuperblock> {
        self.actives.slot(self.config.placement, purpose)
    }

    /// Ensures an open superblock exists for `purpose`; returns time spent
    /// (allocation erase).
    ///
    /// A member whose erase fails is retired and replaced from its pool
    /// (the superblock is re-assembled); when the pool has nothing left the
    /// superblock starts degraded with fewer members.
    fn ensure_active(&mut self, purpose: Purpose) -> Result<f64> {
        if self.slot(purpose).is_some() {
            return Ok(0.0);
        }
        let class = self.class_for(purpose);
        let members = self.manager.allocate(class).ok_or(FtlError::OutOfSpace)?;
        let mut ok_members = Vec::with_capacity(members.len());
        let mut member_us = Vec::with_capacity(members.len());
        let mut degraded = false;
        for m in members {
            let mut candidate = Some(m);
            loop {
                let Some(addr) = candidate else {
                    degraded = true;
                    break;
                };
                if self.spor.op_fires() {
                    // Power died before this erase: the claimed blocks were
                    // never journaled as a superblock, so recovery simply
                    // finds them free again.
                    return Err(FtlError::PowerLoss);
                }
                match self.array.erase_block(addr) {
                    Ok(t) => {
                        ok_members.push(addr);
                        member_us.push(t);
                        break;
                    }
                    Err(e) if e.is_media_failure() => {
                        self.retire_block(addr);
                        candidate = self.manager.take_from_pool(self.manager.pool_of(addr));
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        if ok_members.is_empty() {
            return Err(FtlError::OutOfSpace);
        }
        if degraded {
            self.stats.degraded_superblocks += 1;
        }
        for (&m, &t) in ok_members.iter().zip(&member_us) {
            self.touch_block(m, t);
        }
        let outcome = MpOutcome::from_members(member_us);
        self.stats.superblock_erases += 1;
        self.stats.extra_erase_us += outcome.extra_us;
        match class {
            SpeedClass::Fast => self.stats.superblocks_assembled.0 += 1,
            SpeedClass::Slow => self.stats.superblocks_assembled.1 += 1,
        }
        let sb_id = self.sb_seq;
        self.sb_seq += 1;
        self.spor.journal(JournalEntry::Opened { sb_id, members: ok_members.clone() });
        let geo = self.array.geometry();
        let active = ActiveSuperblock::new(
            ok_members,
            sb_id,
            geo.strings(),
            geo.pwl_layers(),
            geo.pages_per_lwl(),
            self.config.parity.enabled(),
        );
        *self.slot(purpose) = Some(active);
        Ok(outcome.total_us)
    }

    /// Moves a block to the bad-block table.
    fn retire_block(&mut self, addr: BlockAddr) {
        self.manager.retire(addr);
        self.spor.journal(JournalEntry::Retired { addr });
        self.stats.retired_blocks += 1;
    }

    /// Stages one page and programs/seals as needed; returns time spent.
    pub(super) fn stage_write(&mut self, lpn: u64, purpose: Purpose) -> Result<f64> {
        let mut time = self.ensure_active(purpose)?;
        let mut active = self.slot(purpose).take().expect("ensure_active filled the slot");
        let mut failures = Vec::new();
        if active.stage(lpn) {
            let (t, failed) = self.program_and_book(&mut active)?;
            time += t;
            failures = failed;
        }
        // Restore the slot before recovery: the remap writes recurse into
        // stage_write and must find the (possibly degraded) superblock open.
        self.retire_or_restore(active, purpose);
        if !failures.is_empty() {
            time += self.handle_program_failures(failures, purpose)?;
        }
        Ok(time)
    }

    /// Programs the staged super word-line of `active` and books it: member
    /// occupancy, the mapping, program counters and the PV extra latency.
    /// Returns the program time and the members whose program failed.
    fn program_and_book(
        &mut self,
        active: &mut ActiveSuperblock,
    ) -> Result<(f64, Vec<FailedMember>)> {
        let result = active.program_superwl(&mut self.array, &mut self.spor)?;
        for (&b, &t) in result.member_blocks.iter().zip(&result.outcome.member_us) {
            self.touch_block(b, t);
        }
        self.apply_assignments(&result.assignments);
        self.stats.superwl_programs += 1;
        self.spor.superwls_since_ckpt += 1;
        self.stats.extra_program_us += result.outcome.extra_us;
        Ok((result.outcome.total_us, result.failures))
    }

    /// Pads and programs any staged pages of `purpose`'s open superblock so
    /// everything buffered becomes durable; returns time spent.
    pub(super) fn flush_purpose(&mut self, purpose: Purpose) -> Result<f64> {
        let Some(mut active) = self.slot(purpose).take() else {
            return Ok(0.0);
        };
        let mut time = 0.0;
        let mut failures = Vec::new();
        if active.has_staged_pages() {
            active.pad();
            let (t, failed) = self.program_and_book(&mut active)?;
            time += t;
            failures = failed;
        }
        self.retire_or_restore(active, purpose);
        if !failures.is_empty() {
            time += self.handle_program_failures(failures, purpose)?;
            // The recovery writes may leave fresh pages staged; flush them
            // too so the durability contract of a flush holds.
            time += self.flush_purpose(purpose)?;
        }
        Ok(time)
    }

    /// Recovers from program-status failures: retires each failed block,
    /// rewrites the payload the failed program carried, and relocates any
    /// live pages stranded on the block's earlier word-lines (still readable
    /// in phase `Failed`). Returns time spent.
    fn handle_program_failures(
        &mut self,
        failures: Vec<FailedMember>,
        purpose: Purpose,
    ) -> Result<f64> {
        let mut time = 0.0;
        // The valid-page iterator borrows the mapping, which stage_write
        // mutates — collect into the reusable scratch buffer first.
        let mut scratch = std::mem::take(&mut self.scratch);
        for f in failures {
            self.retire_block(f.addr);
            self.stats.degraded_superblocks += 1;
            for lpn in f.payload {
                if lpn != FILLER {
                    time += self.stage_write(lpn, purpose)?;
                    self.stats.remapped_writes += 1;
                }
            }
            // Stranded live data: copy out before the block is abandoned.
            // Mapping::map self-cleans the old location when the new copy
            // programs, so no explicit invalidation is needed.
            scratch.clear();
            scratch.extend(self.mapping.valid_in_block(f.addr));
            for &(lpn, ppa) in &scratch {
                let (tag, t_read) = self.array.read_page(ppa)?;
                debug_assert_eq!(tag, lpn);
                self.touch_block(ppa.wl.block, t_read);
                time += t_read;
                time += self.stage_write(lpn, purpose)?;
                self.stats.remapped_writes += 1;
            }
        }
        scratch.clear();
        self.scratch = scratch;
        Ok(time)
    }

    /// Makes every buffered host/GC page durable.
    ///
    /// # Errors
    ///
    /// Propagates flash errors (internal invariant bugs).
    pub fn flush(&mut self) -> Result<f64> {
        self.ensure_powered()?;
        let mut time = 0.0;
        for purpose in PURPOSES {
            time += self.flush_purpose(purpose)?;
        }
        self.maybe_checkpoint()?;
        Ok(time)
    }

    fn apply_assignments(&mut self, assignments: &[(u64, PageAddr)]) {
        let clock = self.device_clock_us();
        for &(lpn, ppa) in assignments {
            debug_assert_ne!(lpn, FILLER);
            self.mapping.map(lpn, ppa);
            if let Some(birth) = &mut self.birth_us {
                // A program resets the physical retention clock of the
                // logical page — host write, GC relocation and patrol
                // refresh alike.
                birth[usize::try_from(lpn).expect("lpn fits usize")] = clock;
            }
            if let Some(table) = &mut self.ckpt_seqs {
                // Mirror the page's OOB write sequence so the next
                // checkpoint reads it from RAM instead of the spare area.
                // The table exists only when SPOR is on, so the OOB was
                // just programmed alongside the payload.
                let seq =
                    self.array.read_oob(ppa).expect("programmed page carries OOB metadata").seq;
                table[usize::try_from(lpn).expect("lpn fits usize")] = seq;
            }
        }
    }

    fn retire_or_restore(&mut self, active: ActiveSuperblock, purpose: Purpose) {
        if active.members.is_empty() {
            // Every member failed: there is nothing to seal or write into.
            // The staged payload travelled out via the failure report, so
            // dropping the shell loses nothing; the next write re-assembles.
            return;
        }
        if active.is_full() {
            let members = active.members.clone();
            let sb_id = active.sb_id();
            let summaries = active.finish();
            if self.spor.enabled {
                // Persist the gathered QSTR-MED stats to the capacitor-
                // backed region: after a crash they restore the learned
                // summaries without re-characterizing any block.
                let record = SealRecord {
                    sb_id,
                    members: members.clone(),
                    summaries: summaries
                        .iter()
                        .map(|s| BlockSummaryRecord {
                            addr: s.addr,
                            pgm_sum_us: s.pgm_sum_us,
                            eigen_bits: (0..s.eigen.len()).map(|i| s.eigen.get(i)).collect(),
                        })
                        .collect(),
                };
                self.array.persist_seal_record(record);
            }
            for summary in summaries {
                self.manager.learn(summary);
            }
            self.sealed.push(SealedSuperblock {
                sb_id,
                members,
                sealed_at: self.seal_seq,
                class: Some(self.class_for(purpose)),
            });
            self.seal_seq += 1;
        } else {
            *self.slot(purpose) = Some(active);
        }
    }
}
