//! Sudden-power-off recovery: checkpoints and [`Ssd::recover`].

use super::{learn_snapshot, Ssd};
use crate::error::FtlError;
use crate::gc::SealedSuperblock;
use crate::manager::BlockManager;
use crate::recovery::{Checkpoint, JournalEntry, RecoveryReport};
use crate::Result;
use flash_model::{BlockAddr, FlashError, LwlId, PageAddr, PageType};
use pvcheck::{BlockSummary, EigenSequence};
use std::collections::{HashMap, HashSet};

impl Ssd {
    /// Takes a checkpoint when the configured interval of super word-line
    /// programs has elapsed. Called at the end of the public operations, so
    /// every open superblock is parked in its slot.
    pub(super) fn maybe_checkpoint(&mut self) -> Result<()> {
        if !self.spor.enabled || self.spor.crashed {
            return Ok(());
        }
        let interval = self.config.spor.checkpoint_interval;
        if interval == 0 || self.spor.superwls_since_ckpt < interval {
            return Ok(());
        }
        self.take_checkpoint()
    }

    /// Snapshots the FTL RAM state into the capacitor-backed checkpoint and
    /// clears the journal. Costs zero simulated time and zero RNG draws, so
    /// checkpointing never perturbs latency results.
    fn take_checkpoint(&mut self) -> Result<()> {
        let seqs = self.ckpt_seqs.as_ref().expect("checkpoints run only with SPOR enabled");
        let mut entries = Vec::new();
        for lpn in 0..self.logical_pages {
            if let Some(ppa) = self.mapping.lookup(lpn) {
                let seq = seqs[usize::try_from(lpn).expect("lpn fits usize")];
                entries.push((lpn, seq, Some(ppa)));
            } else if let Some(&seq) = self.spor.trim_seqs.get(&lpn) {
                entries.push((lpn, seq, None));
            }
        }
        let sealed =
            self.sealed.iter().map(|s| (s.sb_id, s.members.clone(), s.sealed_at)).collect();
        let actives = self.actives.iter().map(|a| (a.sb_id(), a.members.clone())).collect();
        let mut retired = self.spor.checkpoint.retired.clone();
        for e in &self.spor.journal {
            if let JournalEntry::Retired { addr } = e {
                retired.push(*addr);
            }
        }
        // Persist the seq → write-time table for the live entries so
        // recovery can rebuild data ages from its OOB scan. Bounded by the
        // live-entry count: stale sequences fall out at every checkpoint.
        let mut write_times = HashMap::new();
        if let Some(birth) = &self.birth_us {
            for &(lpn, seq, loc) in &entries {
                if loc.is_some() {
                    write_times.insert(seq, birth[usize::try_from(lpn).expect("lpn fits usize")]);
                }
            }
        }
        self.spor.checkpoint = Checkpoint {
            entries,
            sealed,
            actives,
            write_seq: self.spor.write_seq,
            sb_seq: self.sb_seq,
            seal_seq: self.seal_seq,
            retired,
            write_times,
        };
        self.spor.journal.clear();
        self.spor.superwls_since_ckpt = 0;
        Ok(())
    }

    /// Rebuilds all RAM state after a sudden power loss: replays the
    /// journal over the last checkpoint, scans the OOB metadata of every
    /// superblock dirtied since that checkpoint (highest write sequence
    /// wins; pages of a torn super word-line are discarded), restores the
    /// gathered QSTR-MED summaries from the persisted seal records.
    ///
    /// The durability contract: a write is acknowledged durable only once
    /// its super word-line program completes, so the recovered mapping is
    /// exactly the RAM mapping at the instant of the crash — staged pages
    /// and torn word-lines (never acknowledged) are not recovered, and no
    /// phantom mappings appear.
    ///
    /// Also works on a healthy device (simulating a clean power cycle that
    /// lost RAM but flushed nothing).
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] when SPOR is disabled;
    /// propagates flash errors (internal invariant bugs).
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        if !self.spor.enabled {
            return Err(FtlError::InvalidConfig {
                reason: "recovery requires spor.enabled".to_string(),
            });
        }
        let geo = self.array.geometry().clone();
        // RAM died with the power: open superblocks, their staging buffers
        // and gatherers are gone. A parked GC job loses only its cursors —
        // the victim was never freed, so it comes back sealed and
        // re-selectable with its remaining valid pages intact. Likewise a
        // parked patrol pass: its cursors drop and the pass restarts, but
        // no mapping state ever depended on them.
        self.actives.clear();
        self.gc_job = None;
        self.patrol_job = None;
        // 1. Replay the journal over the checkpoint's block sets.
        let mut retired = self.spor.checkpoint.retired.clone();
        let mut freed: HashSet<u64> = HashSet::new();
        let mut dirty: Vec<(u64, Vec<BlockAddr>)> = self.spor.checkpoint.actives.clone();
        self.sb_seq = self.spor.checkpoint.sb_seq;
        for e in &self.spor.journal {
            match e {
                JournalEntry::Opened { sb_id, members } => {
                    self.sb_seq = self.sb_seq.max(sb_id + 1);
                    dirty.push((*sb_id, members.clone()));
                }
                JournalEntry::Freed { sb_id } => {
                    freed.insert(*sb_id);
                }
                JournalEntry::Retired { addr } => retired.push(*addr),
                JournalEntry::Trimmed { .. } => {}
            }
        }
        dirty.retain(|(id, _)| !freed.contains(id));
        let mut sealed: Vec<SealedSuperblock> = self
            .spor
            .checkpoint
            .sealed
            .iter()
            .filter(|(id, _, _)| !freed.contains(id))
            .map(|(id, members, at)| SealedSuperblock {
                sb_id: *id,
                members: members.clone(),
                sealed_at: *at,
                // The checkpoint does not persist the class; PV-aware
                // patrol ordering treats recovered superblocks as unknown.
                class: None,
            })
            .collect();
        // 2. Latest-wins merge, seeded with the checkpoint entries and the
        // journaled trim tombstones.
        let mut best: HashMap<u64, (u64, Option<PageAddr>)> =
            self.spor.checkpoint.entries.iter().map(|&(lpn, seq, loc)| (lpn, (seq, loc))).collect();
        let mut max_seq = self.spor.checkpoint.write_seq.saturating_sub(1);
        for e in &self.spor.journal {
            if let JournalEntry::Trimmed { lpn, seq } = *e {
                max_seq = max_seq.max(seq);
                let slot = best.entry(lpn).or_insert((0, None));
                if seq > slot.0 {
                    *slot = (seq, None);
                }
            }
        }
        // 3. OOB scan of the dirty superblocks — O(written since the last
        // checkpoint), not O(device).
        let mut report = RecoveryReport {
            scanned_pages: 0,
            recovered_mappings: 0,
            torn_writes_discarded: 0,
            scan_us: 0.0,
        };
        let cell = geo.cell();
        for (sb_id, members) in &dirty {
            // The super word-line that was mid-program at power loss: the
            // interrupted member reports it torn; members whose individual
            // program completed hold readable pages on that word-line which
            // must be discarded — their host writes were never acknowledged.
            let mut torn_wl: Option<LwlId> = None;
            for &m in members {
                if let Some(t) = self.array.torn_lwl(m)? {
                    torn_wl = Some(t);
                }
            }
            for &member in members {
                'lwls: for lwl in 0..geo.lwls_per_block() {
                    let lwl = LwlId(lwl);
                    for k in 0..geo.pages_per_lwl() {
                        let pt = PageType::from_index(cell, k).expect("k < pages_per_lwl");
                        let page = member.wl(lwl).page(pt);
                        let oob = match self.array.read_oob(page) {
                            Ok(oob) => oob,
                            Err(
                                FlashError::ReadUnwritten { .. } | FlashError::TornWordLine { .. },
                            ) => break 'lwls,
                            Err(e) => return Err(e.into()),
                        };
                        let (_, t_read) = self.array.read_page(page)?;
                        report.scanned_pages += 1;
                        report.scan_us += t_read;
                        if !oob.is_mapped() {
                            // Filler padding and parity pages never enter the
                            // L2P table — a parity payload is an XOR tag that
                            // can collide with any real LPN.
                            continue;
                        }
                        max_seq = max_seq.max(oob.seq);
                        if torn_wl == Some(lwl) {
                            report.torn_writes_discarded += 1;
                            continue;
                        }
                        debug_assert_eq!(oob.sb_id, *sb_id, "OOB names its superblock");
                        let slot = best.entry(oob.lpn).or_insert((0, None));
                        if oob.seq > slot.0 {
                            *slot = (oob.seq, Some(page));
                        }
                    }
                }
            }
        }
        // 4. Rebuild the mapping from the merge winners (sorted by LPN so
        // the rebuild is deterministic end to end).
        for lpn in 0..self.logical_pages {
            self.mapping.unmap(lpn);
        }
        self.spor.trim_seqs.clear();
        let mut winners: Vec<(u64, (u64, Option<PageAddr>))> = best.into_iter().collect();
        winners.sort_unstable_by_key(|&(lpn, _)| lpn);
        for (lpn, (seq, loc)) in winners {
            match loc {
                Some(ppa) => {
                    self.mapping.map(lpn, ppa);
                    if let Some(birth) = &mut self.birth_us {
                        // Rebuild the page's age from the checkpointed
                        // seq → time table. A sequence written after that
                        // checkpoint is missing and conservatively reports
                        // age since power-on — patrol re-examines it early
                        // rather than never.
                        birth[usize::try_from(lpn).expect("lpn fits usize")] =
                            self.spor.checkpoint.write_times.get(&seq).copied().unwrap_or(0.0);
                    }
                    report.recovered_mappings += 1;
                }
                None if seq > 0 => {
                    self.spor.trim_seqs.insert(lpn, seq);
                }
                None => {}
            }
        }
        // 5. Close every dirty superblock into the sealed list: partially
        // written ones take no further programs (their write pointers are
        // mid-block and the staging context is lost), so GC reclaims them.
        self.seal_seq = self.spor.checkpoint.seal_seq;
        for (sb_id, members) in &dirty {
            sealed.push(SealedSuperblock {
                sb_id: *sb_id,
                members: members.clone(),
                sealed_at: self.seal_seq,
                class: None,
            });
            self.seal_seq += 1;
        }
        self.sealed = sealed;
        // 6. Rebuild the block manager: bad blocks out, live members
        // claimed, then every persisted seal record restores the gathered
        // summaries — QSTR-MED resumes without re-characterizing anything.
        let mut manager = BlockManager::new(&geo, self.config.scheme, self.seed ^ 0x5eed);
        for &addr in &retired {
            manager.retire(addr);
        }
        for sb in &self.sealed {
            for &m in &sb.members {
                manager.claim(m);
            }
        }
        learn_snapshot(&mut manager, &self.config, &self.array);
        for record in self.array.seal_records() {
            for s in &record.summaries {
                manager.learn(BlockSummary {
                    addr: s.addr,
                    pgm_sum_us: s.pgm_sum_us,
                    eigen: EigenSequence::from_bits(s.eigen_bits.iter().copied()),
                });
            }
        }
        manager.promote_known();
        self.manager = manager;
        // Recovery rebuilt the mapping without going through
        // apply_assignments, so the checkpoint sequence table must be
        // refreshed from the recovered pages' OOB before the checkpoint
        // below trusts it.
        if let Some(mut table) = self.ckpt_seqs.take() {
            for lpn in 0..self.logical_pages {
                if let Some(ppa) = self.mapping.lookup(lpn) {
                    table[usize::try_from(lpn).expect("lpn fits usize")] =
                        self.array.read_oob(ppa)?.seq;
                }
            }
            self.ckpt_seqs = Some(table);
        }
        // 7. Back to life: sequences continue past everything ever durably
        // assigned, and a fresh checkpoint bounds the next recovery's scan.
        self.spor.crashed = false;
        self.spor.journal.clear();
        self.spor.superwls_since_ckpt = 0;
        self.spor.write_seq = max_seq + 1;
        self.spor.checkpoint.retired = retired;
        self.stats.recovery_scan_pages += report.scanned_pages;
        self.stats.recovered_mappings += report.recovered_mappings;
        self.stats.torn_writes_discarded += report.torn_writes_discarded;
        self.stats.recovery_time_us += report.scan_us;
        self.take_checkpoint()?;
        Ok(report)
    }
}
