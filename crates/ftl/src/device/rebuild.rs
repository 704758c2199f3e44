//! RAIN rebuild: recovers an uncorrectable page from its super-word-line
//! siblings plus parity, on the read path and on GC relocation reads.

use super::Ssd;
use crate::Result;
use flash_model::{BlockAddr, FlashError, PageAddr, PageType};

impl Ssd {
    /// Rebuilds the payload of an uncorrectable page from its super-word-line
    /// siblings plus parity (RAIN). Every surviving page of the stripe is
    /// read (`rebuild_reads`) and the tags XOR back to the lost LPN when the
    /// stripe is intact; the caller then restages the payload. Sibling reads
    /// proceed chip-parallel, so the charged critical path is the slowest
    /// *member* — the rebuild-latency channel where unified-tR superpages
    /// beat PV-blind assembly. Rebuild time lands in `rebuild_us` and
    /// `busy_us`, never the read histogram.
    ///
    /// A stripe that cannot produce the payload — a second uncorrectable
    /// sibling, a dropped member whose tags are gone, or a missing parity
    /// page — counts in `rebuilds_failed`: true data loss, reported, never
    /// silently absorbed.
    pub(super) fn rebuild_page(
        &mut self,
        lpn: u64,
        ppa: PageAddr,
        stripe: Option<&[BlockAddr]>,
    ) -> Result<()> {
        debug_assert!(self.config.parity.enabled());
        // A GC caller hands the victim's members directly (the victim may
        // already be off the sealed list); otherwise locate the stripe.
        let members: Option<Vec<BlockAddr>> = match stripe {
            Some(m) => Some(m.to_vec()),
            None => self
                .sealed
                .iter()
                .find(|s| s.members.contains(&ppa.wl.block))
                .map(|s| s.members.clone())
                .or_else(|| {
                    self.actives
                        .iter()
                        .find(|a| a.members.contains(&ppa.wl.block))
                        .map(|a| a.members.clone())
                }),
        };
        let Some(members) = members else {
            self.stats.rebuilds_failed += 1;
            return Ok(());
        };
        // Stripe siblings were programmed in the same instant as the lost
        // page, so its retention age is theirs.
        let age = self.data_age_hours(lpn);
        let geo = self.array.geometry();
        let cell = geo.cell();
        let pages_per_lwl = geo.pages_per_lwl();
        let mut acc = 0u64;
        let mut intact = true;
        let mut saw_parity = false;
        let mut critical_us = 0.0f64;
        let mut fanout_us = 0.0f64;
        for &member in &members {
            let mut member_us = 0.0;
            for k in 0..pages_per_lwl {
                let pt = PageType::from_index(cell, k).expect("k < pages_per_lwl");
                let page = member.wl(ppa.wl.lwl).page(pt);
                if page == ppa {
                    continue;
                }
                match self.array.read_page(page) {
                    Ok((tag, t)) => {
                        let bits = self.array.expected_error_bits(page, age);
                        member_us += self.config.retry.read_latency_us(t, bits);
                        self.stats.rebuild_reads += 1;
                        if self.config.retry.is_uncorrectable(bits) {
                            // Double failure within one super word-line.
                            intact = false;
                        } else {
                            acc ^= tag;
                            if self.array.read_oob(page).is_ok_and(|o| o.is_parity()) {
                                saw_parity = true;
                            }
                        }
                    }
                    Err(FlashError::ReadUnwritten { .. } | FlashError::TornWordLine { .. }) => {
                        intact = false;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if member_us > 0.0 {
                self.touch_block(member, member_us);
            }
            critical_us = critical_us.max(member_us);
            fanout_us += member_us;
        }
        // The XOR over a whole stripe is zero, so the survivors' XOR equals
        // the lost page's tag exactly when the stripe is complete. A
        // degraded stripe (dropped member) or one whose parity page is gone
        // misses tags and fails the check.
        if intact && (saw_parity || !self.spor.enabled) && acc == lpn {
            self.stats.rebuilds_ok += 1;
            self.stats.rebuild_ok_us += critical_us;
            self.stats.rebuild_ok_fanout_us += fanout_us;
        } else {
            self.stats.rebuilds_failed += 1;
        }
        self.stats.rebuild_us += critical_us;
        self.stats.busy_us += critical_us;
        Ok(())
    }

    /// ECC check on a GC relocation read. With parity off this is the
    /// historical relocation path bit for bit (raw sense time, no ECC
    /// consult); with parity on the relocation pays the retry ladder and an
    /// uncorrectable source page is rebuilt from its stripe before the
    /// relocation's own restage replaces it. Returns the charged read time.
    pub(super) fn gc_read_with_parity_check(
        &mut self,
        lpn: u64,
        ppa: PageAddr,
        t_read: f64,
        stripe: &[BlockAddr],
    ) -> Result<f64> {
        if !self.config.parity.enabled()
            || !(self.config.fault.enabled() || self.config.integrity.track)
        {
            return Ok(t_read);
        }
        let bits = self.array.expected_error_bits(ppa, self.data_age_hours(lpn));
        if self.config.retry.is_uncorrectable(bits) {
            self.stats.uncorrectable_reads += 1;
            self.rebuild_page(lpn, ppa, Some(stripe))?;
        }
        Ok(self.config.retry.read_latency_us(t_read, bits))
    }
}
