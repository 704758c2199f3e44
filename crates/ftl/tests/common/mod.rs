//! FNV-1a fingerprints of replay results.
//!
//! A fingerprint folds the bit pattern of every number a replay produced —
//! counters, running float sums (`to_bits`), ordered latency sample
//! vectors, per-chip busy vectors, the page mapping, per-tenant counters
//! and dispatch logs — into one `u64`. Tests pin the fingerprint of a
//! reference run as a constant, so a single reassociated float add, skipped
//! RNG draw or reordered sample flips the hash.
//!
//! Shared by the `ftl` and `host` integration tests (the latter include
//! this file by path).

#![allow(dead_code)]

use ftl::{Ssd, SsdStats};

/// Incremental 64-bit FNV-1a hasher.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A length-prefixed ordered sample vector.
    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Every field of [`SsdStats`], floats by bit pattern and histograms
    /// as full ordered sample vectors.
    pub fn stats(&mut self, s: &SsdStats) {
        for v in [s.host_writes, s.host_reads, s.host_trims, s.gc_relocations, s.gc_runs] {
            self.u64(v);
        }
        for v in s.host_writes_by_class {
            self.u64(v);
        }
        self.u64(s.gc_slices);
        self.u64(s.gc_yield_count);
        self.f64s(s.gc_slice_us.samples_us());
        self.f64(s.gc_stall_us);
        self.f64s(s.gc_stall.samples_us());
        self.u64(s.superwl_programs);
        self.u64(s.superblock_erases);
        self.u64(s.superblocks_assembled.0);
        self.u64(s.superblocks_assembled.1);
        self.f64(s.extra_program_us);
        self.f64(s.extra_erase_us);
        self.f64(s.busy_us);
        self.f64(s.idle_gc_us);
        self.u64(s.retired_blocks);
        self.u64(s.remapped_writes);
        self.u64(s.refresh_relocations);
        self.u64(s.uncorrectable_reads);
        self.f64(s.refresh_us);
        self.f64(s.patrol_us);
        self.u64(s.patrol_scanned_pages);
        self.u64(s.patrol_refreshes);
        self.u64(s.patrol_passes);
        self.u64(s.degraded_superblocks);
        self.f64(s.queue_wait_us);
        self.f64(s.trim_wait_us);
        self.u64(s.queue_depth_max);
        self.f64(s.makespan_us);
        self.f64s(&s.chip_busy_us);
        self.f64s(s.write_latency.samples_us());
        self.f64s(s.read_latency.samples_us());
        self.u64(s.recovery_scan_pages);
        self.u64(s.recovered_mappings);
        self.u64(s.torn_writes_discarded);
        self.f64(s.recovery_time_us);
        self.u64(s.rebuild_reads);
        self.u64(s.rebuilds_ok);
        self.u64(s.rebuilds_failed);
        self.f64(s.rebuild_us);
        self.f64(s.rebuild_ok_us);
        self.f64(s.rebuild_ok_fanout_us);
        self.u64(s.parity_verified);
        self.u64(s.parity_mismatch);
    }

    /// The logical-to-physical mapping, one entry per logical page.
    pub fn mapping(&mut self, dev: &Ssd) {
        for lpn in 0..dev.geometry_info().logical_pages {
            match dev.mapping().lookup(lpn) {
                Some(ppa) => self.bytes(format!("{ppa:?}").as_bytes()),
                None => self.bytes(b"-"),
            }
        }
    }

    /// Device stats plus mapping.
    pub fn device(&mut self, dev: &Ssd) {
        self.stats(dev.stats());
        self.mapping(dev);
    }
}

/// Fingerprint of a device's stats and mapping.
pub fn device(dev: &Ssd) -> u64 {
    let mut h = Fnv::default();
    h.device(dev);
    h.finish()
}
