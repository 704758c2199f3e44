//! The SSD facade: [`Ssd`] and its shared state. Its methods live in one
//! child module per concern — host I/O, GC, patrol, parity rebuild,
//! checkpoint/recovery and the timed replay.

mod checkpoint;
mod collect;
mod io;
mod patrol;
mod rebuild;
mod replay;

use crate::active::ActiveSlots;
use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::gc::{GcJob, PatrolJob, SealedSuperblock};
use crate::manager::BlockManager;
use crate::mapping::Mapping;
use crate::recovery::SporState;
use crate::request::{IoOp, IoRequest};
use crate::stats::SsdStats;
use crate::timing::{ReplayState, TouchLog, CONTROLLER};
use crate::Result;
use flash_model::{BlockAddr, FlashArray, PageAddr};
use pvcheck::Characterizer;

/// Shape summary handed to workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometryInfo {
    /// Logical pages exported to the host.
    pub logical_pages: u64,
    /// Physical pages in the flash array.
    pub physical_pages: u64,
    /// Pages one superblock holds.
    pub pages_per_superblock: u64,
}

/// The simulated SSD.
///
/// See the [crate docs](crate) for the model; construct with [`Ssd::new`],
/// drive with [`Ssd::run`] or the per-request methods, then inspect
/// [`Ssd::stats`].
///
/// ```
/// use ftl::{FtlConfig, Ssd};
///
/// # fn main() -> ftl::Result<()> {
/// let mut ssd = Ssd::new(FtlConfig::small_test(), 7)?;
/// ssd.write(3)?;
/// assert!(ssd.read(3)?.is_some());
/// ssd.trim(3)?;
/// assert!(ssd.read(3)?.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Ssd {
    config: FtlConfig,
    array: FlashArray,
    mapping: Mapping,
    manager: BlockManager,
    actives: ActiveSlots,
    sealed: Vec<SealedSuperblock>,
    stats: SsdStats,
    logical_pages: u64,
    seal_seq: u64,
    touches: TouchLog,
    scratch: Vec<(u64, PageAddr)>,
    /// Construction seed, kept so recovery can rebuild the block manager
    /// with the identical derived RNG stream.
    seed: u64,
    /// Next superblock identity to hand out.
    sb_seq: u64,
    /// SPOR machinery: crash countdown, journal, checkpoint, sequences.
    spor: SporState,
    /// State of an in-progress incremental timed replay
    /// ([`Ssd::timed_begin`] … [`Ssd::timed_end`]); `None` outside one.
    replay: Option<ReplayState>,
    /// Checkpoint sequence table: `ckpt_seqs[lpn]` mirrors the OOB write
    /// sequence of the page `lpn` currently maps to, maintained at
    /// `apply_assignments` time so `take_checkpoint` reads sequences from
    /// RAM instead of the spare area. `Some` only when SPOR is enabled.
    ckpt_seqs: Option<Vec<u64>>,
    /// Partially collected victim parked between GC slices
    /// ([`GcBudget::Sliced`] only); `None` when no collection is mid-flight.
    gc_job: Option<GcJob>,
    /// Per-command cap on budgeted collection work, µs
    /// ([`Ssd::set_gc_allowance`]). Defaults to `INFINITY` (no cap), which
    /// leaves every code path bit-identical to a device without the field.
    /// Frontends with per-tenant SLO budgets set this before each command
    /// to the tenant's remaining debt for the current window; `0` skips the
    /// ladder slice entirely. The emergency floor ignores it — running out
    /// of assemblable superblocks trumps any SLO.
    gc_allowance_us: f64,
    /// Per-LPN write time on the device clock, µs
    /// ([`Ssd::device_clock_us`]); `Some` only when integrity tracking is
    /// on. Reset on every program of the LPN (a relocation rewrites the
    /// physical charge, so its retention clock restarts).
    birth_us: Option<Vec<f64>>,
    /// Partially completed patrol pass parked between slices; `None` when
    /// no pass is mid-flight. Cursors live only in RAM (crash-safe to drop:
    /// the pass merely restarts).
    patrol_job: Option<PatrolJob>,
    /// Device-clock time at which the next patrol pass is due, µs.
    patrol_due_at: f64,
    /// Wall time the device spent idle during timed replays, µs: the sum of
    /// gaps where the next arrival lay beyond all accrued work. Charge
    /// trapped in flash cells leaks during idle time exactly as during
    /// work, so the device clock counts both; untimed replays have no
    /// arrival schedule and leave this at zero (work is the only clock).
    idle_wall_us: f64,
}

/// Exact `floor(physical_pages * (1 - overprovision))` in integer
/// arithmetic: the f64 factor is decomposed into `mantissa * 2^exp` and the
/// product taken in `u128`, so huge geometries no longer lose low bits to
/// the double rounding of `(physical as f64 * frac) as u64`.
fn logical_capacity(physical_pages: u64, overprovision: f64) -> u64 {
    let frac = 1.0 - overprovision;
    if frac <= 0.0 {
        return 0;
    }
    if frac >= 1.0 {
        return physical_pages;
    }
    let bits = frac.to_bits();
    // frac in (0, 1) is normal, so the implicit leading bit is set and the
    // unbiased exponent is at most -1 (shift >= 53).
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1075;
    let mantissa = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
    let product = u128::from(physical_pages) * u128::from(mantissa);
    let shift = u32::try_from(-exp).expect("frac < 1 has a negative exponent");
    if shift >= 128 {
        0
    } else {
        u64::try_from(product >> shift).expect("floor of physical * frac fits u64 (frac < 1)")
    }
}

/// Teaches `manager` the precharacterized profile of every block when the
/// configuration asks for a warm start; a no-op otherwise.
fn learn_snapshot(manager: &mut BlockManager, config: &FtlConfig, array: &FlashArray) {
    if !config.precharacterize {
        return;
    }
    let pool = Characterizer::new(&config.flash).snapshot(array.latency_model(), 0);
    let strings = array.geometry().strings();
    for profile in pool.iter() {
        manager.learn(profile.summary(strings));
    }
}

impl Ssd {
    /// Builds the device, optionally pre-characterizing every block so
    /// QSTR-MED starts warm (the paper's steady-state setting).
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] for inconsistent configurations.
    pub fn new(config: FtlConfig, seed: u64) -> Result<Ssd> {
        config.validate().map_err(|reason| FtlError::InvalidConfig { reason })?;
        let mut array = FlashArray::with_faults(config.flash.clone(), seed, config.fault.clone());
        if config.integrity.track {
            array.set_track_disturb(true);
        }
        // Bit-identical prefix memoization of program/erase synthesis.
        array.set_fast_latency(true);
        let geo = array.geometry().clone();
        let physical_pages = geo.total_blocks() * u64::from(geo.pages_per_block());
        // Parity first, then over-provisioning: the parity reserve (one page
        // per super word-line) is raw capacity the host can never address.
        let usable_pages = physical_pages - config.parity_reserve_pages(physical_pages);
        let logical_pages = logical_capacity(usable_pages, config.overprovision);
        let mut manager = BlockManager::new(&geo, config.scheme, seed ^ 0x5eed);
        learn_snapshot(&mut manager, &config, &array);
        manager.promote_known();
        let spor = SporState::new(&config.spor);
        let ckpt_seqs = config
            .spor
            .enabled
            .then(|| vec![0u64; usize::try_from(logical_pages).expect("capacity fits usize")]);
        let birth_us = config
            .integrity
            .track
            .then(|| vec![0.0f64; usize::try_from(logical_pages).expect("capacity fits usize")]);
        Ok(Ssd {
            config,
            array,
            mapping: Mapping::new(logical_pages, &geo),
            manager,
            actives: ActiveSlots::default(),
            sealed: Vec::new(),
            stats: SsdStats::default(),
            logical_pages,
            seal_seq: 0,
            touches: TouchLog::default(),
            scratch: Vec::new(),
            seed,
            sb_seq: 0,
            spor,
            replay: None,
            ckpt_seqs,
            gc_job: None,
            gc_allowance_us: f64::INFINITY,
            birth_us,
            patrol_job: None,
            patrol_due_at: 0.0,
            idle_wall_us: 0.0,
        })
    }

    /// Shape summary for workload generation.
    #[must_use]
    pub fn geometry_info(&self) -> GeometryInfo {
        let geo = self.array.geometry();
        let pools = u64::from(geo.chips()) * u64::from(geo.planes_per_chip());
        GeometryInfo {
            logical_pages: self.logical_pages,
            physical_pages: geo.total_blocks() * u64::from(geo.pages_per_block()),
            pages_per_superblock: pools * u64::from(geo.pages_per_block()),
        }
    }

    /// Run statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// Total QSTR-MED eigen distance checks (0 for other schemes).
    #[must_use]
    pub fn distance_checks(&self) -> u64 {
        self.manager.distance_checks()
    }

    /// Executes a request stream.
    ///
    /// # Errors
    ///
    /// Stops at the first failing request.
    pub fn run(&mut self, requests: &[IoRequest]) -> Result<()> {
        for r in requests {
            match r.op {
                IoOp::Write => {
                    self.write(r.lpn)?;
                }
                IoOp::Read => {
                    self.read(r.lpn)?;
                }
                IoOp::Trim => self.trim(r.lpn)?,
            }
        }
        Ok(())
    }

    /// Records a flash command's occupancy on its chip/plane group (no-op
    /// unless a `PerChip` replay is running).
    fn touch_block(&mut self, block: BlockAddr, us: f64) {
        let group = self.array.geometry().chip_plane_index(block);
        self.touches.record(group, us);
    }

    /// Records host-channel occupancy (a page transfer).
    fn touch_controller(&mut self, us: f64) {
        self.touches.record(CONTROLLER, us);
    }

    fn check_lpn(&self, lpn: u64) -> Result<()> {
        if lpn >= self.logical_pages {
            return Err(FtlError::LpnOutOfRange { lpn, capacity: self.logical_pages });
        }
        Ok(())
    }

    /// Rejects requests on a crashed device until [`Ssd::recover`] runs.
    fn ensure_powered(&self) -> Result<()> {
        if self.spor.crashed {
            return Err(FtlError::PowerLoss);
        }
        Ok(())
    }

    /// Whether an injected crash has fired and [`Ssd::recover`] has not yet
    /// been called.
    #[must_use]
    pub fn has_crashed(&self) -> bool {
        self.spor.crashed
    }

    /// The page mapping (read access for verification and tests).
    #[must_use]
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The block manager (read access for verification and tests).
    #[must_use]
    pub fn block_manager(&self) -> &BlockManager {
        &self.manager
    }

    /// Valid data pages currently on flash (excludes staged pages).
    #[must_use]
    pub fn valid_pages(&self) -> usize {
        self.mapping.valid_pages()
    }

    /// The device clock patrol scheduling and data ages run on: total
    /// foreground busy time plus background (idle-gap) GC and patrol time,
    /// plus idle wall time credited by timed replays (retention charge
    /// leaks whether or not the device is working, so an idle device still
    /// ages its data — and background scrubbing merely *uses* idle time
    /// rather than extending the clock). Monotone and simulated (never
    /// host wall-clock), so ages — and therefore every integrity decision —
    /// replay bit-identically.
    pub fn device_clock_us(&self) -> f64 {
        self.stats.busy_us + self.stats.idle_gc_us + self.stats.patrol_us + self.idle_wall_us
    }

    /// Data age of `lpn` in retention hours: device time since its last
    /// program, scaled by the configured aging acceleration. `0.0` whenever
    /// integrity tracking is off.
    fn data_age_hours(&self, lpn: u64) -> f64 {
        match &self.birth_us {
            Some(birth) => {
                let born = birth[usize::try_from(lpn).expect("lpn fits usize")];
                (self.device_clock_us() - born).max(0.0)
                    * self.config.integrity.retention_hours_per_us
            }
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests;
