//! Timed-replay golden tests.
//!
//! `queue_model = Single` must reproduce the pre-engine `run_timed` outputs
//! bit for bit: the per-chip timing engine, the dense mapping rewrite and
//! the O(1) GC victim selection all ride behind the same request stream, so
//! any float reordered, RNG draw added or victim choice changed shows up
//! here as a flipped bit.
//!
//! One documented exception: reads that miss used to drop their queueing
//! delay entirely (service 0.0 recorded nothing). They now record the wait
//! as a read-latency sample, so the read histogram fields carry post-fix
//! regression values while every other field pins the pre-change bits.

mod common;

use ftl::{
    poisson_arrivals, FtlConfig, IntegrityConfig, IoOp, IoRequest, PatrolConfig, QueueModel, Ssd,
    Workload,
};

/// Mixed open-loop workload over the small-test device: 3x-capacity random
/// writes over half the LPNs with reads (hits and guaranteed misses) and
/// trims folded in, arriving Poisson at 800 µs mean.
fn workload(dev: &Ssd) -> Vec<(f64, IoRequest)> {
    let info = dev.geometry_info();
    let n = (info.logical_pages * 3) as usize;
    let mut reqs = Workload::random_write(0.5).generate(&info, n, 5);
    for (i, r) in reqs.iter_mut().enumerate() {
        match i % 7 {
            3 => r.op = IoOp::Read,
            5 => *r = IoRequest { op: IoOp::Read, lpn: info.logical_pages - 1 },
            6 if i % 14 == 6 => r.op = IoOp::Trim,
            _ => {}
        }
    }
    poisson_arrivals(&reqs, 800.0, 1)
}

fn run(idle_gc: bool, model: QueueModel) -> Ssd {
    let mut config = FtlConfig::small_test();
    config.idle_gc = idle_gc;
    config.queue_model = model;
    let mut dev = Ssd::new(config, 3).unwrap();
    let timed = workload(&dev);
    dev.run_timed(&timed).unwrap();
    dev
}

/// Pre-engine golden bits of one `run_timed` replay (recorded before the
/// timing engine and mapping rewrite landed), plus post-fix read fields.
struct Golden {
    idle_gc: bool,
    host_writes: u64,
    host_reads: u64,
    host_trims: u64,
    gc_runs: u64,
    gc_relocations: u64,
    write_mean: u64,
    write_p99: u64,
    write_max: u64,
    write_len: usize,
    busy_us: u64,
    idle_gc_us: u64,
    waf: u64,
    extra_pgm: u64,
    // Post-fix regression values: misses now record their wait, so the read
    // histogram grew from the 2026 hit-only samples to hits + misses.
    read_len: usize,
    read_mean: u64,
}

const GOLDEN: [Golden; 2] = [
    Golden {
        idle_gc: false,
        host_writes: 13331,
        host_reads: 2026,
        host_trims: 1481,
        gc_runs: 16,
        gc_relocations: 543,
        write_mean: 0x407b_6a03_ed41_47e5,
        write_p99: 0x40b4_ff99_a64b_e300,
        write_max: 0x40de_91c7_f240_6b45,
        write_len: 13331,
        busy_us: 0x4143_5021_3a44_d903,
        idle_gc_us: 0x0000_0000_0000_0000,
        waf: 0x3ff0_a6d6_bb62_eaa0,
        extra_pgm: 0x4042_c7c5_c9c1_d1cf,
        read_len: 5924,
        read_mean: 0x4074_01a5_0ff1_5fcb,
    },
    Golden {
        idle_gc: true,
        host_writes: 13331,
        host_reads: 2026,
        host_trims: 1481,
        gc_runs: 16,
        gc_relocations: 579,
        write_mean: 0x4075_5df5_6361_69dd,
        write_p99: 0x40b0_2502_40be_3800,
        write_max: 0x40c3_e4f8_d63a_6800,
        write_len: 13331,
        busy_us: 0x4142_45cf_9339_c195,
        idle_gc_us: 0x4101_cf46_253a_af42,
        waf: 0x3ff0_b1e6_61f9_bd5d,
        extra_pgm: 0x4042_cd80_d023_dccb,
        read_len: 5924,
        read_mean: 0x406c_4350_6509_e626,
    },
];

#[test]
fn single_queue_model_reproduces_prechange_bits() {
    check_golden_with(|_| {});
}

#[test]
fn explicit_parity_off_and_zero_read_spread_reproduce_the_golden_bits() {
    // The parity subsystem must be inert when off: an explicit
    // `ParityConfig::Off` plus the zeroed knobs of its sibling channels —
    // per-block read spread (nonzero correlation but zero σ must not even
    // draw) and page-type BER spread — replays the pre-parity GOLDEN table
    // bit for bit.
    check_golden_with(|config| {
        config.parity = ftl::ParityConfig::Off;
        config.flash.variation.read_block_sigma_us = 0.0;
        config.flash.variation.read_pgm_corr = 0.8;
        config.fault.page_type_ber_spread = 0.0;
    });
}

fn check_golden_with(mutate: impl Fn(&mut FtlConfig)) {
    for g in &GOLDEN {
        let dev = {
            let mut config = FtlConfig::small_test();
            config.idle_gc = g.idle_gc;
            config.queue_model = QueueModel::Single;
            mutate(&mut config);
            let mut dev = Ssd::new(config, 3).unwrap();
            let timed = workload(&dev);
            dev.run_timed(&timed).unwrap();
            dev
        };
        let s = dev.stats();
        let tag = format!("idle_gc={}", g.idle_gc);
        assert_eq!(s.host_writes, g.host_writes, "{tag} host_writes");
        assert_eq!(s.host_reads, g.host_reads, "{tag} host_reads");
        assert_eq!(s.host_trims, g.host_trims, "{tag} host_trims");
        assert_eq!(s.gc_runs, g.gc_runs, "{tag} gc_runs");
        assert_eq!(s.gc_relocations, g.gc_relocations, "{tag} gc_relocations");
        assert_eq!(s.write_latency.mean_us().to_bits(), g.write_mean, "{tag} write mean drifted");
        assert_eq!(
            s.write_latency.quantile_us(0.99).to_bits(),
            g.write_p99,
            "{tag} write p99 drifted"
        );
        assert_eq!(s.write_latency.max_us().to_bits(), g.write_max, "{tag} write max drifted");
        assert_eq!(s.write_latency.len(), g.write_len, "{tag} write sample count drifted");
        assert_eq!(s.busy_us.to_bits(), g.busy_us, "{tag} busy_us drifted");
        assert_eq!(s.idle_gc_us.to_bits(), g.idle_gc_us, "{tag} idle_gc_us drifted");
        assert_eq!(s.waf().to_bits(), g.waf, "{tag} WAF drifted");
        assert_eq!(s.extra_program_per_op_us().to_bits(), g.extra_pgm, "{tag} extra PGM drifted");
        assert_eq!(s.read_latency.len(), g.read_len, "{tag} read sample count drifted");
        assert_eq!(s.read_latency.mean_us().to_bits(), g.read_mean, "{tag} read mean drifted");
    }
}

/// Aged-run golden for the refresh-time split.
///
/// A reactive refresh — the read retry ladder failing and the device
/// relocating the page before serving it — used to be invisible; now its
/// relocation time is charged to `refresh_us` (and `busy_us`), *not* to the
/// read-latency histogram: the host observes the retry reads it actually
/// waited on, while the relocation is background work like GC. This test
/// pins an aged replay (tracking on, accelerated retention, no patrol) so
/// any future change that leaks relocation time back into read latency, or
/// stops charging it to `refresh_us`, flips a pinned bit.
#[test]
fn reactive_refresh_time_lands_in_refresh_us_not_read_latency() {
    let mut config = FtlConfig::small_test();
    config.integrity =
        IntegrityConfig { track: true, retention_hours_per_us: 0.003, patrol: PatrolConfig::Off };
    let mut dev = Ssd::new(config, 3).unwrap();
    let timed = workload(&dev);
    dev.run_timed(&timed).unwrap();
    let s = dev.stats();
    assert!(s.uncorrectable_reads > 0, "the aged run must exhaust retry ladders");
    assert_eq!(
        s.refresh_relocations, s.uncorrectable_reads,
        "every uncorrectable read refreshes exactly once"
    );
    assert!(s.refresh_us > 0.0, "relocation time is accounted");
    assert_eq!(s.uncorrectable_reads, AGED.uncorrectable, "uncorrectable drifted");
    assert_eq!(s.refresh_us.to_bits(), AGED.refresh_us, "refresh_us drifted");
    assert_eq!(s.busy_us.to_bits(), AGED.busy_us, "busy_us drifted");
    assert_eq!(s.read_latency.len(), AGED.read_len, "read sample count drifted");
    assert_eq!(
        s.read_latency.mean_us().to_bits(),
        AGED.read_mean,
        "read mean drifted — refresh time may be leaking into the histogram"
    );
    assert_eq!(s.read_latency.quantile_us(0.99).to_bits(), AGED.read_p99, "read p99 drifted");
    assert_eq!(common::device(&dev), AGED_FINGERPRINT, "full stat set drifted");
}

/// Fingerprint (see `common/mod.rs`) of the whole stat set and mapping of
/// the aged replay, recorded from the original stepper loop.
const AGED_FINGERPRINT: u64 = 0x3cb3_7592_68c6_fc76;

/// Golden bits for the aged replay above.
struct AgedGolden {
    uncorrectable: u64,
    refresh_us: u64,
    busy_us: u64,
    read_len: usize,
    read_mean: u64,
    read_p99: u64,
}

const AGED: AgedGolden = AgedGolden {
    uncorrectable: 533,
    refresh_us: 0x40f3_7233_3333_3334,
    busy_us: 0x4145_70e3_9d1f_c225,
    read_len: 5924,
    read_mean: 0x4075_e516_bae6_7d7b,
    read_p99: 0x40b4_b6b3_2229_2a0c,
};

#[test]
fn per_chip_model_changes_only_the_clocks() {
    // Without idle GC the flash-command sequence depends only on request
    // order, so the two models must do bit-identical work — only the waits
    // differ — and the event-driven clocks must finish no later than the
    // serial clock.
    let single = run(false, QueueModel::Single);
    let per_chip = run(false, QueueModel::PerChip);
    let (s, p) = (single.stats(), per_chip.stats());
    assert_eq!(s.host_writes, p.host_writes);
    assert_eq!(s.host_reads, p.host_reads);
    assert_eq!(s.host_trims, p.host_trims);
    assert_eq!(s.gc_runs, p.gc_runs);
    assert_eq!(s.gc_relocations, p.gc_relocations);
    assert_eq!(s.busy_us.to_bits(), p.busy_us.to_bits(), "service time is model-independent");
    assert_eq!(s.waf().to_bits(), p.waf().to_bits());
    assert!(
        p.makespan_us <= s.makespan_us,
        "per-chip makespan {} vs single {}",
        p.makespan_us,
        s.makespan_us
    );
    assert!(!p.chip_busy_us.is_empty(), "per-chip run reports group occupancy");
    assert!(s.chip_busy_us.is_empty(), "single run has no per-group clocks");
}

#[test]
fn per_chip_model_survives_idle_gc_with_comparable_work() {
    // With idle GC the background schedule follows the clocks, so the two
    // models legitimately collect at different instants — but both must
    // stay healthy and do the same order of work.
    let single = run(true, QueueModel::Single);
    let per_chip = run(true, QueueModel::PerChip);
    let (s, p) = (single.stats(), per_chip.stats());
    assert_eq!(s.host_writes, p.host_writes);
    assert!(p.gc_runs > 0, "idle gaps trigger background GC under PerChip too");
    assert!(p.idle_gc_us > 0.0);
    assert!(p.makespan_us > 0.0);
    let occupancy: f64 = p.chip_busy_us.iter().sum();
    assert!(occupancy > 0.0);
}
