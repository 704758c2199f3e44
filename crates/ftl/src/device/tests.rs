use super::*;
use crate::config::{OrganizationScheme, QosClass};
use crate::workload::Workload;

fn ssd(scheme: OrganizationScheme) -> Ssd {
    let mut config = FtlConfig::small_test();
    config.scheme = scheme;
    Ssd::new(config, 11).unwrap()
}

#[test]
fn write_then_read_roundtrip() {
    let mut dev = ssd(OrganizationScheme::Random);
    let w = dev.write(5).unwrap();
    assert!(w > 0.0);
    let r = dev.read(5).unwrap().unwrap();
    assert!(r > 0.0);
    assert_eq!(dev.read(6).unwrap(), None, "unwritten page");
}

#[test]
fn read_after_flush_hits_flash() {
    let mut dev = ssd(OrganizationScheme::Random);
    dev.write(5).unwrap();
    dev.flush().unwrap();
    let r = dev.read(5).unwrap().unwrap();
    // Flash read latency is much larger than the transfer time.
    assert!(r > dev.config.transfer_us, "latency {r}");
    assert_eq!(dev.valid_pages(), 1);
}

#[test]
fn out_of_range_is_reported() {
    let mut dev = ssd(OrganizationScheme::Random);
    let cap = dev.geometry_info().logical_pages;
    assert!(matches!(dev.write(cap), Err(FtlError::LpnOutOfRange { .. })));
    assert!(matches!(dev.read(cap), Err(FtlError::LpnOutOfRange { .. })));
}

#[test]
fn trim_unmaps() {
    let mut dev = ssd(OrganizationScheme::Random);
    dev.write(5).unwrap();
    dev.flush().unwrap();
    dev.trim(5).unwrap();
    assert_eq!(dev.read(5).unwrap(), None);
    assert_eq!(dev.valid_pages(), 0);
}

#[test]
fn overwrite_keeps_one_valid_copy() {
    let mut dev = ssd(OrganizationScheme::Random);
    for _ in 0..5 {
        dev.write(9).unwrap();
    }
    dev.flush().unwrap();
    assert_eq!(dev.valid_pages(), 1);
    assert!(dev.read(9).unwrap().is_some());
}

#[test]
fn sustained_writes_trigger_gc_and_survive() {
    for scheme in [
        OrganizationScheme::Random,
        OrganizationScheme::Sequential,
        OrganizationScheme::QstrMed { candidates: 4 },
    ] {
        let mut dev = ssd(scheme);
        let info = dev.geometry_info();
        // Write 3x the logical space over half the LPNs.
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
        dev.run(&reqs).unwrap();
        assert!(dev.stats().gc_runs > 0, "{scheme:?} should have collected garbage");
        assert!(dev.stats().waf() > 1.0);
        // All recently written pages still readable.
        for lpn in 0..(info.logical_pages / 2).min(50) {
            let _ = dev.read(lpn).unwrap();
        }
    }
}

#[test]
fn qstr_scheme_performs_distance_checks() {
    let mut dev = ssd(OrganizationScheme::QstrMed { candidates: 4 });
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.5).generate(&info, (info.logical_pages * 2) as usize, 3);
    dev.run(&reqs).unwrap();
    assert!(dev.distance_checks() > 0);
}

#[test]
fn qstr_reduces_extra_program_latency_vs_random() {
    let run = |scheme| {
        let mut dev = ssd(scheme);
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
        dev.run(&reqs).unwrap();
        dev.stats().extra_program_per_op_us()
    };
    let random = run(OrganizationScheme::Random);
    let qstr = run(OrganizationScheme::QstrMed { candidates: 4 });
    assert!(qstr < random, "QSTR-MED {qstr} vs random {random}");
}

#[test]
fn sequential_pages_stripe_across_chips() {
    let mut dev = ssd(OrganizationScheme::Random);
    for lpn in 0..12 {
        dev.write(lpn).unwrap();
    }
    dev.flush().unwrap();
    // The first four consecutive pages must sit on four distinct chips.
    let chips: std::collections::HashSet<u16> =
        (0..4).map(|lpn| dev.mapping.lookup(lpn).unwrap().wl.block.chip.0).collect();
    assert_eq!(chips.len(), 4, "page-major striping spreads chips");
}

#[test]
fn cost_benefit_gc_also_survives_sustained_writes() {
    let mut config = FtlConfig::small_test();
    config.gc_policy = crate::gc::GcPolicy::CostBenefit;
    let mut dev = Ssd::new(config, 3).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 9);
    dev.run(&reqs).unwrap();
    assert!(dev.stats().gc_runs > 0);
}

#[test]
fn timed_run_adds_queueing_delay_under_load() {
    use crate::workload::poisson_arrivals;
    let reqs: Vec<crate::IoRequest> = Workload::random_write(0.5).generate(
        &ssd(OrganizationScheme::Random).geometry_info(),
        3000,
        5,
    );
    // Saturating load: arrivals far faster than service.
    let mut busy_dev = ssd(OrganizationScheme::Random);
    busy_dev.run_timed(&poisson_arrivals(&reqs, 1.0, 1)).unwrap();
    // Relaxed load: arrivals far slower than service.
    let mut idle_dev = ssd(OrganizationScheme::Random);
    idle_dev.run_timed(&poisson_arrivals(&reqs, 100_000.0, 1)).unwrap();
    let busy_p99 = busy_dev.stats().write_latency.quantile_us(0.99);
    let idle_p99 = idle_dev.stats().write_latency.quantile_us(0.99);
    assert!(busy_p99 > idle_p99 * 2.0, "busy {busy_p99} vs idle {idle_p99}");
}

#[test]
fn idle_gc_reduces_foreground_pauses() {
    use crate::workload::poisson_arrivals;
    let make = |idle_gc: bool| {
        let mut config = FtlConfig::small_test();
        config.idle_gc = idle_gc;
        Ssd::new(config, 3).unwrap()
    };
    let n = (make(false).geometry_info().logical_pages * 3) as usize;
    let reqs = Workload::random_write(0.5).generate(&make(false).geometry_info(), n, 5);
    // Arrivals slow enough to leave idle gaps.
    let timed = poisson_arrivals(&reqs, 6000.0, 1);
    let mut fg = make(false);
    fg.run_timed(&timed).unwrap();
    let mut bg = make(true);
    bg.run_timed(&timed).unwrap();
    assert!(bg.stats().gc_runs > 0);
    let fg_p99 = fg.stats().write_latency.quantile_us(0.999);
    let bg_p99 = bg.stats().write_latency.quantile_us(0.999);
    assert!(bg_p99 <= fg_p99, "idle GC p99.9 {bg_p99} vs foreground {fg_p99}");
}

#[test]
fn idle_gc_time_is_accounted_separately_from_busy_time() {
    use crate::workload::poisson_arrivals;
    let mut config = FtlConfig::small_test();
    config.idle_gc = true;
    let mut dev = Ssd::new(config, 3).unwrap();
    let info = dev.geometry_info();
    let n = (info.logical_pages * 3) as usize;
    let reqs = Workload::random_write(0.5).generate(&info, n, 5);
    // Gap-heavy arrivals: plenty of idle time for background GC.
    dev.run_timed(&poisson_arrivals(&reqs, 6000.0, 1)).unwrap();
    assert!(dev.stats().gc_runs > 0, "idle gaps must have triggered GC");
    let s = dev.stats();
    assert!(s.idle_gc_us > 0.0, "idle GC time must be recorded");
    // busy_us sums foreground service times only, while the histograms
    // hold wait + service (wait >= 0) — so busy_us can never exceed the
    // histogram totals. Folding idle-GC time into busy_us (the old bug)
    // breaks this bound in gap-heavy runs where waits are near zero.
    let histogram_total = s.write_latency.mean_us() * s.write_latency.len() as f64
        + s.read_latency.mean_us() * s.read_latency.len() as f64;
    assert!(
        s.busy_us <= histogram_total + 1e-6,
        "busy_us {} must exclude idle GC (histogram total {histogram_total})",
        s.busy_us
    );
}

#[test]
fn faulty_device_survives_sustained_writes_and_degrades_gracefully() {
    use flash_model::FaultConfig;
    for scheme in [OrganizationScheme::Random, OrganizationScheme::QstrMed { candidates: 4 }] {
        let mut config = FtlConfig::small_test();
        config.scheme = scheme;
        config.fault = FaultConfig::with_rate(0.02);
        let mut dev = Ssd::new(config, 11).unwrap();
        let info = dev.geometry_info();
        let reqs =
            Workload::random_write(0.5).generate(&info, (info.logical_pages * 4) as usize, 7);
        dev.run(&reqs).unwrap();
        dev.flush().unwrap();
        let s = dev.stats();
        assert!(s.retired_blocks > 0, "{scheme:?}: 2% faults must retire blocks");
        assert!(s.remapped_writes > 0, "{scheme:?}: failed programs must remap");
        // Every recently written page is still readable (no data loss).
        for lpn in 0..(info.logical_pages / 2).min(50) {
            let _ = dev.read(lpn).unwrap();
        }
    }
}

#[test]
fn faults_disabled_leaves_counters_untouched() {
    let mut dev = ssd(OrganizationScheme::Random);
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
    dev.run(&reqs).unwrap();
    let s = dev.stats();
    assert_eq!(s.retired_blocks, 0);
    assert_eq!(s.remapped_writes, 0);
    assert_eq!(s.refresh_relocations, 0);
    assert_eq!(s.degraded_superblocks, 0);
}

#[test]
fn uncorrectable_pages_are_refreshed_on_read() {
    use flash_model::FaultConfig;
    let mut config = FtlConfig::small_test();
    // Every block weak, BER far past the retry ladder: the first read of
    // any flash-resident page must trigger a refresh relocation.
    config.fault =
        FaultConfig { weak_block_prob: 1.0, weak_ber_multiplier: 1e6, ..FaultConfig::default() };
    let mut dev = Ssd::new(config, 11).unwrap();
    dev.write(5).unwrap();
    dev.flush().unwrap();
    let healthy = {
        let mut d = ssd(OrganizationScheme::Random);
        d.write(5).unwrap();
        d.flush().unwrap();
        d.read(5).unwrap().unwrap()
    };
    let r = dev.read(5).unwrap().unwrap();
    assert_eq!(dev.stats().refresh_relocations, 1);
    assert!(r > healthy, "retry ladder + refresh must cost time: {r} vs {healthy}");
    // The refreshed copy is immediately readable again.
    assert!(dev.read(5).unwrap().is_some());
}

#[test]
fn parity_reserve_shrinks_logical_capacity_exactly() {
    use crate::config::ParityConfig;
    // Parity off: the historical export, pinned.
    let dev = Ssd::new(FtlConfig::small_test(), 11).unwrap();
    assert_eq!(dev.geometry_info().logical_pages, logical_capacity(9216, 0.25));
    // Parity on: one page per super word-line comes off the top (9216 /
    // 12 = 768 pages), and overprovision applies to what remains.
    let mut config = FtlConfig::small_test();
    config.parity = ParityConfig::On;
    assert_eq!(config.parity_reserve_pages(9216), 768);
    let dev = Ssd::new(config, 11).unwrap();
    assert_eq!(dev.geometry_info().logical_pages, logical_capacity(9216 - 768, 0.25));
}

#[test]
fn double_failure_in_a_stripe_is_reported_not_absorbed() {
    use crate::config::ParityConfig;
    use flash_model::FaultConfig;
    // Every block weak and far past the retry ladder: the read is
    // uncorrectable AND so is every stripe sibling, so the rebuild must
    // fail — loudly — while the reactive refresh still restages a copy.
    let mut config = FtlConfig::small_test();
    config.parity = ParityConfig::On;
    config.fault =
        FaultConfig { weak_block_prob: 1.0, weak_ber_multiplier: 1e6, ..FaultConfig::default() };
    let mut dev = Ssd::new(config, 11).unwrap();
    dev.write(5).unwrap();
    dev.flush().unwrap();
    dev.read(5).unwrap().unwrap();
    let s = dev.stats();
    assert_eq!(s.uncorrectable_reads, 1);
    assert_eq!(s.rebuilds_ok, 0, "no stripe with every member rotten can rebuild");
    assert_eq!(s.rebuilds_failed, 1, "the double failure is true data loss, reported");
    // All 11 surviving pages of the 12-wide stripe were still read.
    assert_eq!(s.rebuild_reads, 11);
    assert!(s.rebuild_us > 0.0, "the failed attempt still cost stripe reads");
    assert_eq!(s.refresh_relocations, 1);
}

#[test]
fn parity_rebuilds_uncorrectable_pages_from_stripe_siblings() {
    use crate::config::ParityConfig;
    use flash_model::FaultConfig;
    // A sprinkling of weak blocks whose elevation straddles the retry
    // ladder across the page-type spread: the MSB page of a weak
    // word-line rots past the ladder while its LSB/CSB siblings stay
    // correctable — the single-page loss the stripe XOR can rebuild.
    // Seed-scan so the test doesn't hinge on one RNG block layout.
    for seed in 0..32u64 {
        let mut config = FtlConfig::small_test();
        config.parity = ParityConfig::On;
        config.fault = FaultConfig {
            weak_block_prob: 0.15,
            weak_ber_multiplier: 150.0,
            page_type_ber_spread: 0.35,
            ..FaultConfig::default()
        };
        let mut dev = Ssd::new(config, seed).unwrap();
        let info = dev.geometry_info();
        let span = info.logical_pages / 2;
        for lpn in 0..span {
            dev.write(lpn).unwrap();
        }
        dev.flush().unwrap();
        let reads_before = dev.stats().read_latency.len();
        for lpn in 0..span {
            dev.read(lpn).unwrap().unwrap();
        }
        let s = dev.stats();
        // Every uncorrectable read triggered exactly one rebuild attempt
        // and one reactive refresh.
        assert_eq!(s.rebuilds_ok + s.rebuilds_failed, s.uncorrectable_reads);
        assert_eq!(s.refresh_relocations, s.uncorrectable_reads);
        // Each attempt read the 11 surviving pages of its stripe.
        assert_eq!(s.rebuild_reads, 11 * s.uncorrectable_reads);
        // Rebuild time is charged out of band: the read histogram saw
        // exactly one sample per host read regardless of rebuilds.
        assert_eq!(s.read_latency.len() - reads_before, span as usize);
        if s.rebuilds_ok > 0 {
            assert!(s.rebuild_us > 0.0, "successful rebuilds cost stripe-read time");
            return;
        }
    }
    panic!("no seed in 0..32 produced a successful stripe rebuild");
}

#[test]
fn logical_capacity_matches_float_path_on_shipped_configs() {
    // The goldens depend on these values: the integer rewrite must agree
    // with the old f64 computation wherever that computation was exact —
    // which covers every experiment config (all use overprovision 0.25).
    for (physical, op) in [(9216u64, 0.25), (55_296, 0.25), (4096, 0.5)] {
        let old = (physical as f64 * (1.0 - op)) as u64;
        assert_eq!(logical_capacity(physical, op), old, "physical={physical} op={op}");
    }
    // The paper platform under the default 15% overprovision is already
    // past f64: `1.0 - 0.15` is a hair under 0.85, so the true floor is
    // 6_266_879 — the old path rounded the product up and exported one
    // logical page that physically does not fit the reserve.
    assert_eq!(logical_capacity(7_372_800, 0.15), 6_266_879);
    assert_eq!((7_372_800.0_f64 * (1.0 - 0.15)) as u64, 6_266_880, "the old path");
}

#[test]
fn logical_capacity_is_exact_where_f64_rounds() {
    // floor((2^64 - 1) * 3/4) = 3 * 2^62 - 1. The f64 path rounds
    // u64::MAX up to 2^64 and answers 3 * 2^62 — one page too many.
    let exact = (u128::from(u64::MAX) * 3 / 4) as u64;
    assert_eq!(logical_capacity(u64::MAX, 0.25), exact);
    assert_eq!(exact, 13_835_058_055_282_163_711);
    assert_ne!((u64::MAX as f64 * 0.75) as u64, exact, "the old path was wrong here");
    // Dyadic fractions are exact rationals after decomposition: check
    // against independent u128 arithmetic across magnitudes.
    for p in [0u64, 1, (1 << 53) + 1, (1 << 60) + 12_345, u64::MAX - 1] {
        assert_eq!(logical_capacity(p, 0.25), (u128::from(p) * 3 / 4) as u64);
        assert_eq!(logical_capacity(p, 0.5), p / 2);
    }
    assert_eq!(logical_capacity(1000, 0.9999), 0, "tiny fraction floors to zero sanely");
}

#[test]
fn timed_run_records_read_miss_and_trim_waits() {
    use crate::workload::poisson_arrivals;
    // One long write burst, then a read miss and a trim that both arrive
    // while the device is still busy: their waits must not vanish.
    let mut dev = ssd(OrganizationScheme::Random);
    let reqs: Vec<crate::IoRequest> =
        Workload::random_write(0.5).generate(&dev.geometry_info(), 200, 5);
    let mut timed = poisson_arrivals(&reqs, 1.0, 1);
    let last = timed.last().unwrap().0;
    let miss_lpn = dev.geometry_info().logical_pages - 1;
    timed.push((last, IoRequest { op: IoOp::Read, lpn: miss_lpn }));
    timed.push((last, IoRequest { op: IoOp::Trim, lpn: miss_lpn }));
    dev.run_timed(&timed).unwrap();
    let s = dev.stats();
    assert_eq!(s.read_latency.len() as u64, 1, "miss wait recorded as a read sample");
    assert!(s.read_latency.max_us() > 0.0, "the device was busy, so the miss waited");
    assert!(s.trim_wait_us > 0.0, "trim wait recorded");
    assert!(s.queue_wait_us > 0.0);
    assert!(s.queue_depth_max >= 2, "saturating load queues requests");
    assert!(s.makespan_us > 0.0);
}

fn queue_model_run(model: crate::QueueModel, interarrival_us: f64) -> Ssd {
    use crate::workload::poisson_arrivals;
    let mut config = FtlConfig::small_test();
    config.queue_model = model;
    let mut dev = Ssd::new(config, 3).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.5).generate(&info, (info.logical_pages * 2) as usize, 5);
    dev.run_timed(&poisson_arrivals(&reqs, interarrival_us, 1)).unwrap();
    dev
}

#[test]
fn per_chip_model_overlaps_work_across_chips() {
    use crate::QueueModel;
    let single = queue_model_run(QueueModel::Single, 40.0);
    let per_chip = queue_model_run(QueueModel::PerChip, 40.0);
    // Identical request outcomes: the timing model only changes clocks.
    assert_eq!(single.stats().host_writes, per_chip.stats().host_writes);
    assert_eq!(single.stats().gc_runs, per_chip.stats().gc_runs);
    let sum_service = per_chip.stats().busy_us;
    let makespan = per_chip.stats().makespan_us;
    assert!(
        makespan < sum_service,
        "chip overlap must compress the replay: makespan {makespan} vs serial {sum_service}"
    );
    assert!(
        per_chip.stats().makespan_us < single.stats().makespan_us,
        "per-chip replay finishes before the single-queue replay"
    );
    // Under saturating arrivals the single queue's waits dominate its
    // tail; overlap must strictly shrink it.
    let s99 = single.stats().write_latency.quantile_us(0.99);
    let p99 = per_chip.stats().write_latency.quantile_us(0.99);
    assert!(p99 < s99, "per-chip p99 {p99} vs single {s99}");
}

#[test]
fn per_chip_model_reports_utilization_per_group() {
    use crate::QueueModel;
    let dev = queue_model_run(QueueModel::PerChip, 40.0);
    let geo_groups = 4; // small_test: 4 chips x 1 plane
    let s = dev.stats();
    assert_eq!(s.chip_busy_us.len(), geo_groups + 1, "chips plus the host channel");
    let util = s.chip_utilization();
    assert!(s.chip_busy_us.iter().all(|&b| b > 0.0), "every chip did work");
    assert!(util.iter().all(|&u| (0.0..=1.0 + 1e-9).contains(&u)), "utilization is a ratio");
    // Occupancy never exceeds the wall clock on any single resource.
    for &b in &s.chip_busy_us {
        assert!(b <= s.makespan_us + 1e-6, "busy {b} vs makespan {}", s.makespan_us);
    }
}

#[test]
fn per_chip_idle_gc_charges_only_touched_chips() {
    use crate::workload::poisson_arrivals;
    use crate::QueueModel;
    let mut config = FtlConfig::small_test();
    config.idle_gc = true;
    config.queue_model = QueueModel::PerChip;
    let mut dev = Ssd::new(config, 3).unwrap();
    let info = dev.geometry_info();
    let n = (info.logical_pages * 3) as usize;
    let reqs = Workload::random_write(0.5).generate(&info, n, 5);
    dev.run_timed(&poisson_arrivals(&reqs, 6000.0, 1)).unwrap();
    let s = dev.stats();
    assert!(s.gc_runs > 0, "idle gaps must have triggered GC");
    assert!(s.idle_gc_us > 0.0);
    // Idle-GC occupancy lands on the chip clocks: total occupancy
    // exceeds foreground service alone.
    let occupancy: f64 = s.chip_busy_us.iter().sum();
    assert!(occupancy > 0.0);
}

#[test]
fn stats_track_host_operations() {
    let mut dev = ssd(OrganizationScheme::Random);
    dev.write(1).unwrap();
    dev.write(2).unwrap();
    dev.read(1).unwrap();
    dev.trim(2).unwrap();
    let s = dev.stats();
    assert_eq!(s.host_writes, 2);
    assert_eq!(s.host_reads, 1);
    assert_eq!(s.host_trims, 1);
    assert!(s.busy_us > 0.0);
}

fn apply(dev: &mut Ssd, req: &IoRequest) -> Result<()> {
    match req.op {
        IoOp::Write => dev.write(req.lpn).map(|_| ()),
        IoOp::Read => dev.read(req.lpn).map(|_| ()),
        IoOp::Trim => dev.trim(req.lpn),
    }
}

#[test]
fn injected_crash_halts_the_device_and_recovery_restores_the_exact_mapping() {
    use crate::recovery::CrashPoint;
    let mut config = FtlConfig::small_test();
    config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
    config.spor.checkpoint_interval = 8;
    config.spor.crash = Some(CrashPoint::from_seed(3, 4000));
    let mut dev = Ssd::new(config, 11).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
    let mut resume_at = None;
    for (i, req) in reqs.iter().enumerate() {
        match apply(&mut dev, req) {
            Ok(()) => {}
            Err(FtlError::PowerLoss) => {
                resume_at = Some(i);
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let crashed_at = resume_at.expect("the injected crash must fire inside 3x capacity");
    assert!(dev.has_crashed());
    // A halted device refuses every host op.
    assert!(matches!(dev.write(0), Err(FtlError::PowerLoss)));
    assert!(matches!(dev.read(0), Err(FtlError::PowerLoss)));
    // RAM state at the instant of the crash is the durability contract:
    // only acknowledged (programmed) writes are in the mapping.
    let ram: Vec<Option<PageAddr>> =
        (0..info.logical_pages).map(|l| dev.mapping.lookup(l)).collect();
    let ram_valid = dev.valid_pages();
    let report = dev.recover().unwrap();
    assert!(!dev.has_crashed());
    assert!(report.scanned_pages > 0, "dirty superblocks were scanned");
    assert_eq!(report.recovered_mappings, ram_valid as u64, "one mapping per valid page");
    for lpn in 0..info.logical_pages {
        assert_eq!(dev.mapping.lookup(lpn), ram[lpn as usize], "lpn {lpn}");
    }
    assert_eq!(dev.valid_pages(), ram_valid, "valid counters rebuilt");
    // Every recovered page is readable and the device keeps working.
    for lpn in 0..info.logical_pages {
        let got = dev.read(lpn).unwrap();
        assert_eq!(got.is_some(), ram[lpn as usize].is_some(), "lpn {lpn}");
    }
    for req in &reqs[crashed_at..] {
        apply(&mut dev, req).unwrap();
    }
    let s = dev.stats();
    assert_eq!(s.recovery_scan_pages, report.scanned_pages);
    assert_eq!(s.recovered_mappings, report.recovered_mappings);
    assert!(s.recovery_time_us > 0.0);
}

#[test]
fn recovery_on_a_healthy_device_is_lossless() {
    let mut dev = ssd(OrganizationScheme::Random);
    for lpn in 0..20 {
        dev.write(lpn).unwrap();
    }
    dev.flush().unwrap();
    dev.trim(3).unwrap();
    let ram: Vec<Option<PageAddr>> = (0..24).map(|l| dev.mapping.lookup(l)).collect();
    let report = dev.recover().unwrap();
    for (lpn, &before) in ram.iter().enumerate() {
        assert_eq!(dev.mapping.lookup(lpn as u64), before, "lpn {lpn}");
    }
    assert_eq!(report.recovered_mappings, 19, "20 writes minus one trim");
    assert_eq!(report.torn_writes_discarded, 0);
    assert_eq!(dev.read(3).unwrap(), None, "trim tombstone survives recovery");
}

#[test]
fn recovery_requires_spor() {
    let mut config = FtlConfig::small_test();
    config.spor.enabled = false;
    let mut dev = Ssd::new(config, 11).unwrap();
    dev.write(1).unwrap();
    assert!(matches!(dev.recover(), Err(FtlError::InvalidConfig { .. })));
}

#[test]
fn qos_classes_route_to_the_ranked_pool_ends() {
    // Under function-based placement, latency-critical and standard
    // writes must open fast superblocks while background writes share
    // the slow end with GC (§V-D generalized to host tenants).
    let mut dev = ssd(OrganizationScheme::QstrMed { candidates: 4 });
    dev.write_with_class(1, QosClass::LatencyCritical).unwrap();
    dev.write_with_class(2, QosClass::Standard).unwrap();
    assert_eq!(dev.stats().superblocks_assembled, (2, 0), "LC + standard are both fast");
    dev.write_with_class(3, QosClass::Background).unwrap();
    assert_eq!(dev.stats().superblocks_assembled, (2, 1), "background is slow");
    assert_eq!(dev.stats().host_writes, 3);
    assert_eq!(dev.stats().host_writes_by_class, [1, 1, 1]);
    // Each class owns its open superblock: more writes of the same
    // classes keep filling them instead of assembling new ones.
    dev.write_with_class(4, QosClass::LatencyCritical).unwrap();
    dev.write_with_class(5, QosClass::Background).unwrap();
    assert_eq!(dev.stats().superblocks_assembled, (2, 1));
    assert_eq!(dev.stats().host_writes_by_class, [2, 1, 2]);
    // All staged data is readable and survives a flush.
    dev.flush().unwrap();
    for lpn in 1..=5 {
        assert!(dev.read(lpn).unwrap().is_some(), "lpn {lpn}");
    }
    assert_eq!(dev.valid_pages(), 5);
}

#[test]
fn unified_placement_ignores_qos_class() {
    let mut config = FtlConfig::small_test();
    config.scheme = OrganizationScheme::QstrMed { candidates: 4 };
    config.placement = crate::config::PlacementPolicy::Unified;
    let mut dev = Ssd::new(config, 11).unwrap();
    dev.write_with_class(1, QosClass::LatencyCritical).unwrap();
    dev.write_with_class(2, QosClass::Standard).unwrap();
    dev.write_with_class(3, QosClass::Background).unwrap();
    // One shared fast superblock serves every class.
    assert_eq!(dev.stats().superblocks_assembled, (1, 0));
    assert_eq!(dev.stats().host_writes_by_class, [1, 1, 1]);
}

#[test]
fn plain_write_counts_as_standard_class() {
    let mut dev = ssd(OrganizationScheme::Random);
    dev.write(5).unwrap();
    dev.write(6).unwrap();
    assert_eq!(dev.stats().host_writes_by_class, [0, 2, 0]);
}

#[test]
fn crash_mid_run_discards_unacknowledged_staged_writes() {
    use crate::recovery::CrashPoint;
    let mut config = FtlConfig::small_test();
    config.spor.crash = Some(CrashPoint::from_seed(1, 200));
    let mut dev = Ssd::new(config, 11).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.9).generate(&info, info.logical_pages as usize, 5);
    for req in &reqs {
        match apply(&mut dev, req) {
            Ok(()) => {}
            Err(FtlError::PowerLoss) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    // The durability contract: writes still sitting in the staging
    // buffer at power loss were never acknowledged, so recovery must
    // reproduce exactly the RAM mapping — no phantom mappings, no
    // resurrection of staged data.
    let ram: Vec<Option<PageAddr>> =
        (0..info.logical_pages).map(|l| dev.mapping.lookup(l)).collect();
    dev.recover().unwrap();
    for lpn in 0..info.logical_pages {
        assert_eq!(dev.mapping.lookup(lpn), ram[lpn as usize], "lpn {lpn}");
    }
}
