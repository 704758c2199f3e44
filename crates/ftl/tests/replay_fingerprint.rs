//! Pinned replay fingerprints.
//!
//! Each case replays a workload through the timed replay engine and checks
//! an FNV-1a fingerprint of the *entire* stat set — every counter, every
//! running float sum, every latency sample vector, the per-chip busy
//! vector — plus the page mapping (see `common/mod.rs`). The constants were
//! recorded from the original one-op-at-a-time stepper loop before it was
//! folded into the event-driven core, so that loop stays the oracle: a
//! single reassociated float add, skipped RNG draw or reordered histogram
//! sample flips a hash here.
//!
//! The crash case additionally pins the checkpoint sequence table and the
//! prefix latency cache: the device must crash, checkpoint and recover
//! exactly like the stepper did.

mod common;

use flash_model::FaultConfig;
use ftl::{
    poisson_arrivals, CrashPoint, FtlConfig, FtlError, GcBudget, IoOp, IoRequest, ParityConfig,
    QosClass, QueueModel, Ssd, Workload,
};

/// Same mixed open-loop workload as `timed_golden.rs`: 3x-capacity writes
/// with reads (hits and misses) and trims folded in, Poisson at 800 µs.
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

fn run(idle_gc: bool, model: QueueModel, budget: GcBudget) -> Ssd {
    let mut config = FtlConfig::small_test();
    config.idle_gc = idle_gc;
    config.queue_model = model;
    config.gc_budget = budget;
    let mut dev = Ssd::new(config, 3).unwrap();
    let timed = workload(&dev);
    dev.run_timed(&timed).unwrap();
    dev
}

fn assert_pinned(actual: u64, pinned: u64, tag: &str) {
    assert_eq!(actual, pinned, "{tag}: fingerprint {actual:#018x} drifted from {pinned:#018x}");
}

#[test]
fn replay_matches_the_stepper_fingerprints() {
    const PINNED: [(QueueModel, bool, u64); 4] = [
        (QueueModel::Single, false, 0x1017_7859_56f3_e9da),
        (QueueModel::Single, true, 0xd758_81d5_09f2_c9b6),
        (QueueModel::PerChip, false, 0x5614_a0a2_2f37_b14f),
        (QueueModel::PerChip, true, 0x6be6_2f6d_1615_a441),
    ];
    for (model, idle_gc, pinned) in PINNED {
        let dev = run(idle_gc, model, GcBudget::Unbounded);
        assert_pinned(common::device(&dev), pinned, &format!("{model:?} idle_gc={idle_gc}"));
    }
}

#[test]
fn sliced_gc_replay_matches_the_stepper_fingerprints() {
    // The sliced collector adds state the replay must keep exact: a parked
    // GcJob, slice/yield counters, the stall histogram, and the idle-gap
    // slice arm of the background hook.
    const PINNED: [(QueueModel, bool, u64); 4] = [
        (QueueModel::Single, false, 0xdc78_5015_11d0_c9d6),
        (QueueModel::Single, true, 0x3179_1d49_a777_b702),
        (QueueModel::PerChip, false, 0xc570_ca5d_8430_f62f),
        (QueueModel::PerChip, true, 0xfc8c_a05b_0127_8b78),
    ];
    for (model, idle_gc, pinned) in PINNED {
        let tag = format!("sliced {model:?} idle_gc={idle_gc}");
        let dev = run(idle_gc, model, GcBudget::Sliced { slice_us: 300.0 });
        assert!(dev.stats().gc_slices > 0, "{tag}: workload must exercise slices");
        assert_pinned(common::device(&dev), pinned, &tag);
    }
}

#[test]
fn active_parity_replay_matches_the_stepper_fingerprint() {
    // Parity changes the data layout (11-wide stripes + parity page), the
    // capacity export, and the read path (uncorrectable reads rebuild their
    // stripe and restage mid-run, charging rebuild_us/gc_stall_us) — and
    // the workload must actually exercise rebuilds, or the test proves
    // nothing.
    let mut config = FtlConfig::small_test();
    config.parity = ParityConfig::On;
    config.fault = FaultConfig {
        weak_block_prob: 0.15,
        weak_ber_multiplier: 150.0,
        page_type_ber_spread: 0.35,
        ..FaultConfig::default()
    };
    config.queue_model = QueueModel::PerChip;
    let mut dev = Ssd::new(config, 3).unwrap();
    let timed = workload(&dev);
    dev.run_timed(&timed).unwrap();
    assert!(dev.stats().uncorrectable_reads > 0, "media must produce uncorrectables");
    assert!(dev.stats().rebuild_reads > 0, "rebuilds must fire");
    assert_pinned(common::device(&dev), 0xc1da_fed5_4aba_74c9, "active parity");
}

#[test]
fn crash_and_recovery_match_the_stepper_fingerprint() {
    // Untimed drive with an injected power loss: the checkpoint sequence
    // table and prefix latency cache stay warm the whole time, and both
    // must be invisible — same crash op, same recovery report, same
    // rebuilt mapping, same post-recovery stats.
    let mut config = FtlConfig::small_test();
    config.spor.checkpoint_interval = 16;
    config.spor.crash = Some(CrashPoint::from_seed(42, 1500));
    let mut dev = Ssd::new(config, 11).unwrap();
    let info = dev.geometry_info();
    let reqs = Workload::random_write(0.5).generate(&info, (info.logical_pages * 3) as usize, 7);
    let mut resume = reqs.len();
    for (i, req) in reqs.iter().enumerate() {
        let r = match req.op {
            IoOp::Write => dev.write(req.lpn).map(|_| ()),
            IoOp::Read => dev.read(req.lpn).map(|_| ()),
            IoOp::Trim => dev.trim(req.lpn),
        };
        match r {
            Ok(()) => {}
            Err(FtlError::PowerLoss) => {
                resume = i;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(resume < reqs.len(), "the injected crash must fire");
    let report = dev.recover().unwrap();
    // Resume past the crash so the rebuilt sequence table is exercised by
    // further checkpoints, not just rebuilt.
    for req in &reqs[resume..] {
        match req.op {
            IoOp::Write => drop(dev.write(req.lpn).unwrap()),
            IoOp::Read => drop(dev.read(req.lpn).unwrap()),
            IoOp::Trim => dev.trim(req.lpn).unwrap(),
        }
    }
    let mut h = common::Fnv::default();
    h.u64(resume as u64);
    h.u64(report.scanned_pages);
    h.u64(report.recovered_mappings);
    h.u64(report.torn_writes_discarded);
    h.f64(report.scan_us);
    h.device(&dev);
    assert_pinned(h.finish(), 0x3d21_fd0a_f22a_2d65, "post-recovery");
}

#[test]
fn restarting_a_live_replay_keeps_its_latency_samples() {
    // `timed_begin` on a replay that is still live must fold it first,
    // exactly as `timed_end` would: every write keeps its sample.
    for model in [QueueModel::Single, QueueModel::PerChip] {
        let mut config = FtlConfig::small_test();
        config.queue_model = model;
        let mut dev = Ssd::new(config, 3).unwrap();
        dev.timed_begin();
        for lpn in 0..10 {
            dev.timed_step(lpn as f64 * 100.0, IoRequest::write(lpn), QosClass::Standard).unwrap();
        }
        dev.timed_begin();
        for lpn in 10..15 {
            dev.timed_step(lpn as f64 * 100.0, IoRequest::write(lpn), QosClass::Standard).unwrap();
        }
        dev.timed_end();
        let s = dev.stats();
        assert_eq!(s.host_writes, 15, "{model:?}");
        assert_eq!(s.write_latency.len() as u64, s.host_writes, "{model:?}: samples dropped");
        assert!(s.makespan_us > 0.0, "{model:?}: the folded replay's makespan is kept");
    }
}
