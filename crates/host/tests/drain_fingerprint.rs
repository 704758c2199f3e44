//! The frontend's oracle contract: the event-driven drain (min-heap
//! arrivals, packed readiness mask, arena-backed records, SoA sample fold)
//! must reproduce the dispatch order, per-tenant stats and device stats
//! the original re-scanning stepper drain recorded, bit for bit — under
//! multi-tenant arbitration, bounded queues with backpressure, and both
//! queue models. Each case checks an FNV-1a fingerprint of all of it (see
//! `common/mod.rs`) against a constant recorded from that drain before it
//! was retired. `submit_traced_batched` must likewise build the streams
//! per-request `submit` calls would.

mod common;

use flash_model::FaultConfig;
use ftl::{
    poisson_arrivals, FtlConfig, GcBudget, IntegrityConfig, IoOp, IoRequest, ParityConfig,
    PatrolConfig, PatrolOrder, QosClass, QueueModel, Ssd, Workload,
};
use host::{Arbitration, HostFrontend, TenantSpec};

fn device(model: QueueModel) -> Ssd {
    let mut config = FtlConfig::small_test();
    config.queue_model = model;
    Ssd::new(config, 3).unwrap()
}

fn specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("db", QosClass::LatencyCritical).weight(4),
        TenantSpec::new("app", QosClass::Standard).weight(2).queue_depth(6),
        TenantSpec::new("scrub", QosClass::Background).queue_depth(2),
    ]
}

/// Three tenants with different rates and mixes; the scrub tenant's tiny
/// queue plus fast arrivals guarantees backpressure.
fn streams(dev: &Ssd) -> Vec<Vec<(f64, IoRequest)>> {
    let info = dev.geometry_info();
    let mut out = Vec::new();
    for (tenant, mean_us) in [(0u64, 120.0), (1, 300.0), (2, 40.0)] {
        let n = (info.logical_pages / 2) as usize;
        let mut reqs = Workload::random_write(0.5).generate(&info, n, tenant);
        for (i, r) in reqs.iter_mut().enumerate() {
            match i % 5 {
                2 => r.op = IoOp::Read,
                4 if i % 10 == 4 => r.op = IoOp::Trim,
                _ => {}
            }
        }
        out.push(poisson_arrivals(&reqs, mean_us, tenant + 7));
    }
    out
}

fn run_frontend(model: QueueModel, arb: Arbitration) -> HostFrontend {
    let dev = device(model);
    let streams = streams(&dev);
    let mut front = HostFrontend::new(dev, specs(), arb);
    for (tenant, stream) in streams.iter().enumerate() {
        front.submit(tenant, stream);
    }
    front.run().unwrap();
    assert!(front.drained());
    front
}

fn assert_pinned(front: &HostFrontend, pinned: u64, tag: &str) {
    let actual = common::frontend(front);
    assert_eq!(actual, pinned, "{tag}: fingerprint {actual:#018x} drifted from {pinned:#018x}");
}

#[test]
fn drain_matches_the_stepper_fingerprints() {
    const PINNED: [(QueueModel, Arbitration, u64); 4] = [
        (QueueModel::Single, Arbitration::RoundRobin, 0x89ee_499d_a57a_d257),
        (QueueModel::Single, Arbitration::WeightedRoundRobin, 0xbcd1_8310_9762_7b4d),
        (QueueModel::PerChip, Arbitration::RoundRobin, 0x5b0e_3f53_b51c_032b),
        (QueueModel::PerChip, Arbitration::WeightedRoundRobin, 0x5634_7985_891c_36ac),
    ];
    for (model, arb, pinned) in PINNED {
        let front = run_frontend(model, arb);
        assert!(front.tenant_stats(2).backpressured > 0, "{model:?} {arb:?}: must backpressure");
        assert_pinned(&front, pinned, &format!("{model:?} {arb:?}"));
    }
}

#[test]
fn sliced_gc_drain_matches_the_stepper_fingerprint() {
    // With a sliced budget the drain consults `gc_slice_pending()` and
    // masks readiness to latency-critical queues — the masking decision
    // points must line up dispatch for dispatch with the stepper drain's.
    let front = {
        let mut config = FtlConfig::small_test();
        config.queue_model = QueueModel::PerChip;
        config.idle_gc = true;
        config.gc_budget = GcBudget::Sliced { slice_us: 300.0 };
        let dev = Ssd::new(config, 3).unwrap();
        let info = dev.geometry_info();
        let mut streams = Vec::new();
        for (tenant, mean_us) in [(0u64, 120.0), (1, 300.0), (2, 40.0)] {
            // Writes-per-tenant beyond capacity so collection stays busy.
            let n = info.logical_pages as usize;
            let reqs = Workload::random_write(0.4).generate(&info, n, tenant);
            streams.push(poisson_arrivals(&reqs, mean_us, tenant + 7));
        }
        let mut front = HostFrontend::new(dev, specs(), Arbitration::WeightedRoundRobin);
        for (tenant, stream) in streams.iter().enumerate() {
            front.submit(tenant, stream);
        }
        front.run().unwrap();
        assert!(front.drained());
        front
    };
    assert!(front.device().stats().gc_slices > 0, "workload must exercise slices");
    assert_pinned(&front, 0x6ea3_10b3_8653_3d34, "sliced");
}

#[test]
fn patrol_active_drain_matches_the_stepper_fingerprint() {
    // Full integrity stack under multi-tenant arbitration: the drain must
    // reproduce every idle-gap patrol slice, every overdue-patrol ladder
    // payment (folded into gc_stall_us and the SLO ledgers), and every
    // reactive refresh — dispatch for dispatch, bit for bit.
    let front = {
        let mut config = FtlConfig::small_test();
        config.queue_model = QueueModel::PerChip;
        config.idle_gc = true;
        config.gc_budget = GcBudget::Sliced { slice_us: 300.0 };
        config.integrity = IntegrityConfig {
            track: true,
            retention_hours_per_us: 0.005,
            patrol: PatrolConfig::On {
                interval_us: 20_000.0,
                slice_us: 300.0,
                refresh_fraction: 0.5,
                order: PatrolOrder::SlowPoolFirst,
            },
        };
        let dev = Ssd::new(config, 3).unwrap();
        let info = dev.geometry_info();
        let mut streams = Vec::new();
        for (tenant, mean_us) in [(0u64, 120.0), (1, 300.0), (2, 40.0)] {
            let n = info.logical_pages as usize;
            let mut reqs = Workload::random_write(0.4).generate(&info, n, tenant);
            for (i, r) in reqs.iter_mut().enumerate() {
                if i % 5 == 2 {
                    r.op = IoOp::Read;
                }
            }
            streams.push(poisson_arrivals(&reqs, mean_us, tenant + 7));
        }
        let mut front = HostFrontend::new(dev, specs(), Arbitration::WeightedRoundRobin);
        for (tenant, stream) in streams.iter().enumerate() {
            front.submit(tenant, stream);
        }
        front.run().unwrap();
        assert!(front.drained());
        front
    };
    assert!(front.device().stats().patrol_scanned_pages > 0, "patrol: the regime must scan");
    assert_pinned(&front, 0x6a91_f02e_4005_087f, "patrol");
}

#[test]
fn active_parity_drain_matches_the_stepper_fingerprints() {
    // Parity on + faulty media under multi-tenant arbitration: stripe
    // rebuilds fire mid-drain and their emergency-GC slices land in
    // gc_stall_us, which the SLO frontends charge per tenant — so every
    // rebuild verdict and every stall bit must match the stepper drain's.
    let run = |parity: ParityConfig| {
        let mut config = FtlConfig::small_test();
        config.queue_model = QueueModel::PerChip;
        config.parity = parity;
        config.fault = FaultConfig {
            weak_block_prob: 0.15,
            weak_ber_multiplier: 150.0,
            page_type_ber_spread: 0.35,
            ..FaultConfig::default()
        };
        let dev = Ssd::new(config, 3).unwrap();
        let streams = streams(&dev);
        let mut front = HostFrontend::new(dev, specs(), Arbitration::WeightedRoundRobin);
        for (tenant, stream) in streams.iter().enumerate() {
            front.submit(tenant, stream);
        }
        front.run().unwrap();
        assert!(front.drained());
        front
    };
    let on = run(ParityConfig::On);
    let s = on.device().stats();
    assert!(s.uncorrectable_reads > 0, "parity: the media must produce uncorrectables");
    assert!(s.rebuild_reads > 0, "parity: rebuilds must fire");
    assert_pinned(&on, 0x67dd_6738_420f_9346, "parity on");
    // And the off switch is inert at this level too: an explicit
    // ParityConfig::Off frontend run over the same faulty media reads no
    // stripes.
    let off = run(ParityConfig::Off);
    assert_eq!(off.device().stats().rebuild_reads, 0, "parity off: no stripe reads");
    assert_pinned(&off, 0xa823_9c92_9d24_c733, "parity off");
}

#[test]
fn traced_submission_builds_the_per_request_streams() {
    // Interleave three tenants' requests in a deliberately shuffled order
    // with duplicate arrival times, then check the one-sort traced path
    // gives the same replay as one `submit` call per request (stats and
    // dispatch order pin the stream contents).
    let build = |per_request: bool| {
        let dev = device(QueueModel::Single);
        let info = dev.geometry_info();
        let mut traced = Vec::new();
        for i in 0..600u64 {
            let tenant = (i % 3) as u8;
            let lpn = (i * 17) % info.logical_pages;
            let line = format!("W,{lpn},1,{tenant}\n");
            let parsed = ftl::trace::parse_trace_tenants(line.as_bytes()).unwrap();
            // Coarse arrival grid: collisions across and within tenants.
            traced.push(((i % 50) as f64 * 100.0, parsed[0]));
        }
        let mut front = HostFrontend::new(dev, specs(), Arbitration::WeightedRoundRobin);
        if per_request {
            for &(arrival, t) in &traced {
                front.submit(t.tenant as usize, &[(arrival, t.request)]);
            }
        } else {
            front.submit_traced_batched(&traced);
        }
        front.run().unwrap();
        common::frontend(&front)
    };
    assert_eq!(build(true), build(false), "per-request and traced submission diverged");
}
