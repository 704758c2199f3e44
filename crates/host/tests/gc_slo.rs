//! Per-tenant GC SLO contract.
//!
//! Three properties: a window debt budget actually caps the collection
//! work charged to the tenant inside any window (up to one slice overrun);
//! a zero budget suppresses every ladder slice for that tenant while a
//! practically-unbounded one is bit-identical to having no SLO at all; and
//! the SLO path must reproduce the stepper oracle's recorded fingerprint
//! — same allowance decisions, same debt, same dispatch order.

mod common;

use ftl::{poisson_arrivals, FtlConfig, GcBudget, IoRequest, QosClass, QueueModel, Ssd};
use host::{Arbitration, HostFrontend, TenantSpec};

const SLICE_US: f64 = 300.0;

fn gc_active_device() -> Ssd {
    let mut config = FtlConfig::small_test();
    config.queue_model = QueueModel::PerChip;
    config.idle_gc = true;
    config.gc_budget = GcBudget::Sliced { slice_us: SLICE_US };
    // Wide spare pool and a watermark band well above the emergency floor
    // (`assemblable <= 1`), so collection pressure stays on the budgeted
    // ladder — the path the SLO governs — instead of unbudgeted emergency
    // reclaims that would blow through any window bound.
    config.overprovision = 0.45;
    config.gc_low_watermark = 3;
    config.gc_high_watermark = 5;
    Ssd::new(config, 3).unwrap()
}

/// Overwrite-heavy three-tenant load: each stream writes the whole logical
/// space once, so collection stays busy for the back half of the run.
fn streams(dev: &Ssd) -> Vec<Vec<(f64, IoRequest)>> {
    let info = dev.geometry_info();
    let mut out = Vec::new();
    for (tenant, mean_us) in [(0u64, 120.0), (1, 300.0), (2, 40.0)] {
        let n = info.logical_pages as usize;
        let reqs = ftl::Workload::random_write(0.4).generate(&info, n, tenant);
        out.push(poisson_arrivals(&reqs, mean_us, tenant + 7));
    }
    out
}

fn run(specs: Vec<TenantSpec>) -> HostFrontend {
    let dev = gc_active_device();
    let streams = streams(&dev);
    let mut front = HostFrontend::new(dev, specs, Arbitration::WeightedRoundRobin);
    for (tenant, stream) in streams.iter().enumerate() {
        front.submit(tenant, stream);
    }
    front.run().unwrap();
    assert!(front.drained());
    front
}

fn specs_with_slo(slo: Option<(f64, f64)>) -> Vec<TenantSpec> {
    let mut std_spec = TenantSpec::new("app", QosClass::Standard).weight(2).queue_depth(16);
    if let Some((debt, window)) = slo {
        std_spec = std_spec.gc_slo(debt, window);
    }
    vec![
        TenantSpec::new("db", QosClass::LatencyCritical).weight(4).queue_depth(8),
        std_spec,
        TenantSpec::new("scrub", QosClass::Background).queue_depth(32),
    ]
}

#[test]
fn window_budget_caps_per_window_debt() {
    // Budget two slices of debt per 20 ms window — tight enough that the
    // standard tenant must get throttled while collection is backlogged.
    let front = run(specs_with_slo(Some((2.0 * SLICE_US, 20_000.0))));
    assert!(front.device().stats().gc_slices > 0, "workload must exercise slices");
    let s = front.tenant_stats(1);
    assert!(s.gc_debt_us > 0.0, "standard tenant must be charged collection debt");
    assert!(s.gc_throttled > 0, "a tight budget must throttle some dispatches");
    // A slice yields only between word-line steps and a single super
    // word-line relocation can cost several budgets' worth, so the last
    // allowed dispatch of a window may overrun by up to the worst single
    // slice the device ran. Beyond that only the emergency floor (exempt
    // from the SLO) could push the peak — and this config's wide spare
    // pool keeps the run off it.
    let worst_slice = front.device().stats().gc_slice_us.max_us();
    assert!(
        s.gc_window_peak_us <= 2.0 * SLICE_US + worst_slice,
        "window peak {} exceeds budget {} + worst slice {}",
        s.gc_window_peak_us,
        2.0 * SLICE_US,
        worst_slice
    );
    // Tenants without an SLO are never tracked or throttled.
    for k in [0, 2] {
        let t = front.tenant_stats(k);
        assert_eq!(t.gc_debt_us, 0.0, "{}: no SLO, no debt tracking", t.name);
        assert_eq!(t.gc_throttled, 0, "{}: no SLO, never throttled", t.name);
    }
}

#[test]
fn zero_budget_suppresses_ladder_slices_and_huge_budget_changes_nothing() {
    let baseline = run(specs_with_slo(None));
    assert!(baseline.device().stats().gc_yield_count > 0, "ladder slices must park");

    // A practically-unbounded budget must leave every stat bit-identical
    // to the no-SLO run — the cap only binds once a window can fill.
    let huge = run(specs_with_slo(Some((1e18, 1e9))));
    assert_eq!(baseline.dispatch_log(), huge.dispatch_log(), "huge budget moved dispatches");
    let (b, h) = (baseline.device().stats(), huge.device().stats());
    assert_eq!(b.gc_slices, h.gc_slices);
    assert_eq!(b.gc_stall_us.to_bits(), h.gc_stall_us.to_bits());
    assert_eq!(b.busy_us.to_bits(), h.busy_us.to_bits());
    assert!(huge.tenant_stats(1).gc_debt_us > 0.0, "debt is tracked even when never binding");
    assert_eq!(huge.tenant_stats(1).gc_throttled, 0);

    // A zero budget pins the standard tenant's allowance at zero: every
    // backlogged dispatch is throttled and the only debt it can accrue is
    // the emergency floor's.
    let starved = run(specs_with_slo(Some((0.0, 1e9))));
    let s = starved.tenant_stats(1);
    assert!(s.gc_throttled > 0, "zero budget must throttle");
    assert!(
        s.gc_debt_us < baseline.device().stats().gc_stall_us,
        "starved tenant cannot carry the whole collection load"
    );
}

#[test]
fn slo_path_matches_the_stepper_fingerprint() {
    let front = run(specs_with_slo(Some((2.0 * SLICE_US, 20_000.0))));
    assert!(front.tenant_stats(1).gc_debt_us > 0.0, "slo: the SLO tenant must carry debt");
    let actual = common::frontend(&front);
    assert_eq!(actual, 0xa1fd_a0cf_2c94_e7a0, "slo: fingerprint {actual:#018x} drifted");
}
