//! `fleet_qos`: the `repro fleet` shape. A sharded multi-user population
//! (Zipf footprints, Pareto op counts, bursts, diurnal swing) over GC-active
//! devices on the batched engine with per-chip clocks, sliced GC and
//! QSTR-MED, each behind the three-tenant WRR frontend, replayed by
//! `run_fleet` with one worker per core. One op is one completed host
//! command. Patrol, parity and faults are off: this workload is their
//! control.

use crate::paper_tables::probe_layers;
use crate::trace::{median, quantile, ratio, secs, Tracer, ROOT};
use crate::{cores, repeat, report_rounds, Args, Report, SimValue, HELDOUT_SEED};
use fleet::{run_fleet, FleetConfig, FleetReport, FleetWorkload};
use ftl::{
    EngineMode, FtlConfig, GcBudget, LatencyHistogram, OrganizationScheme, QosClass, QueueModel,
    Ssd, SsdStats,
};
use host::{Arbitration, HostFrontend, TenantSpec, TenantStats};
use std::time::Instant;

/// Aggregate mean gap between arrivals on one device, µs (as `repro
/// fleet`): busy enough that queueing shows, below saturation.
const DEVICE_GAP_US: f64 = 900.0;

/// Mean ops per user (as `repro fleet`).
const OPS_PER_USER: f64 = 4.0;

/// Mirrors the fleet runner's per-device seed derivation, so the traced
/// per-device replay simulates the same devices as `run_fleet`.
const DEVICE_SEED_SALT: u64 = 0x4445_5649_4345_5f53;

fn size(tiny: bool) -> (u64, usize) {
    if tiny {
        (4_000, 2)
    } else {
        (100_000, 8)
    }
}

fn device_config() -> FtlConfig {
    FtlConfig {
        scheme: OrganizationScheme::QstrMed { candidates: 4 },
        queue_model: QueueModel::PerChip,
        engine: EngineMode::Batched,
        idle_gc: true,
        gc_budget: GcBudget::Sliced { slice_us: 300.0 },
        overprovision: 0.45,
        gc_low_watermark: 3,
        gc_high_watermark: 5,
        ..FtlConfig::small_test()
    }
}

fn fleet_config(seed: u64, tiny: bool, workers: usize) -> FleetConfig {
    let (users, devices) = size(tiny);
    let mut workload = FleetWorkload::new(users, devices);
    workload.mean_ops_per_user = OPS_PER_USER;
    workload.mean_gap_us = DEVICE_GAP_US * (users as f64 / devices as f64).max(1.0);
    workload.start_spread_us = workload.mean_gap_us * OPS_PER_USER;
    FleetConfig {
        device_config: device_config(),
        workload,
        fleet_seed: seed,
        arbitration: Arbitration::WeightedRoundRobin,
        workers,
    }
}

/// The three-tenant roster of every fleet device (as the fleet runner).
fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("lc", QosClass::LatencyCritical).weight(4).queue_depth(8),
        TenantSpec::new("std", QosClass::Standard).weight(2).queue_depth(16),
        TenantSpec::new("bg", QosClass::Background).weight(1).queue_depth(32),
    ]
}

fn logical_pages(config: &FleetConfig) -> u64 {
    Ssd::new(config.device_config.clone(), 0)
        .expect("the benchmark device configuration is valid")
        .geometry_info()
        .logical_pages
}

/// Set-up: the configuration plus every device's input stream, generated
/// so the run can check that every generated command completed.
fn setup(seed: u64, tiny: bool) -> (FleetConfig, u64) {
    let config = fleet_config(seed, tiny, cores());
    let pages = logical_pages(&config);
    let generated = (0..config.workload.devices)
        .map(|d| config.workload.device_stream(seed, d, pages).len() as u64)
        .sum();
    (config, generated)
}

/// Bit fingerprint of a fleet report: everything the reduction produces.
fn fingerprint(r: &FleetReport) -> Vec<u64> {
    let mut fp = vec![
        r.total_commands,
        r.p99_us.to_bits(),
        r.p999_us.to_bits(),
        r.p9999_us.to_bits(),
        r.max_us.to_bits(),
        r.max_device_p99_us.to_bits(),
        r.median_device_p99_us.to_bits(),
    ];
    for d in &r.devices {
        fp.extend([
            d.completed,
            d.p99_us.to_bits(),
            d.backpressured,
            d.gc_slices,
            d.makespan_us.to_bits(),
        ]);
    }
    fp
}

/// What the checks and metrics need of a `FleetReport`, so a round's
/// report is dropped before the next round allocates its own.
struct FleetSummary {
    total_commands: u64,
    p999_us: f64,
    samples: u64,
}

impl FleetSummary {
    fn of(r: &FleetReport) -> Self {
        FleetSummary {
            total_commands: r.total_commands,
            p999_us: r.p999_us,
            samples: r.latency.len() as u64,
        }
    }
}

/// The device counters the metrics use; the stats' histograms stay behind.
struct Counters {
    host_writes: f64,
    device_ops: f64,
    gc_relocations: f64,
    extra_program_us: f64,
    superwl_programs: f64,
    queue_wait_us: f64,
    gc_stall_us: f64,
    chip_util: Vec<f64>,
}

impl Counters {
    fn of(s: &SsdStats) -> Self {
        // The last `chip_busy_us` entry is the host channel, not a chip.
        let mut chip_util = s.chip_utilization();
        chip_util.pop();
        Counters {
            host_writes: s.host_writes as f64,
            device_ops: (s.host_writes + s.host_reads + s.host_trims) as f64,
            gc_relocations: s.gc_relocations as f64,
            extra_program_us: s.extra_program_us,
            superwl_programs: s.superwl_programs as f64,
            queue_wait_us: s.queue_wait_us,
            gc_stall_us: s.gc_stall_us,
            chip_util,
        }
    }
}

/// One device replayed through the public calls `run_fleet` makes.
struct DeviceRun {
    counters: Counters,
    tenants: Vec<TenantStats>,
    ops: u64,
}

/// Host time of one device's layer calls, ns.
#[derive(Debug, Default, Clone, Copy)]
struct DeviceTiming {
    total: u64,
    gen: u64,
    admit: u64,
    run: u64,
    fold: u64,
}

fn device_seed(fleet_seed: u64, device: usize) -> u64 {
    (fleet_seed ^ DEVICE_SEED_SALT)
        .wrapping_add((device as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Replays device `d`, timing each layer call inside `parent`.
fn replay_device(
    config: &FleetConfig,
    d: usize,
    tracer: &mut Tracer,
    parent: u32,
) -> ftl::Result<(DeviceRun, DeviceTiming)> {
    let key = d as u64;
    let id = tracer.open("fleet.device", parent, key);
    let (ssd, _) = tracer.time("ftl.new", id, key, || {
        Ssd::new(config.device_config.clone(), device_seed(config.fleet_seed, d))
    });
    let ssd = ssd?;
    let pages = ssd.geometry_info().logical_pages;
    let (stream, gen) = tracer.time("fleet.device_stream", id, key, || {
        config.workload.device_stream(config.fleet_seed, d, pages)
    });
    let mut front = HostFrontend::new(ssd, tenants(), config.arbitration);
    let ((), admit) =
        tracer.time("host.submit_traced_batched", id, key, || front.submit_traced_batched(&stream));
    let (res, run) = tracer.time("host.run", id, key, || front.run());
    res?;
    let all = front.all_stats();
    let (_, fold) = tracer.time("fleet.fold", id, key, || {
        LatencyHistogram::fold(all.iter().flat_map(|t| [&t.write_latency, &t.read_latency]))
    });
    let tenants: Vec<TenantStats> = all.into_iter().cloned().collect();
    let total = tracer.close(id);
    let run_out = DeviceRun {
        counters: Counters::of(front.device().stats()),
        tenants,
        ops: stream.len() as u64,
    };
    Ok((run_out, DeviceTiming { total, gen, admit, run, fold }))
}

/// Replays every device one after another (spans under one root).
fn replay_fleet(
    config: &FleetConfig,
    tracer: &mut Tracer,
    round: u64,
) -> ftl::Result<(Vec<DeviceRun>, Vec<DeviceTiming>, f64)> {
    let root = tracer.open("fleet.serial_replay", ROOT, round);
    let t = Instant::now();
    let mut runs = Vec::new();
    let mut timings = Vec::new();
    for d in 0..config.workload.devices {
        let (r, timing) = replay_device(config, d, tracer, root)?;
        runs.push(r);
        timings.push(timing);
    }
    let s = secs(t);
    tracer.close(root);
    Ok((runs, timings, s))
}

/// Simulated results only the per-device replay can see: the device stats
/// and the write/read split that `FleetReport` folds away.
fn device_sims(runs: &[DeviceRun], report: &FleetSummary) -> Vec<SimValue> {
    let writes = LatencyHistogram::fold(
        runs.iter().flat_map(|r| r.tenants.iter().map(|t| &t.write_latency)),
    );
    let reads =
        LatencyHistogram::fold(runs.iter().flat_map(|r| r.tenants.iter().map(|t| &t.read_latency)));
    let sum = |f: fn(&Counters) -> f64| runs.iter().map(|r| f(&r.counters)).sum::<f64>();
    let host_writes = sum(|c| c.host_writes);
    let (nw, nr) = (writes.len() as u64, reads.len() as u64);
    let all = report.samples;
    vec![
        SimValue {
            name: "sim_extra_pgm_us",
            value: ratio(sum(|c| c.extra_program_us), sum(|c| c.superwl_programs)),
            unit: "sim_us",
            samples: sum(|c| c.superwl_programs) as u64,
        },
        SimValue {
            name: "sim_write_p50_us",
            value: writes.quantile_us(0.5),
            unit: "sim_us",
            samples: nw,
        },
        SimValue {
            name: "sim_write_p99_us",
            value: writes.quantile_us(0.99),
            unit: "sim_us",
            samples: nw,
        },
        SimValue { name: "sim_write_samples", value: nw as f64, unit: "count", samples: nw },
        SimValue {
            name: "sim_read_p50_us",
            value: reads.quantile_us(0.5),
            unit: "sim_us",
            samples: nr,
        },
        SimValue {
            name: "sim_read_p99_us",
            value: reads.quantile_us(0.99),
            unit: "sim_us",
            samples: nr,
        },
        SimValue { name: "sim_read_samples", value: nr as f64, unit: "count", samples: nr },
        SimValue { name: "sim_p999_us", value: report.p999_us, unit: "sim_us", samples: all },
        SimValue { name: "sim_all_samples", value: all as f64, unit: "count", samples: all },
        SimValue {
            name: "sim_waf",
            value: ratio(host_writes + sum(|c| c.gc_relocations), host_writes),
            unit: "ratio",
            samples: host_writes as u64,
        },
    ]
}

/// Checks the per-device replay against `run_fleet`'s report.
fn check_replay(report: &mut Report, runs: &[DeviceRun], fleet: &FleetSummary, generated: u64) {
    let ops: u64 = runs.iter().map(|r| r.ops).sum();
    let completed: u64 = runs.iter().flat_map(|r| &r.tenants).map(|t| t.completed).sum();
    report.check(
        ops == generated,
        format!("replay streams hold {ops} commands, set-up generated {generated}"),
    );
    report.check(
        completed == fleet.total_commands,
        format!("replay completed {completed} commands, run_fleet {}", fleet.total_commands),
    );
    let folded = LatencyHistogram::fold(
        runs.iter().flat_map(|r| &r.tenants).flat_map(|t| [&t.write_latency, &t.read_latency]),
    );
    report.check(
        folded.quantile_us(0.999).to_bits() == fleet.p999_us.to_bits(),
        "per-device replay p999 differs from run_fleet's",
    );
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let fleet_or_fail =
        |c: &FleetConfig| run_fleet(c).expect("the fleet workload fits the devices");
    if !args.trace {
        let mut last = None;
        let rounds = repeat(
            args.seconds,
            || setup(args.seed, args.tiny),
            |(config, generated)| {
                let t = Instant::now();
                let fleet = fleet_or_fail(&config);
                let s = secs(t);
                report.check(
                    fleet.total_commands == generated,
                    format!(
                        "run_fleet completed {} commands, set-up generated {generated}",
                        fleet.total_commands
                    ),
                );
                let fp = fingerprint(&fleet);
                let ops = fleet.total_commands;
                last = Some((config, generated, FleetSummary::of(&fleet)));
                (vec![(ops, s)], (Vec::new(), fp))
            },
        );
        // The device stats behind the simulated results come from one
        // untimed per-device replay of the same fleet.
        let (config, generated, fleet) = last.expect("at least one round ran");
        let (runs, _, _) = replay_fleet(&config, &mut Tracer::new(), 0)
            .expect("the fleet workload fits the devices");
        check_replay(report, &runs, &fleet, generated);
        report_rounds(report, &rounds);
        report.add_sim("", &device_sims(&runs, &fleet));
        return;
    }

    let (config, generated) = setup(args.seed, args.tiny);
    let workers = cores().min(config.workload.devices).max(1);
    let t = Instant::now();
    let parallel = fleet_or_fail(&config);
    let parallel_s = secs(t);
    let t = Instant::now();
    let serial = fleet_or_fail(&FleetConfig { workers: 1, ..config.clone() });
    let serial_s = secs(t);
    report.check(
        fingerprint(&parallel) == fingerprint(&serial),
        format!("FleetReport differs between 1 and {workers} workers"),
    );
    report.check(
        parallel.total_commands == generated,
        "run_fleet completed fewer commands than generated",
    );
    report.attempted += parallel.total_commands + serial.total_commands;
    let held_samples: usize =
        parallel.devices.iter().map(|d| d.latency.len()).sum::<usize>() + parallel.latency.len();
    report.add(
        "fleet.samples_mb",
        held_samples as f64 * 8.0 / 1e6,
        "MB",
        "lower",
        format!("{held_samples} samples held by the FleetReport"),
    );

    let mut timings: Vec<DeviceTiming> = Vec::new();
    let mut traced_s = Vec::new();
    let mut first: Option<Vec<DeviceRun>> = None;
    while traced_s.is_empty() || traced_s.iter().sum::<f64>() < args.seconds {
        let (runs, t, s) = replay_fleet(&config, tracer, traced_s.len() as u64)
            .expect("the fleet workload fits the devices");
        check_replay(report, &runs, &FleetSummary::of(&parallel), generated);
        report.attempted += runs.iter().map(|r| r.ops).sum::<u64>();
        traced_s.push(s);
        timings.extend(t);
        first.get_or_insert(runs);
    }
    let runs = first.expect("at least one traced round ran");
    report.add_sim("", &device_sims(&runs, &FleetSummary::of(&parallel)));
    layer_metrics(report, &runs, &timings, traced_s.len(), parallel_s, workers);
    report.add(
        "trace.overhead_pct",
        (median(&traced_s) / serial_s - 1.0) * 100.0,
        "%",
        "lower",
        format!(
            "traced serial replay (median of {}) vs untraced run_fleet at 1 worker",
            traced_s.len()
        ),
    );
    probe_layers(&config.device_config.flash, args.seed, report, tracer);

    let (held_config, _) = setup(HELDOUT_SEED, args.tiny);
    let held = fleet_or_fail(&held_config);
    let (held_runs, _, _) = replay_fleet(&held_config, &mut Tracer::new(), 0)
        .expect("the fleet workload fits the devices");
    let keep =
        ["sim_extra_pgm_us", "sim_write_p99_us", "sim_read_p99_us", "sim_p999_us", "sim_waf"];
    let sims: Vec<SimValue> = device_sims(&held_runs, &FleetSummary::of(&held))
        .into_iter()
        .filter(|v| keep.contains(&v.name))
        .collect();
    report.add_sim("heldout.", &sims);
}

/// The `host`, `fleet` and `ftl` per-layer metrics of the traced replays.
fn layer_metrics(
    report: &mut Report,
    runs: &[DeviceRun],
    timings: &[DeviceTiming],
    rounds: usize,
    parallel_s: f64,
    workers: usize,
) {
    let ops: u64 = runs.iter().map(|r| r.ops).sum::<u64>() * rounds as u64;
    let per_op =
        |f: fn(&DeviceTiming) -> u64| ratio(timings.iter().map(f).sum::<u64>() as f64, ops as f64);
    let base = format!("{ops} commands");
    report.add("fleet.gen_ns_per_op", per_op(|t| t.gen), "ns", "lower", base.clone());
    report.add("host.admit_ns_per_op", per_op(|t| t.admit), "ns", "lower", base.clone());
    report.add("host.run_ns_per_op", per_op(|t| t.run), "ns", "lower", base.clone());
    let fold_ms = timings.iter().map(|t| t.fold).sum::<u64>() as f64 / 1e6 / rounds as f64;
    report.add("fleet.fold_ms", fold_ms, "ms", "lower", "device folds per replay");
    let device_s: Vec<f64> = timings.iter().map(|t| t.total as f64 / 1e9).collect();
    let mean = device_s.iter().sum::<f64>() / device_s.len() as f64;
    let max = quantile(&mut device_s.clone(), 1.0);
    report.add(
        "fleet.device_s.max_over_mean",
        ratio(max, mean),
        "ratio",
        "lower",
        format!("{} device replays", device_s.len()),
    );
    let sum_per_round = device_s.iter().sum::<f64>() / rounds as f64;
    report.add(
        "fleet.parallel_eff",
        sum_per_round / (parallel_s * workers as f64),
        "ratio",
        "higher",
        format!("{workers} workers"),
    );

    let tenants: Vec<&TenantStats> = runs.iter().flat_map(|r| &r.tenants).collect();
    let completed: u64 = tenants.iter().map(|t| t.completed).sum();
    let backpressured: u64 = tenants.iter().map(|t| t.backpressured).sum();
    report.add(
        "host.backpressure_ratio",
        ratio(backpressured as f64, completed as f64),
        "ratio",
        "lower",
        format!("{completed} commands"),
    );
    for (label, qos) in [
        ("lc", QosClass::LatencyCritical),
        ("std", QosClass::Standard),
        ("bg", QosClass::Background),
    ] {
        let class: Vec<&&TenantStats> = tenants.iter().filter(|t| t.qos == qos).collect();
        let n: u64 = class.iter().map(|t| t.completed).sum();
        let wait: f64 = class.iter().map(|t| t.queue_wait_us).sum();
        report.add(
            format!("host.sim_wait_us.{label}"),
            ratio(wait, n as f64),
            "sim_us",
            "lower",
            format!("{n} commands"),
        );
    }

    let sum = |f: fn(&Counters) -> f64| runs.iter().map(|r| f(&r.counters)).sum::<f64>();
    let writes = sum(|c| c.host_writes);
    let device_ops = sum(|c| c.device_ops);
    report.add(
        "ftl.gc_relocations_per_write",
        ratio(sum(|c| c.gc_relocations), writes),
        "ratio",
        "lower",
        format!("{writes} writes"),
    );
    report.add(
        "ftl.sim_queue_wait_us_mean",
        ratio(sum(|c| c.queue_wait_us), device_ops),
        "sim_us",
        "lower",
        format!("{device_ops} device commands"),
    );
    report.add(
        "ftl.sim_gc_stall_us_per_write",
        ratio(sum(|c| c.gc_stall_us), writes),
        "sim_us",
        "lower",
        format!("{writes} writes"),
    );
    let utils: Vec<f64> = runs.iter().flat_map(|r| r.counters.chip_util.iter().copied()).collect();
    report.add(
        "ftl.sim_chip_util_mean",
        ratio(utils.iter().sum(), utils.len() as f64),
        "ratio",
        "lower",
        format!("{} chip groups", utils.len()),
    );
}
