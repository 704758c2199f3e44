//! `device_aging`: one aged device on the stepper / single-queue path that
//! `repro integrity` and `repro parity` run. QSTR-MED, sliced GC (also in
//! idle gaps), superpage parity, slow-pool-first patrol and retention aging
//! over page-granular faults in the `repro parity` shape. A sequential fill
//! is set-up; the timed phase is an open-loop read-heavy stream (about 60 %
//! reads of live pages) at a fixed simulated gap, driven op by op through
//! `timed_begin` / `timed_step` / `timed_end`. One op is one `timed_step`.

use crate::paper_tables::probe_layers;
use crate::trace::{median, quantile, ratio, secs, splitmix64, Span, Tracer, ROOT};
use crate::{repeat, report_rounds, Args, Report, SimRound, SimValue, HELDOUT_SEED};
use flash_model::{FaultConfig, FlashConfig, RetryModel, VariationConfig};
use ftl::{
    FtlConfig, GcBudget, IntegrityConfig, IoOp, IoRequest, OrganizationScheme, ParityConfig,
    PatrolConfig, PatrolOrder, QosClass, Ssd, SsdStats,
};
use std::time::Instant;

/// Simulated gap between arrivals, µs: several times the mean service
/// time, so the queue stays stable and patrol gets idle time.
const GAP_US: f64 = 1000.0;

/// Reads per 256 ops (about 60 %).
const READS_PER_256: u64 = 154;

/// Retention hours per µs of device clock: enough that pages age past the
/// retry ladder within a round, so refresh, rebuild and patrol all work.
const RETENTION_H_PER_US: f64 = 0.00002;

/// Traced steps a run keeps at most: enough for every step-class
/// percentile, and a bound on the traced run's memory.
const TRACED_STEPS: usize = 1_000_000;

/// A second-half write p99 this many times the first half's is a growing
/// backlog, not a steady state.
const BACKLOG_FACTOR: f64 = 2.0;

fn steps(tiny: bool) -> usize {
    if tiny {
        20_000
    } else {
        100_000
    }
}

/// The device: `FtlConfig::small_test()` with its default engine and queue
/// model, plus the integrity, parity and fault settings above.
pub fn config() -> FtlConfig {
    let base = FtlConfig::small_test();
    FtlConfig {
        flash: FlashConfig {
            geometry: base.flash.geometry.clone(),
            variation: VariationConfig {
                read_block_sigma_us: 16.0,
                read_pgm_corr: 0.8,
                ..VariationConfig::default()
            },
        },
        scheme: OrganizationScheme::QstrMed { candidates: 4 },
        gc_budget: GcBudget::Sliced { slice_us: 300.0 },
        idle_gc: true,
        parity: ParityConfig::On,
        // Weak blocks only: block kills would retire a small device's
        // blocks faster than a long run can afford.
        fault: FaultConfig {
            weak_block_prob: 0.08,
            weak_ber_multiplier: 110.0,
            page_type_ber_spread: 0.6,
            ..FaultConfig::default()
        },
        retry: RetryModel { retry_step_us: 4.0, ..RetryModel::default() },
        integrity: IntegrityConfig {
            track: true,
            retention_hours_per_us: RETENTION_H_PER_US,
            patrol: PatrolConfig::On {
                interval_us: 20_000.0,
                slice_us: 200.0,
                refresh_fraction: 0.5,
                order: PatrolOrder::SlowPoolFirst,
            },
        },
        ..base
    }
}

/// A preconditioned device and its request stream.
struct Input {
    ssd: Ssd,
    requests: Vec<IoRequest>,
    /// Stats after the fill: the timed phase is measured as deltas.
    base: SsdStats,
}

fn setup(seed: u64, tiny: bool) -> ftl::Result<Input> {
    let mut ssd = Ssd::new(config(), seed)?;
    let n = ssd.geometry_info().logical_pages;
    for lpn in 0..n {
        ssd.write(lpn)?;
    }
    let mut rng = seed ^ 0x6167_696e_675f_7772; // "aging_wr"
    let requests = (0..steps(tiny))
        .map(|_| {
            let x = splitmix64(&mut rng);
            let lpn = (x >> 8) % n;
            if x & 0xff < READS_PER_256 {
                IoRequest::read(lpn)
            } else {
                IoRequest::write(lpn)
            }
        })
        .collect();
    let base = ssd.stats().clone();
    Ok(Input { ssd, requests, base })
}

/// Host time of one traced `timed_step`, and which background work it did.
#[derive(Debug, Clone, Copy)]
struct Step {
    ns: u64,
    op: IoOp,
    gc: bool,
    patrol: bool,
    rebuild: bool,
}

/// Counters whose advance classifies a step.
fn marks(s: &SsdStats) -> [u64; 3] {
    [s.gc_slices + s.gc_relocations, s.patrol_scanned_pages, s.rebuild_reads]
}

/// Runs the timed phase; with a tracer, times every step and, if `spans`,
/// records its span. Returns the step errors and timed seconds.
fn replay(
    input: &mut Input,
    mut trace: Option<(&mut Tracer, &mut Vec<Step>)>,
    spans: bool,
) -> (u64, f64) {
    let mut errors = 0;
    let ssd = &mut input.ssd;
    let round = match trace.as_mut() {
        Some((t, _)) if spans => t.open("ftl.timed_phase", ROOT, 0),
        _ => ROOT,
    };
    let t = Instant::now();
    ssd.timed_begin();
    for (i, &r) in input.requests.iter().enumerate() {
        let arrival = i as f64 * GAP_US;
        match trace.as_mut() {
            None => {
                if ssd.timed_step(arrival, r, QosClass::Standard).is_err() {
                    errors += 1;
                }
            }
            Some((tracer, steps)) => {
                let before = marks(ssd.stats());
                let start_ns = tracer.now_ns();
                let res = ssd.timed_step(arrival, r, QosClass::Standard);
                let end_ns = tracer.now_ns();
                let after = marks(ssd.stats());
                errors += u64::from(res.is_err());
                if round != ROOT {
                    tracer.push(Span {
                        name: "ftl.timed_step",
                        parent: round,
                        key: i as u64,
                        start_ns,
                        end_ns,
                    });
                }
                steps.push(Step {
                    ns: end_ns - start_ns,
                    op: r.op,
                    gc: after[0] > before[0],
                    patrol: after[1] > before[1],
                    rebuild: after[2] > before[2],
                });
            }
        }
    }
    ssd.timed_end();
    let s = secs(t);
    if let Some((tracer, _)) = trace.filter(|_| round != ROOT) {
        tracer.close(round);
    }
    (errors, s)
}

/// Simulated results of the timed phase, the output checks, and the
/// regime guard.
fn finish(input: &mut Input, errors: u64, report: &mut Report) -> SimRound {
    let (reads, writes) = input.requests.iter().fold((0u64, 0u64), |(r, w), q| match q.op {
        IoOp::Read => (r + 1, w),
        _ => (r, w + 1),
    });
    let b = &input.base;
    let s = input.ssd.stats().clone();
    report.check(errors == 0, format!("{errors} timed_step calls returned Err"));
    report
        .check(s.host_reads - b.host_reads == reads, "host read counter differs from reads issued");
    report.check(
        s.host_writes - b.host_writes == writes,
        "host write counter differs from writes issued",
    );
    report.check(s.rebuilds_ok > b.rebuilds_ok, "regime: no parity rebuild succeeded");
    report.check(s.patrol_scanned_pages > b.patrol_scanned_pages, "regime: patrol scanned nothing");
    let mut w = s.write_latency.samples_us()[b.write_latency.len()..].to_vec();
    let mut r = s.read_latency.samples_us()[b.read_latency.len()..].to_vec();
    let half = w.len() / 2;
    let first = quantile(&mut w[..half].to_vec(), 0.99);
    let second = quantile(&mut w[half..].to_vec(), 0.99);
    report.check(
        second <= BACKLOG_FACTOR * first,
        format!("regime: write p99 grew from {first} to {second} µs across the timed phase"),
    );
    let host_writes = (s.host_writes - b.host_writes) as f64;
    let host_reads = (s.host_reads - b.host_reads) as f64;
    let sims = vec![
        SimValue {
            name: "sim_extra_pgm_us",
            value: ratio(
                s.extra_program_us - b.extra_program_us,
                (s.superwl_programs - b.superwl_programs) as f64,
            ),
            unit: "sim_us",
            samples: s.superwl_programs - b.superwl_programs,
        },
        SimValue {
            name: "sim_write_p50_us",
            value: quantile(&mut w, 0.5),
            unit: "sim_us",
            samples: w.len() as u64,
        },
        SimValue {
            name: "sim_write_p99_us",
            value: quantile(&mut w, 0.99),
            unit: "sim_us",
            samples: w.len() as u64,
        },
        SimValue {
            name: "sim_write_samples",
            value: w.len() as f64,
            unit: "count",
            samples: w.len() as u64,
        },
        SimValue {
            name: "sim_read_p50_us",
            value: quantile(&mut r, 0.5),
            unit: "sim_us",
            samples: r.len() as u64,
        },
        SimValue {
            name: "sim_read_p99_us",
            value: quantile(&mut r, 0.99),
            unit: "sim_us",
            samples: r.len() as u64,
        },
        SimValue {
            name: "sim_read_samples",
            value: r.len() as f64,
            unit: "count",
            samples: r.len() as u64,
        },
        SimValue {
            name: "sim_waf",
            value: ratio(host_writes + (s.gc_relocations - b.gc_relocations) as f64, host_writes),
            unit: "ratio",
            samples: host_writes as u64,
        },
        SimValue {
            name: "sim_loss_ratio",
            value: ratio((s.rebuilds_failed - b.rebuilds_failed) as f64, host_reads),
            unit: "ratio",
            samples: host_reads as u64,
        },
    ];
    ftl_counts(input, report);
    // Read-back: every LPN was written by the fill and none is trimmed.
    let n = input.ssd.geometry_info().logical_pages;
    let unreadable = (0..n).filter(|&lpn| !matches!(input.ssd.read(lpn), Ok(Some(_)))).count();
    report.check(unreadable == 0, format!("{unreadable} live LPNs unreadable on read-back"));
    let fingerprint = sims.iter().map(|v| v.value.to_bits()).collect();
    (sims, fingerprint)
}

/// Per-layer simulated counts of the timed phase (the `ftl.sim_*` waits and
/// the background-work ratios).
fn ftl_counts(input: &Input, report: &mut Report) {
    let b = &input.base;
    let s = input.ssd.stats();
    let ops = input.requests.len() as f64;
    let writes = (s.host_writes - b.host_writes) as f64;
    let reads = (s.host_reads - b.host_reads) as f64;
    let rebuilds = (s.rebuilds_ok - b.rebuilds_ok + s.rebuilds_failed - b.rebuilds_failed) as f64;
    let sim_span = input.requests.len() as f64 * GAP_US;
    let base = format!("{} ops", input.requests.len());
    report.add(
        "ftl.gc_relocations_per_write",
        ratio((s.gc_relocations - b.gc_relocations) as f64, writes),
        "ratio",
        "lower",
        format!("{writes} writes"),
    );
    report.add(
        "ftl.patrol_pages_per_op",
        ratio((s.patrol_scanned_pages - b.patrol_scanned_pages) as f64, ops),
        "ratio",
        "lower",
        base.clone(),
    );
    report.add(
        "ftl.rebuild_reads_per_read",
        ratio((s.rebuild_reads - b.rebuild_reads) as f64, reads),
        "ratio",
        "lower",
        format!("{reads} reads"),
    );
    report.add(
        "ftl.rebuild_ok_ratio",
        ratio((s.rebuilds_ok - b.rebuilds_ok) as f64, rebuilds),
        "ratio",
        "higher",
        format!("{rebuilds} rebuild attempts"),
    );
    report.add(
        "ftl.refresh_per_read",
        ratio((s.refresh_relocations - b.refresh_relocations) as f64, reads),
        "ratio",
        "lower",
        format!("{reads} reads"),
    );
    report.add(
        "ftl.sim_queue_wait_us_mean",
        ratio(s.queue_wait_us - b.queue_wait_us, ops),
        "sim_us",
        "lower",
        base.clone(),
    );
    report.add(
        "ftl.sim_gc_stall_us_per_write",
        ratio(s.gc_stall_us - b.gc_stall_us, writes),
        "sim_us",
        "lower",
        format!("{writes} writes"),
    );
    report.add(
        "ftl.sim_patrol_us_share",
        ratio(s.patrol_us - b.patrol_us, sim_span),
        "ratio",
        "lower",
        "of the simulated arrival span",
    );
    report.add(
        "ftl.sim_rebuild_us_per_read",
        ratio(s.rebuild_us - b.rebuild_us, reads),
        "sim_us",
        "lower",
        format!("{reads} reads"),
    );
    report.add(
        "ftl.sim_chip_util_mean",
        ratio(s.busy_us - b.busy_us, sim_span),
        "ratio",
        "lower",
        "single queue: busy time over the arrival span",
    );
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let setup_or_fail =
        |seed| setup(seed, args.tiny).expect("the benchmark device configuration is valid");
    if !args.trace {
        let rounds = repeat(
            args.seconds,
            || setup_or_fail(args.seed),
            |mut input| {
                let (errors, s) = replay(&mut input, None, false);
                let out = finish(&mut input, errors, report);
                (vec![(input.requests.len() as u64, s)], out)
            },
        );
        report_rounds(report, &rounds);
        return;
    }
    // Untraced baseline round for the tracing overhead.
    let mut input = setup_or_fail(args.seed);
    let (errors, untraced_s) = replay(&mut input, None, false);
    let (sims, _) = finish(&mut input, errors, report);
    report.add_sim("", &sims);
    report.attempted += input.requests.len() as u64;

    let mut steps = Vec::new();
    let mut traced_s = Vec::new();
    while traced_s.is_empty()
        || (traced_s.iter().sum::<f64>() < args.seconds && steps.len() < TRACED_STEPS)
    {
        let mut input = setup_or_fail(args.seed);
        // Spans of the first traced round only: later rounds add step
        // timings, not new call shapes, and would only bloat the file.
        let (errors, s) = replay(&mut input, Some((&mut *tracer, &mut steps)), traced_s.is_empty());
        traced_s.push(s);
        let (again, _) = finish(&mut input, errors, report);
        let same = again.iter().zip(&sims).all(|(a, b)| a.value.to_bits() == b.value.to_bits());
        report.check(same, "traced round's simulated results differ from the untraced round");
        report.attempted += input.requests.len() as u64;
    }
    step_metrics(&steps, report);
    report.add(
        "trace.overhead_pct",
        (median(&traced_s) / untraced_s - 1.0) * 100.0,
        "%",
        "lower",
        format!("traced timed phase (median of {}) vs one untraced", traced_s.len()),
    );
    probe_layers(&config().flash, args.seed, report, tracer);

    // The held-out round's checks count; its per-layer counts must not
    // replace the run seed's.
    let mut held = setup_or_fail(HELDOUT_SEED);
    let (errors, _) = replay(&mut held, None, false);
    let mut held_report = Report::default();
    let (sims, _) = finish(&mut held, errors, &mut held_report);
    report.failures.extend(held_report.failures);
    let keep = ["sim_extra_pgm_us", "sim_write_p99_us", "sim_read_p99_us", "sim_waf"];
    let held: Vec<SimValue> = sims.into_iter().filter(|v| keep.contains(&v.name)).collect();
    report.add_sim("heldout.", &held);
}

/// Host-time percentiles of the traced steps, overall, by op type and by
/// the background work each step did.
fn step_metrics(steps: &[Step], report: &mut Report) {
    let total: f64 = steps.iter().map(|s| s.ns as f64).sum();
    let mut all: Vec<f64> = steps.iter().map(|s| s.ns as f64).collect();
    let n = all.len();
    report.add("ftl.step_ns.p50", quantile(&mut all, 0.5), "ns", "lower", format!("{n} steps"));
    report.add("ftl.step_ns.p99", quantile(&mut all, 0.99), "ns", "lower", format!("{n} steps"));
    report.add("ftl.step_samples", n as f64, "count", "higher", "traced timed_step calls");
    type Class = (&'static str, fn(&Step) -> bool);
    let classes: [Class; 5] = [
        ("read", |s| s.op == IoOp::Read),
        ("write", |s| s.op == IoOp::Write),
        ("gc", |s| s.gc),
        ("patrol", |s| s.patrol),
        ("rebuild", |s| s.rebuild),
    ];
    for (name, member) in classes {
        let mut ns: Vec<f64> = steps.iter().filter(|s| member(s)).map(|s| s.ns as f64).collect();
        let count = ns.len();
        let share = ratio(ns.iter().sum(), total);
        report.add(
            format!("ftl.{name}_step_ns.p50"),
            quantile(&mut ns, 0.5),
            "ns",
            "lower",
            format!("{count} steps"),
        );
        if !matches!(name, "read" | "write") {
            report.add(
                format!("ftl.{name}_time_share"),
                share,
                "ratio",
                "lower",
                format!("{count} of {n} steps"),
            );
        }
    }
}
