//! One benchmark for the simulator: the paper's Table I/V computation, an
//! aged single device, and a QoS fleet, timed end to end and per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_tables|device_aging|fleet_qos> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --tiny
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` is a separate run that records spans around every layer call
//! and reports the per-layer metrics. Every run checks its own outputs,
//! prints every metric by name with its unit, direction and sample count,
//! and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. A failed check makes the exit code nonzero. `--tiny` runs
//! all three workloads, untraced and traced, at toy sizes and prints every
//! metric name. See `perfbench/README.md` for the metric catalogue.

mod device_aging;
mod fleet_qos;
mod paper_tables;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use trace::{median, quantile, secs, Tracer};

/// End-to-end metrics carried in the JSON line of an untraced run: the
/// host-time ones, which apply to every workload. The simulated results
/// (`sim_*`, `paper_err_pp`) depend on the seed's hardware draw rather than
/// on host noise and apply to some workloads only, so they travel in the
/// traced run's JSON; every run prints them in its text table.
pub const END_TO_END: &[&str] = &["setup_s", "ops_per_s", "peak_rss_mb"];

/// Per-layer metrics carried in the JSON line of a traced run, with units.
/// A metric whose layer a workload never calls reads 0 there: that workload
/// is the layer's no-change control.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("flash_model.pgm_synth_ns", "ns"),
    ("pvcheck.snapshot_ns_per_block", "ns"),
    ("pvcheck.assemble_ns_per_sb.random", "ns"),
    ("pvcheck.assemble_ns_per_sb.sequential", "ns"),
    ("pvcheck.assemble_ns_per_sb.ers_ltn", "ns"),
    ("pvcheck.assemble_ns_per_sb.pgm_ltn", "ns"),
    ("pvcheck.assemble_ns_per_sb.optimal8", "ns"),
    ("pvcheck.assemble_ns_per_sb.lwl_rank8", "ns"),
    ("pvcheck.assemble_ns_per_sb.pwl_rank8", "ns"),
    ("pvcheck.assemble_ns_per_sb.str_rank8", "ns"),
    ("pvcheck.assemble_ns_per_sb.str_med4", "ns"),
    ("pvcheck.assemble_ns_per_sb.qstr_med4", "ns"),
    ("pvcheck.score_ns_per_sb", "ns"),
    ("pvcheck.qstr_checks_per_sb", "count"),
    ("pvcheck.on_demand_ns", "ns"),
    ("bench.cell_s.p50", "s"),
    ("bench.cell_s.max", "s"),
    ("bench.cell_samples", "count"),
    ("bench.parallel_eff", "ratio"),
    ("ftl.step_ns.p50", "ns"),
    ("ftl.step_ns.p99", "ns"),
    ("ftl.step_samples", "count"),
    ("ftl.read_step_ns.p50", "ns"),
    ("ftl.write_step_ns.p50", "ns"),
    ("ftl.gc_step_ns.p50", "ns"),
    ("ftl.patrol_step_ns.p50", "ns"),
    ("ftl.rebuild_step_ns.p50", "ns"),
    ("ftl.gc_time_share", "ratio"),
    ("ftl.patrol_time_share", "ratio"),
    ("ftl.rebuild_time_share", "ratio"),
    ("ftl.gc_relocations_per_write", "ratio"),
    ("ftl.patrol_pages_per_op", "ratio"),
    ("ftl.rebuild_reads_per_read", "ratio"),
    ("ftl.rebuild_ok_ratio", "ratio"),
    ("ftl.refresh_per_read", "ratio"),
    ("ftl.sim_queue_wait_us_mean", "sim_us"),
    ("ftl.sim_gc_stall_us_per_write", "sim_us"),
    ("ftl.sim_patrol_us_share", "ratio"),
    ("ftl.sim_rebuild_us_per_read", "sim_us"),
    ("ftl.sim_chip_util_mean", "ratio"),
    ("host.admit_ns_per_op", "ns"),
    ("host.run_ns_per_op", "ns"),
    ("host.backpressure_ratio", "ratio"),
    ("host.sim_wait_us.lc", "sim_us"),
    ("host.sim_wait_us.std", "sim_us"),
    ("host.sim_wait_us.bg", "sim_us"),
    ("fleet.gen_ns_per_op", "ns"),
    ("fleet.fold_ms", "ms"),
    ("fleet.device_s.max_over_mean", "ratio"),
    ("fleet.parallel_eff", "ratio"),
    ("fleet.samples_mb", "MB"),
    ("trace.overhead_pct", "%"),
    ("sim_extra_pgm_us", "sim_us"),
    ("sim_write_p50_us", "sim_us"),
    ("sim_write_p99_us", "sim_us"),
    ("sim_write_samples", "count"),
    ("sim_read_p50_us", "sim_us"),
    ("sim_read_p99_us", "sim_us"),
    ("sim_read_samples", "count"),
    ("sim_p999_us", "sim_us"),
    ("sim_all_samples", "count"),
    ("sim_waf", "ratio"),
    ("sim_loss_ratio", "ratio"),
    ("paper_err_pp", "pp"),
    ("heldout.sim_extra_pgm_us", "sim_us"),
    ("heldout.paper_err_pp", "pp"),
    ("heldout.sim_write_p99_us", "sim_us"),
    ("heldout.sim_read_p99_us", "sim_us"),
    ("heldout.sim_p999_us", "sim_us"),
    ("heldout.sim_waf", "ratio"),
    ("env.cores", "count"),
];

/// Seed the traced run also reports its simulated results at, fixed so the
/// `heldout.*` figures compare across runs and commits. It lies outside
/// `calibrate`'s tuning set (pool groups 0–5) for every workload.
pub const HELDOUT_SEED: u64 = 1_000_003;

/// Fewest rounds of a run, so `setup_s` is always a median of several
/// set-ups and `ops_per_s` a median of several timed phases.
const MIN_ROUNDS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes for a quick self-run.
    pub tiny: bool,
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
    /// Sample count (or other base) behind the value.
    pub samples: String,
}

/// A simulated result: deterministic for a seed, compared bit for bit
/// across the rounds of one run.
#[derive(Debug, Clone)]
pub struct SimValue {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: &'static str,
        samples: impl Into<String>,
    ) {
        self.metrics.insert(name.into(), Metric { value, unit, better, samples: samples.into() });
    }

    /// Adds simulated results, prefixing each name with `prefix`.
    pub fn add_sim(&mut self, prefix: &str, sims: &[SimValue]) {
        for s in sims {
            let better = if s.unit == "count" { "higher" } else { "lower" };
            self.add(format!("{prefix}{}", s.name), s.value, s.unit, better, s.samples.to_string());
        }
    }

    /// Counts a failed output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }
}

/// The rounds of one run: each round sets up fresh inputs (timed as set-up)
/// and then runs its timed phase, which may consist of several timed
/// pieces (the same pieces, in the same order, every round).
#[derive(Debug)]
pub struct Rounds<T> {
    pub setup_s: Vec<f64>,
    /// `(ops, seconds)` of each timed piece, per round.
    pub pieces: Vec<Vec<(u64, f64)>>,
    pub outputs: Vec<T>,
    /// `VmHWM` right after the first round: the peak of a process that has
    /// set up and run the workload once. Later rounds only add allocator
    /// noise (per-thread arenas keep what worker threads freed).
    pub peak_rss_mb: f64,
}

impl<T> Rounds<T> {
    pub fn total_ops(&self) -> u64 {
        self.pieces.iter().flatten().map(|p| p.0).sum()
    }

    fn timed_s(&self) -> f64 {
        self.pieces.iter().flatten().map(|p| p.1).sum()
    }

    /// Throughput outside the host's contention episodes: one round's ops
    /// over the sum of each piece's 10th-percentile time across rounds.
    /// Other tenants of a shared host slow every thread by up to a third
    /// for seconds at a time; a median over rounds moves with how much of
    /// a run such episodes cover, a low time quantile of short pieces does
    /// not.
    pub fn ops_per_s(&self) -> f64 {
        let ops: u64 = self.pieces[0].iter().map(|p| p.0).sum();
        let fast_s: f64 = (0..self.pieces[0].len())
            .map(|i| {
                let mut times: Vec<f64> = self.pieces.iter().map(|r| r[i].1).collect();
                quantile(&mut times, 0.1)
            })
            .sum();
        ops as f64 / fast_s
    }

    /// Median over rounds of a round's ops per second.
    pub fn median_ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .pieces
            .iter()
            .map(|r| r.iter().map(|p| p.0).sum::<u64>() as f64 / r.iter().map(|p| p.1).sum::<f64>())
            .collect();
        median(&rates)
    }
}

/// Repeats set-up + timed phase until the timed phases add up to
/// `budget_s` and at least [`MIN_ROUNDS`] rounds ran. `run` times its own
/// timed pieces and returns their `(ops, seconds)` and the round's output,
/// so result checks after the timed phase stay out of the measurement.
pub fn repeat<I, T>(
    budget_s: f64,
    mut setup: impl FnMut() -> I,
    mut run: impl FnMut(I) -> (Vec<(u64, f64)>, T),
) -> Rounds<T> {
    let mut rounds =
        Rounds { setup_s: Vec::new(), pieces: Vec::new(), outputs: Vec::new(), peak_rss_mb: 0.0 };
    loop {
        let t = Instant::now();
        let input = setup();
        rounds.setup_s.push(secs(t));
        let (pieces, out) = run(input);
        rounds.pieces.push(pieces);
        rounds.outputs.push(out);
        if rounds.outputs.len() == 1 {
            rounds.peak_rss_mb = peak_rss_mb();
        }
        if rounds.timed_s() >= budget_s && rounds.outputs.len() >= MIN_ROUNDS {
            return rounds;
        }
    }
}

/// A round's simulated results and their bit fingerprint.
pub type SimRound = (Vec<SimValue>, Vec<u64>);

/// Reports `setup_s`, `ops_per_s` and `peak_rss_mb` of untraced rounds,
/// plus the first round's simulated results, after checking every round
/// reproduced them bit for bit (a workload whose simulated results need
/// an extra pass returns them empty and fingerprints the rounds only).
pub fn report_rounds(report: &mut Report, rounds: &Rounds<SimRound>) {
    let n = rounds.outputs.len();
    report.add("setup_s", median(&rounds.setup_s), "s", "lower", format!("median of {n} set-ups"));
    report.add(
        "ops_per_s",
        rounds.ops_per_s(),
        "1/s",
        "higher",
        format!("p10 time of each timed piece over {n} rounds, {} ops", rounds.total_ops()),
    );
    report.add(
        "ops_per_s.median",
        rounds.median_ops_per_s(),
        "1/s",
        "higher",
        format!("median of {n} rounds"),
    );
    report.add("peak_rss_mb", rounds.peak_rss_mb, "MB", "lower", "VmHWM after the first round");
    report.attempted += rounds.total_ops();
    let first = &rounds.outputs[0].1;
    for (i, (_, fp)) in rounds.outputs.iter().enumerate().skip(1) {
        report.check(
            fp == first,
            format!("round {i}: simulated results differ from round 0 on the same seed"),
        );
    }
    report.add_sim("", &rounds.outputs[0].0);
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the parallel layers use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 20.0, trace: false, tiny: false };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds_given = true;
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.tiny && !seconds_given {
        args.seconds = 0.5;
    }
    Ok(args)
}

/// Runs one workload and fills `report`.
fn run_workload(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    match args.workload.as_str() {
        "paper_tables" => paper_tables::run(args, report, tracer),
        "device_aging" => device_aging::run(args, report, tracer),
        "fleet_qos" => fleet_qos::run(args, report, tracer),
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(())
}

/// Prints the text table and the closing JSON line; returns whether every
/// check passed.
fn print_report(args: &Args, mut report: Report) -> bool {
    if !report.metrics.contains_key("peak_rss_mb") {
        report.add("peak_rss_mb", peak_rss_mb(), "MB", "lower", "VmHWM at exit");
    }
    let failed = report.failures.len() as u64;
    let attempted = report.attempted.max(1);
    report.add(
        "failed_op_ratio",
        failed as f64 / attempted as f64,
        "ratio",
        "lower",
        format!("{failed} of {attempted}"),
    );
    if args.trace {
        report.add("env.cores", cores() as f64, "count", "higher", "available_parallelism");
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores()
    );
    println!("{:<40} {:>18} {:<6} {:<6} base", "metric", "value", "unit", "better");
    for (name, m) in &report.metrics {
        println!("{name:<40} {:>18.6} {:<6} {:<6} {}", m.value, m.unit, m.better, m.samples);
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    let mut fields = Vec::new();
    if args.trace {
        for &(name, unit) in PER_LAYER {
            let value = report.metrics.get(name).map_or(0.0, |m| m.value);
            fields.push(json_metric(name, value, unit));
        }
    } else {
        for &name in END_TO_END {
            let m = &report.metrics[name];
            fields.push(json_metric(name, m.value, m.unit));
        }
    }
    let non_finite = report.metrics.values().any(|m| !m.value.is_finite());
    let correct = failed == 0 && !non_finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    correct
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    // Non-finite values are not JSON; they also fail the run.
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let runs: Vec<Args> = if args.tiny && args.workload.is_empty() {
        ["paper_tables", "device_aging", "fleet_qos"]
            .iter()
            .flat_map(|w| {
                [false, true].map(|trace| Args {
                    workload: (*w).to_string(),
                    trace,
                    ..args.clone()
                })
            })
            .collect()
    } else {
        vec![args]
    };
    let mut all_ok = true;
    for run in &runs {
        let mut report = Report::default();
        let mut tracer = Tracer::new();
        if let Err(e) = run_workload(run, &mut report, &mut tracer) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        if run.trace {
            let path = Path::new(".bench_trace").join(format!("{}.spans.csv", run.workload));
            if let Err(e) = tracer.write_csv(&path) {
                report.check(false, format!("writing {}: {e}", path.display()));
            }
            eprintln!("perfbench: {} spans written to {}", tracer.spans().len(), path.display());
        }
        all_ok &= print_report(run, report);
    }
    if !all_ok {
        std::process::exit(1);
    }
}
