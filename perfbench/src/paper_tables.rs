//! `paper_tables`: the paper's own computation — Random, the eight Table I
//! directions and QSTR-MED(4) through `ComparisonResult::run_with`, as
//! `repro table1` / `table5` run it. Each round characterizes its pools
//! into a fresh `PoolCache` as set-up; the timed phase is one `run_with`
//! per pair of pool groups. One op is one superblock assembled and scored.

use crate::trace::{median, quantile, ratio, secs, Tracer, ROOT};
use crate::{cores, repeat, report_rounds, Args, Report, SimValue, HELDOUT_SEED};
use flash_model::{CellType, FlashArray, FlashConfig, Geometry, VariationConfig};
use pvcheck::assembly::{Assembler, QstrMed};
use pvcheck::{BlockPool, Characterizer, SpeedClass};
use repro_bench::experiments::ComparisonResult;
use repro_bench::runner::{
    measure, run_scheme_with, ExperimentParams, PoolCache, SchemeKind, SchemeStats,
};
use std::hint::black_box;
use std::time::Instant;

/// Table V: Random → QSTR-MED(4) extra program latency, µs.
const PAPER_RANDOM_US: f64 = 13_084.17;
const PAPER_QSTR_US: f64 = 10_911.53;

/// Pool groups per round; group seeds are `seed * 1000 + i`, so only seed
/// 0 overlaps `calibrate`'s tuning groups (0–5). Optimal(8)'s search time
/// varies several-fold from one group's hardware draw to the next, so a
/// round spans many small groups rather than a few large ones: that keeps
/// the per-round cost steady across seeds.
const GROUPS: u64 = 16;

/// Pool groups per `run_with` call: short timed pieces, so a contention
/// episode on the host spoils one piece rather than a whole round.
const GROUPS_PER_CALL: usize = 2;

/// QSTR-MED's distance checks per superblock on four pools (§V).
const QSTR_CHECK_BOUND: f64 = 12.0;

/// The roster after the Random baseline, with the per-layer metric suffix
/// of each scheme.
fn roster() -> Vec<(SchemeKind, &'static str)> {
    vec![
        (SchemeKind::Sequential, "sequential"),
        (SchemeKind::ErsLatency, "ers_ltn"),
        (SchemeKind::PgmLatency, "pgm_ltn"),
        (SchemeKind::Optimal(8), "optimal8"),
        (SchemeKind::LwlRank(8), "lwl_rank8"),
        (SchemeKind::PwlRank(8), "pwl_rank8"),
        (SchemeKind::StrRank(8), "str_rank8"),
        (SchemeKind::StrMed(4), "str_med4"),
        (SchemeKind::QstrMed(4), "qstr_med4"),
    ]
}

/// The four-pool platform at 100 blocks per pool (a quarter of `calibrate
/// --quick`'s; smaller pools give QSTR-MED fewer candidates, which widens
/// `paper_err_pp`), two P/E points per group, split into the parameter
/// sets of the `run_with` calls.
fn calls(seed: u64, tiny: bool) -> Vec<ExperimentParams> {
    let (groups, blocks) = if tiny { (4, 48) } else { (GROUPS, 100) };
    let layers = if tiny { 24 } else { 96 };
    let config = FlashConfig {
        geometry: Geometry::new(4, 1, blocks, layers, 4, CellType::Tlc),
        variation: VariationConfig::default(),
    };
    let seeds: Vec<u64> = (0..groups).map(|i| seed.wrapping_mul(1000).wrapping_add(i)).collect();
    seeds
        .chunks(GROUPS_PER_CALL)
        .map(|g| ExperimentParams {
            config: config.clone(),
            group_seeds: g.to_vec(),
            pe_points: vec![0, 1500],
        })
        .collect()
}

/// Improvement of QSTR-MED(4) over Random in extra program latency, %.
fn improvement_pct(random_us: f64, qstr_us: f64) -> f64 {
    (random_us - qstr_us) / random_us * 100.0
}

/// Superblock-weighted mean of per-call statistics of one scheme.
fn merge_stats<'a>(parts: impl Iterator<Item = &'a SchemeStats>) -> SchemeStats {
    let (mut pgm, mut ers, mut n, mut name) = (0.0, 0.0, 0usize, String::new());
    for s in parts {
        pgm += s.extra_pgm_us * s.superblocks as f64;
        ers += s.extra_ers_us * s.superblocks as f64;
        n += s.superblocks;
        name.clone_from(&s.name);
    }
    let d = n.max(1) as f64;
    SchemeStats { name, extra_pgm_us: pgm / d, extra_ers_us: ers / d, superblocks: n }
}

/// The whole round's comparison from its per-call results.
fn merge(parts: &[ComparisonResult]) -> ComparisonResult {
    ComparisonResult {
        baseline: merge_stats(parts.iter().map(|r| &r.baseline)),
        schemes: (0..parts[0].schemes.len())
            .map(|i| merge_stats(parts.iter().map(|r| &r.schemes[i])))
            .collect(),
    }
}

/// Simulated results and bit fingerprint of one comparison.
fn sims(result: &ComparisonResult) -> (Vec<SimValue>, Vec<u64>) {
    let qstr = result.schemes.last().expect("roster ends with QSTR-MED(4)");
    let measured = improvement_pct(result.baseline.extra_pgm_us, qstr.extra_pgm_us);
    let paper = improvement_pct(PAPER_RANDOM_US, PAPER_QSTR_US);
    let n = qstr.superblocks as u64;
    let sims = vec![
        SimValue { name: "sim_extra_pgm_us", value: qstr.extra_pgm_us, unit: "sim_us", samples: n },
        SimValue { name: "paper_err_pp", value: (measured - paper).abs(), unit: "pp", samples: n },
    ];
    let fingerprint = std::iter::once(&result.baseline)
        .chain(&result.schemes)
        .flat_map(|s| [s.extra_pgm_us.to_bits(), s.extra_ers_us.to_bits(), s.superblocks as u64])
        .collect();
    (sims, fingerprint)
}

/// Output checks: every direction beats Random on extra program latency.
fn check_directions(report: &mut Report, result: &ComparisonResult) {
    for s in &result.schemes {
        report.check(
            s.extra_pgm_us < result.baseline.extra_pgm_us,
            format!(
                "{} does not beat Random on extra PGM ({} vs {})",
                s.name, s.extra_pgm_us, result.baseline.extra_pgm_us
            ),
        );
    }
}

fn superblocks(result: &ComparisonResult) -> u64 {
    std::iter::once(&result.baseline).chain(&result.schemes).map(|s| s.superblocks as u64).sum()
}

/// Set-up of one round: a fresh cache with every pool of the round
/// characterized, so the timed phase is the comparison itself.
fn filled_cache(calls: &[ExperimentParams]) -> PoolCache {
    let cache = PoolCache::new(calls[0].config.clone());
    for p in calls {
        for &pe in &p.pe_points {
            for &group in &p.group_seeds {
                black_box(cache.pool(group, pe));
            }
        }
    }
    cache
}

/// The timed phase: one `run_with` per call, each timed on its own.
/// Returns each call's `(superblocks, seconds)`, its results, and the
/// merged comparison.
fn compare(
    calls: &[ExperimentParams],
    cache: &PoolCache,
    kinds: &[SchemeKind],
) -> (Vec<(u64, f64)>, Vec<ComparisonResult>, ComparisonResult) {
    let mut pieces = Vec::new();
    let mut results = Vec::new();
    for p in calls {
        let t = Instant::now();
        let result = ComparisonResult::run_with(p, cache, kinds);
        pieces.push((superblocks(&result), secs(t)));
        results.push(result);
    }
    let merged = merge(&results);
    (pieces, results, merged)
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let kinds: Vec<SchemeKind> = roster().iter().map(|r| r.0).collect();
    if args.trace {
        traced(args, &kinds, report, tracer);
        return;
    }
    let rounds = repeat(
        args.seconds,
        || {
            let c = calls(args.seed, args.tiny);
            let cache = filled_cache(&c);
            (c, cache)
        },
        |(c, cache)| {
            let (pieces, _, merged) = compare(&c, &cache, &kinds);
            check_directions(report, &merged);
            (pieces, sims(&merged))
        },
    );
    report_rounds(report, &rounds);
    let c = calls(args.seed, args.tiny);
    let pool = PoolCache::new(c[0].config.clone()).pool(c[0].group_seeds[0], c[0].pe_points[0]);
    let mut qstr = QstrMed::with_candidates(4);
    let sbs = qstr.assemble(&pool);
    report_qstr_checks(report, qstr.distance_checks(), sbs.len() as u64);
}

/// QSTR-MED's distance checks per superblock, checked against the paper's
/// 12 on four pools.
fn report_qstr_checks(report: &mut Report, checks: u64, superblocks: u64) {
    let per_sb = ratio(checks as f64, superblocks as f64);
    report.check(
        per_sb <= QSTR_CHECK_BOUND,
        format!("QSTR-MED ran {per_sb} distance checks per superblock"),
    );
    report.add(
        "pvcheck.qstr_checks_per_sb",
        per_sb,
        "count",
        "lower",
        format!("{superblocks} superblocks"),
    );
}

/// Per-scheme accumulators of the serial cell replay.
#[derive(Debug, Default, Clone)]
struct SchemeTiming {
    assemble_ns: u64,
    score_ns: u64,
    superblocks: u64,
    pgm_weighted: f64,
    ers_weighted: f64,
}

/// The traced run: the cells of each `ComparisonResult::run_with` call
/// replayed one at a time through the public calls its runner makes, with
/// a span around each, then compared against an untraced serial pass
/// (tracing overhead) and the parallel calls (parallel efficiency).
fn traced(args: &Args, kinds: &[SchemeKind], report: &mut Report, tracer: &mut Tracer) {
    let c = calls(args.seed, args.tiny);
    let mut all_kinds = vec![SchemeKind::Random];
    all_kinds.extend_from_slice(kinds);
    let mut names = vec!["random"];
    names.extend(roster().iter().map(|r| r.1));

    let (pieces, parallel, merged) = compare(&c, &filled_cache(&c), kinds);
    let parallel_s: f64 = pieces.iter().map(|p| p.1).sum();
    check_directions(report, &merged);
    let (sim, _) = sims(&merged);
    report.add_sim("", &sim);

    // Untraced serial pass: the tracing-overhead baseline. The runner's
    // serial path must reproduce its parallel one exactly.
    let cache = filled_cache(&c);
    let t = Instant::now();
    let serial: Vec<Vec<SchemeStats>> = c
        .iter()
        .map(|p| all_kinds.iter().map(|&k| run_scheme_with(p, &cache, k)).collect())
        .collect();
    let serial_s = secs(t);
    for (s, r) in serial.iter().zip(&parallel) {
        report.check(
            s[0] == r.baseline && s[1..] == r.schemes[..],
            "serial run_scheme_with differs from the parallel run_with",
        );
    }

    // Traced serial replays until the budget is spent.
    let mut timing = vec![SchemeTiming::default(); all_kinds.len()];
    let mut cell_s = Vec::new();
    let (mut qstr_checks, mut qstr_sbs) = (0u64, 0u64);
    let mut traced_s = Vec::new();
    while traced_s.is_empty() || traced_s.iter().sum::<f64>() < args.seconds {
        let cache = filled_cache(&c);
        let t = Instant::now();
        let round = tracer.open("bench.serial_replay", ROOT, traced_s.len() as u64);
        let mut cell = 0u64;
        for (p, expected) in c.iter().zip(&serial) {
            let mut call_timing = vec![SchemeTiming::default(); all_kinds.len()];
            for (ki, &kind) in all_kinds.iter().enumerate() {
                for &pe in &p.pe_points {
                    for &group in &p.group_seeds {
                        let id = tracer.open("bench.cell", round, cell);
                        let (pool, _) =
                            tracer.time("bench.pool", id, cell, || cache.pool(group, pe));
                        let (sbs, ns) = if let SchemeKind::QstrMed(k) = kind {
                            let mut asm = QstrMed::with_candidates(k);
                            let out =
                                tracer.time("pvcheck.assemble", id, cell, || asm.assemble(&pool));
                            qstr_checks += asm.distance_checks();
                            qstr_sbs += out.0.len() as u64;
                            out
                        } else {
                            let mut asm = kind.assembler(group ^ u64::from(pe));
                            tracer.time("pvcheck.assemble", id, cell, || asm.assemble(&pool))
                        };
                        let (stats, score_ns) = tracer
                            .time("pvcheck.score", id, cell, || measure(&pool, &sbs, &kind.name()));
                        cell_s.push(tracer.close(id) as f64 / 1e9);
                        let acc = &mut call_timing[ki];
                        acc.assemble_ns += ns;
                        acc.score_ns += score_ns;
                        acc.superblocks += stats.superblocks as u64;
                        acc.pgm_weighted += stats.extra_pgm_us * stats.superblocks as f64;
                        acc.ers_weighted += stats.extra_ers_us * stats.superblocks as f64;
                        cell += 1;
                    }
                }
            }
            // The replay reduces exactly as the runner does, so it must
            // match the serial pass bit for bit.
            for (ki, acc) in call_timing.iter().enumerate() {
                let n = acc.superblocks.max(1) as f64;
                let same = (acc.pgm_weighted / n).to_bits() == expected[ki].extra_pgm_us.to_bits()
                    && (acc.ers_weighted / n).to_bits() == expected[ki].extra_ers_us.to_bits();
                report.check(
                    same,
                    format!("traced replay of {} differs from run_scheme_with", expected[ki].name),
                );
                timing[ki].assemble_ns += acc.assemble_ns;
                timing[ki].score_ns += acc.score_ns;
                timing[ki].superblocks += acc.superblocks;
            }
        }
        tracer.close(round);
        traced_s.push(secs(t));
    }

    for (name, t) in names.iter().zip(&timing) {
        report.add(
            format!("pvcheck.assemble_ns_per_sb.{name}"),
            ratio(t.assemble_ns as f64, t.superblocks as f64),
            "ns",
            "lower",
            format!("{} superblocks", t.superblocks),
        );
    }
    let score_ns: u64 = timing.iter().map(|t| t.score_ns).sum();
    let sbs: u64 = timing.iter().map(|t| t.superblocks).sum();
    report.add(
        "pvcheck.score_ns_per_sb",
        ratio(score_ns as f64, sbs as f64),
        "ns",
        "lower",
        format!("{sbs} superblocks"),
    );
    report_qstr_checks(report, qstr_checks, qstr_sbs);
    report.add(
        "bench.cell_s.p50",
        median(&cell_s),
        "s",
        "lower",
        format!("{} cells", cell_s.len()),
    );
    report.add(
        "bench.cell_s.max",
        quantile(&mut cell_s.clone(), 1.0),
        "s",
        "lower",
        format!("{} cells", cell_s.len()),
    );
    report.add("bench.cell_samples", cell_s.len() as f64, "count", "higher", "serial cell replays");
    let cells_per_round = (cell_s.len() / traced_s.len()) as f64;
    let workers = cores().min(cells_per_round as usize).max(1) as f64;
    let cell_sum: f64 = cell_s.iter().sum::<f64>() / traced_s.len() as f64;
    report.add(
        "bench.parallel_eff",
        cell_sum / (parallel_s * workers),
        "ratio",
        "higher",
        format!("{workers} workers"),
    );
    let traced_med = median(&traced_s);
    report.add(
        "trace.overhead_pct",
        (traced_med / serial_s - 1.0) * 100.0,
        "%",
        "lower",
        format!("traced serial replay (median of {}) vs untraced serial pass", traced_s.len()),
    );
    report.attempted += sbs + superblocks(&merged);

    probe_layers(&c[0].config, c[0].group_seeds[0], report, tracer);

    let h = calls(HELDOUT_SEED, args.tiny);
    let (_, _, held) = compare(&h, &filled_cache(&h), kinds);
    let (sim, _) = sims(&held);
    report.add_sim("heldout.", &sim);
}

/// Repeats `f` until it has run for at least 20 ms and returns
/// `(total ns, calls)`: the flash-model and QSTR probes on a small device
/// geometry finish in microseconds, too short to time once.
fn timed_reps(mut f: impl FnMut() -> u64) -> (u64, u64) {
    let t = Instant::now();
    let mut units = 0;
    while units == 0 || t.elapsed().as_millis() < 20 {
        units += f();
    }
    (u64::try_from(t.elapsed().as_nanos()).expect("probe time fits u64"), units)
}

/// Times the flash-model and pvcheck calls every workload's configuration
/// runs: latency synthesis over every word-line of one characterized pool,
/// the characterization snapshot, and QSTR-MED's on-demand path (insert +
/// `assemble_on_demand`, what the FTL runs).
pub fn probe_layers(config: &FlashConfig, seed: u64, report: &mut Report, tracer: &mut Tracer) {
    let array = FlashArray::new(config.clone(), seed);
    let model = array.latency_model();
    let geo = config.geometry.clone();
    let chr = Characterizer::new(config);

    let id = tracer.open("flash_model.program_latency_us", ROOT, seed);
    let (ns, calls) = timed_reps(|| {
        let mut sum = 0.0;
        let mut calls = 0;
        for addr in geo.blocks() {
            for lwl in geo.lwls() {
                sum += model.program_latency_us(addr.wl(lwl), 0);
                calls += 1;
            }
        }
        black_box(sum);
        calls
    });
    tracer.close(id);
    report.add(
        "flash_model.pgm_synth_ns",
        ratio(ns as f64, calls as f64),
        "ns",
        "lower",
        format!("{calls} calls"),
    );

    let id = tracer.open("pvcheck.snapshot", ROOT, seed);
    let (ns, blocks) = timed_reps(|| black_box(chr.snapshot(model, 0)).len() as u64);
    tracer.close(id);
    report.add(
        "pvcheck.snapshot_ns_per_block",
        ratio(ns as f64, blocks as f64),
        "ns",
        "lower",
        format!("{blocks} blocks"),
    );

    let pool = chr.snapshot(model, 0);
    let id = tracer.open("pvcheck.on_demand", ROOT, seed);
    let (ns, sbs) = timed_reps(|| on_demand(&pool));
    tracer.close(id);
    report.add(
        "pvcheck.on_demand_ns",
        ratio(ns as f64, sbs as f64),
        "ns",
        "lower",
        format!("{sbs} superblocks"),
    );
}

/// Loads a pool into QSTR-MED block by block and drains it on demand,
/// alternating fast and slow requests; returns the superblocks assembled.
fn on_demand(pool: &BlockPool) -> u64 {
    let mut qstr = QstrMed::with_candidates(4);
    let strings = pool.strings();
    for p in 0..pool.pool_count() {
        for block in pool.pool(p) {
            qstr.insert(p, block.summary(strings));
        }
    }
    let mut n = 0u64;
    let mut class = SpeedClass::Fast;
    while let Some(sb) = qstr.assemble_on_demand(class) {
        black_box(sb);
        n += 1;
        class = if class == SpeedClass::Fast { SpeedClass::Slow } else { SpeedClass::Fast };
    }
    n
}
