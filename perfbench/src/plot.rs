//! The `python_plot` workload: the §6.4 plotting program in its three
//! arms — plain Python (no enclosure), the conservative prototype
//! (co-located metadata under LB_VTX) and the optimized one (decoupled
//! metadata under LB_VTX).
//!
//! A repetition builds each arm's interpreter (`plotlib::build`) and
//! plots once (`plotlib::run_on`). The seed picks the series length
//! within ±500 points of 300k; the values are the paper's fixed series.

use enclosure_apps::plotlib::{self, PlotConfig, PlotRun};
use enclosure_pyfront::MetadataMode;
use enclosure_support::XorShift;
use litterbox::{Backend, Fault};

use crate::measure::{median, peak_rss_mb, repeat, timed, Checks, Counts, Metrics, SETUP_BLOCK};
use crate::Size;

/// Fewest measured repetitions in a run.
const MIN_REPS: usize = 3;

/// Untimed trios before the measured ones.
const WARMUP_RUNS: usize = 2;

/// The three arms: name, run-time metric, backend, metadata placement.
const ARMS: [(&str, &str, Backend, MetadataMode); 3] = [
    (
        "plain",
        "pyfront.run_s.plain",
        Backend::Baseline,
        MetadataMode::CoLocated,
    ),
    (
        "conservative",
        "pyfront.run_s.conservative",
        Backend::Vtx,
        MetadataMode::CoLocated,
    ),
    (
        "optimized",
        "pyfront.run_s.optimized",
        Backend::Vtx,
        MetadataMode::Decoupled,
    ),
];
const PLAIN: usize = 0;
const CONSERVATIVE: usize = 1;
const OPTIMIZED: usize = 2;

fn config(size: Size, seed: u64) -> PlotConfig {
    let base = match size {
        Size::Full => PlotConfig::default().points,
        Size::Small => 10_000,
    };
    PlotConfig {
        points: base - 500 + XorShift::new(seed).range_u64(0, 1_001),
        ..PlotConfig::default()
    }
}

/// One arm of one repetition.
struct Arm {
    build_s: f64,
    run_s: f64,
    run: PlotRun,
    /// Counter delta around `run_on`.
    counts: Counts,
}

/// Builds and plots all three arms, timing each call and taking counter
/// deltas around each `run_on`.
fn trio(cfg: PlotConfig) -> Result<[Arm; 3], Fault> {
    let arm = |&(_, _, backend, mode): &(&str, &str, Backend, MetadataMode)| {
        let (build_s, py) = timed(|| plotlib::build(backend, mode, cfg));
        let mut py = py?;
        let before = *py.lb().telemetry().counters();
        let (run_s, run) = timed(|| plotlib::run_on(&mut py, cfg));
        let run = run?;
        Ok::<_, Fault>(Arm {
            build_s,
            run_s,
            counts: Counts::delta(&before, &run.counters),
            run,
        })
    };
    Ok([arm(&ARMS[0])?, arm(&ARMS[1])?, arm(&ARMS[2])?])
}

/// Points per second of a trio's three `run_on` calls.
fn throughput(cfg: PlotConfig, arms: &[Arm; 3]) -> f64 {
    cfg.points as f64 / arms.iter().map(|a| a.run_s).sum::<f64>()
}

/// Checks one trio's outputs, and that its simulated results equal the
/// reference trio's.
fn check_trio(
    cfg: PlotConfig,
    arms: &[Arm; 3],
    reference: Option<&[PlotRun; 3]>,
    checks: &mut Checks,
) {
    checks.attempted += 3;
    for (a, (name, _, _, _)) in arms.iter().zip(ARMS) {
        checks.check(a.run.output_bytes == cfg.width * cfg.height, || {
            format!("{name}: wrote {} bytes", a.run.output_bytes)
        });
    }
    // Two passes × (incref + decref) trusted round trips per point.
    let cons = arms[CONSERVATIVE].run.counters.metadata_switches;
    checks.check(cons == 4 * cfg.points, || {
        format!(
            "conservative: {cons} metadata switches for {} points",
            cfg.points
        )
    });
    let opt = arms[OPTIMIZED].run.counters.metadata_switches;
    checks.check(opt == 0, || format!("optimized: {opt} metadata switches"));
    if let Some(reference) = reference {
        checks.check(arms.iter().zip(reference).all(|(a, r)| a.run == *r), || {
            "simulated results changed between runs".to_owned()
        });
    }
}

/// Untimed warm-up trios (see the fleet workloads' `warm_up`). Returns
/// the first trio's results, the reference every later trio must
/// repeat, and the peak RSS right after it, in MB.
fn warm_up(cfg: PlotConfig, checks: &mut Checks) -> Result<([PlotRun; 3], f64), Fault> {
    let arms = trio(cfg)?;
    check_trio(cfg, &arms, None, checks);
    let reference = arms.map(|a| a.run);
    let rss_mb = peak_rss_mb();
    for _ in 1..WARMUP_RUNS {
        check_trio(cfg, &trio(cfg)?, Some(&reference), checks);
    }
    Ok((reference, rss_mb))
}

/// Runs `python_plot`, pushing its metrics.
pub fn run(
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), Fault> {
    let cfg = config(size, seed);
    if trace {
        traced(cfg, seconds, metrics, checks)
    } else {
        untraced(cfg, seconds, metrics, checks)
    }
}

fn untraced(
    cfg: PlotConfig,
    seconds: f64,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), Fault> {
    let (reference, rss_mb) = warm_up(cfg, checks)?;
    let mut setups = Vec::new();
    let samples = repeat(seconds, MIN_REPS, || {
        for _ in 0..SETUP_BLOCK {
            let (s, built) = timed(|| {
                ARMS.iter()
                    .map(|&(_, _, backend, mode)| plotlib::build(backend, mode, cfg))
                    .collect::<Result<Vec<_>, Fault>>()
            });
            drop(built?);
            setups.push(s);
        }
        let arms = trio(cfg)?;
        check_trio(cfg, &arms, Some(&reference), checks);
        Ok::<_, Fault>(throughput(cfg, &arms))
    })?;

    let points = cfg.points as f64;
    let optimized = reference[OPTIMIZED].total_ns as f64;
    metrics.push("peak_rss_mb", rss_mb, "MB");
    metrics.push("throughput_per_s", median(&samples), "1/s");
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("sim_ns_per_op", optimized / points, "sim_ns");
    // One plot per arm: the optimized plot's latency is the only
    // sample, so it is both percentiles.
    metrics.push("sim_p50_ns", optimized, "sim_ns");
    metrics.push("sim_p99_ns", optimized, "sim_ns");
    metrics.push(
        "sim_slowdown_x",
        optimized / reference[PLAIN].total_ns as f64,
        "x",
    );
    Ok(())
}

fn traced(
    cfg: PlotConfig,
    seconds: f64,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), Fault> {
    let (reference, _) = warm_up(cfg, checks)?;
    let mut counts: Option<Counts> = None;
    let (mut untraced_thr, mut traced_thr, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut run_s: [Vec<f64>; 3] = Default::default();
    // Untraced and traced trios alternate on the same seed; only the
    // traced trio's spans and counter deltas are kept.
    repeat(seconds, 2, || -> Result<(), Fault> {
        let plain = trio(cfg)?;
        check_trio(cfg, &plain, Some(&reference), checks);
        untraced_thr.push(throughput(cfg, &plain));

        let arms = trio(cfg)?;
        check_trio(cfg, &arms, Some(&reference), checks);
        traced_thr.push(throughput(cfg, &arms));
        build_s.push(arms.iter().map(|a| a.build_s).sum());
        for (samples, a) in run_s.iter_mut().zip(&arms) {
            samples.push(a.run_s);
        }
        let mut total = Counts::default();
        for a in &arms {
            total.add(&a.counts);
        }
        match counts {
            None => counts = Some(total),
            Some(c) => checks.check(c == total, || {
                "per-layer counts changed between runs".to_owned()
            }),
        }
        Ok(())
    })?;
    let counts = counts.expect("at least one repetition");

    crate::fleet::push_absent(metrics);
    counts.push_per_op(cfg.points, metrics);
    metrics.push("pyfront.build_s", median(&build_s), "s");
    for ((_, metric, _, _), samples) in ARMS.iter().zip(&run_s) {
        metrics.push(metric, median(samples), "s");
    }
    metrics.push(
        "pyfront.metadata_switches_per_point",
        counts.metadata_switches as f64 / cfg.points as f64,
        "count",
    );
    metrics.push(
        "pyfront.init_sim_ns",
        reference[OPTIMIZED].init_ns as f64,
        "sim_ns",
    );
    metrics.push(
        "telemetry.trace_overhead",
        median(&traced_thr) / median(&untraced_thr),
        "x",
    );
    Ok(())
}

/// Zeros for the Python metrics on a workload without an interpreter.
pub fn push_absent(metrics: &mut Metrics) {
    for (name, unit) in [
        ("pyfront.build_s", "s"),
        ("pyfront.run_s.plain", "s"),
        ("pyfront.run_s.conservative", "s"),
        ("pyfront.run_s.optimized", "s"),
        ("pyfront.metadata_switches_per_point", "count"),
        ("pyfront.init_sim_ns", "sim_ns"),
    ] {
        metrics.push(name, 0.0, unit);
    }
}
