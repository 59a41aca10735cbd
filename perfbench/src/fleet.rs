//! The two fleet workloads: `fleet_wiki` (4 LB_MPK wiki shards on the
//! scoped pool) and `fleet_fasthttp_mixed` (MPK/VTX/PROC/MPK FastHTTP
//! shards, sequential). Chaos is off in both.
//!
//! Untraced, each repetition times a block of back-to-back `Fleet::new`
//! calls (the set-up), then builds one more fleet and times its
//! `Fleet::run`.
//! Traced, a repetition also replays every shard's dispatch trace
//! (`ShardRow.batch_sizes`) through a fresh `Shard::spawn` +
//! `Shard::serve_batch`, timing each call. The replay reproduces each
//! shard's simulated ns and latency histogram exactly (checked), so
//! `fleet.run_s - shard.serve_s` is the host time the fleet spends
//! outside its shards: admission, planning, scheduling, folding and the
//! pool.

use enclosure_apps::fasthttp::FastHttpApp;
use enclosure_apps::wiki::WikiApp;
use enclosure_fleet::{
    check_invariants, Fleet, FleetConfig, FleetReport, Shard, Workload as ShardApp,
};
use enclosure_support::Json;
use enclosure_telemetry::Histogram;
use litterbox::{Backend, Fault};

use crate::measure::{median, peak_rss_mb, repeat, timed, Checks, Counts, Metrics, SETUP_BLOCK};
use crate::{Size, Workload};

/// Fewest measured repetitions in a run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Untimed runs before the measured ones.
const WARMUP_RUNS: usize = 2;

/// Shards in both fleets.
const SHARDS: usize = 4;

/// Execute-phase threads of every measured fleet run. Sequential: on a
/// 2-vCPU VM shared with other tenants, one slowed vCPU gates every round
/// of a 2-thread run (measured on a 2-vCPU Xeon VM: three consecutive
/// `fleet_wiki` runs at a third of their usual throughput), which no
/// bound on an end-to-end metric can absorb.
const THREADS: usize = 1;

/// Threads of the extra pool run in each traced `fleet_wiki` repetition,
/// which `support.pool_speedup_x` compares with the sequential run.
const POOL_THREADS: usize = 2;

/// Execute-phase threads for `workload`'s fleet (0: no fleet).
pub fn threads(workload: Workload) -> usize {
    match workload {
        Workload::PythonPlot => 0,
        Workload::FleetWiki | Workload::FleetFastHttpMixed => THREADS,
    }
}

fn config(workload: Workload, size: Size, seed: u64) -> FleetConfig {
    let requests = match (workload, size) {
        (Workload::PythonPlot, _) => unreachable!("not a fleet workload"),
        (Workload::FleetWiki, Size::Full) => 60_000,
        (Workload::FleetFastHttpMixed, Size::Full) => 24_000,
        (_, Size::Small) => 1_500,
    };
    let cfg = FleetConfig::new(SHARDS, requests, seed).with_parallelism(threads(workload));
    if workload == Workload::FleetFastHttpMixed {
        cfg.mixed_backends()
    } else {
        cfg
    }
}

/// Runs a fleet workload, pushing its metrics. Returns the session mix
/// (requests served per shard) for the run's stamp.
pub fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<Json, Fault> {
    let cfg = config(workload, size, seed);
    let report = match (workload, trace) {
        (Workload::FleetWiki, false) => untraced::<WikiApp>(&cfg, seconds, metrics, checks)?,
        (Workload::FleetWiki, true) => {
            traced::<WikiApp>(&cfg, Some(POOL_THREADS), seconds, metrics, checks)?
        }
        (Workload::FleetFastHttpMixed, false) => {
            untraced::<FastHttpApp>(&cfg, seconds, metrics, checks)?
        }
        (Workload::FleetFastHttpMixed, true) => {
            traced::<FastHttpApp>(&cfg, None, seconds, metrics, checks)?
        }
        (Workload::PythonPlot, _) => unreachable!("not a fleet workload"),
    };
    if trace {
        crate::plot::push_absent(metrics);
    }
    Ok(Json::arr(report.rows.iter().map(|r| Json::from(r.served))))
}

/// One run, timed from the built fleet to its report.
struct Sample {
    run_s: f64,
    report: FleetReport,
}

fn sample<W: ShardApp>(cfg: &FleetConfig) -> Result<Sample, Fault> {
    let fleet = Fleet::<W>::new(cfg.clone())?;
    let (run_s, report) = timed(|| fleet.run());
    Ok(Sample {
        run_s,
        report: report?,
    })
}

/// Everything simulated about a run; it must repeat exactly per seed.
#[derive(Debug, PartialEq)]
struct SimOutcome {
    machine_ns: u64,
    fleet_ns: u64,
    rounds: u64,
    latency: Histogram,
    batch_sizes: Vec<Vec<u64>>,
}

impl SimOutcome {
    fn of(report: &FleetReport) -> SimOutcome {
        SimOutcome {
            machine_ns: machine_ns(report),
            fleet_ns: report.fleet_ns,
            rounds: report.rounds,
            latency: report.merged_latency.clone(),
            batch_sizes: report.rows.iter().map(|r| r.batch_sizes.clone()).collect(),
        }
    }
}

/// Simulated ns all shard machines ran.
fn machine_ns(report: &FleetReport) -> u64 {
    report.rows.iter().map(|r| r.sim_ns).sum()
}

/// Checks one report: the fleet invariants hold, the client ledger
/// balances, every answer is `client_ok`, and the simulated outcome
/// equals the reference run's.
fn check_report(
    cfg: &FleetConfig,
    report: &FleetReport,
    reference: Option<&SimOutcome>,
    checks: &mut Checks,
) {
    checks.attempted += report.admitted;
    checks.failed += report.admitted.saturating_sub(report.client_ok);
    for violation in check_invariants(cfg, report) {
        checks.check(false, || violation);
    }
    checks.check(
        report.client_ok + report.client_degraded + report.lb_degraded == report.admitted,
        || {
            format!(
                "ledger: ok {} + degraded {} + lb-degraded {} != admitted {}",
                report.client_ok, report.client_degraded, report.lb_degraded, report.admitted
            )
        },
    );
    if let Some(reference) = reference {
        checks.check(&SimOutcome::of(report) == reference, || {
            format!("seed {}: simulated outcome changed between runs", cfg.seed)
        });
    }
}

/// Simulated machine ns per request.
fn sim_ns_per_req(report: &FleetReport) -> f64 {
    machine_ns(report) as f64 / report.admitted.max(1) as f64
}

/// Untimed warm-up runs: the first runs of a process fault in fresh
/// pages, later ones reuse them. Returns the first run's report, its
/// simulated outcome (the reference every later run must repeat) and
/// the peak RSS right after it, in MB; later runs only add allocator
/// fragmentation to the high-water mark.
fn warm_up<W: ShardApp>(
    cfg: &FleetConfig,
    checks: &mut Checks,
) -> Result<(FleetReport, SimOutcome, f64), Fault> {
    let report = sample::<W>(cfg)?.report;
    check_report(cfg, &report, None, checks);
    let outcome = SimOutcome::of(&report);
    let rss_mb = peak_rss_mb();
    for _ in 1..WARMUP_RUNS {
        check_report(cfg, &sample::<W>(cfg)?.report, Some(&outcome), checks);
    }
    Ok((report, outcome, rss_mb))
}

fn untraced<W: ShardApp>(
    cfg: &FleetConfig,
    seconds: f64,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<FleetReport, Fault> {
    let (report, outcome, rss_mb) = warm_up::<W>(cfg, checks)?;
    let mut setups = Vec::new();
    let throughput = repeat(seconds, MIN_REPS, || {
        for _ in 0..SETUP_BLOCK {
            let owned = cfg.clone();
            let (s, fleet) = timed(|| Fleet::<W>::new(owned));
            drop(fleet?);
            setups.push(s);
        }
        let s = sample::<W>(cfg)?;
        check_report(cfg, &s.report, Some(&outcome), checks);
        Ok::<_, Fault>(s.report.admitted as f64 / s.run_s)
    })?;
    // The same sessions on unenclosed shards: the slowdown's base.
    let mut base_cfg = cfg.clone();
    base_cfg.backends = vec![Backend::Baseline; cfg.shards()];
    let base = sample::<W>(&base_cfg)?.report;
    check_report(&base_cfg, &base, None, checks);

    metrics.push("peak_rss_mb", rss_mb, "MB");
    metrics.push("throughput_per_s", median(&throughput), "1/s");
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("sim_ns_per_op", sim_ns_per_req(&report), "sim_ns");
    metrics.push(
        "sim_p50_ns",
        report.merged_latency.percentile(500) as f64,
        "sim_ns",
    );
    metrics.push(
        "sim_p99_ns",
        report.merged_latency.percentile(990) as f64,
        "sim_ns",
    );
    metrics.push(
        "sim_slowdown_x",
        sim_ns_per_req(&report) / sim_ns_per_req(&base),
        "x",
    );
    Ok(report)
}

/// Host time and counter deltas of one shard-by-shard replay.
#[derive(Debug, Default)]
struct Replay {
    spawn_s: f64,
    serve_s: f64,
    /// Serve seconds and requests per backend (MPK, VTX, PROC).
    by_backend: [(f64, u64); 3],
    counts: Counts,
}

fn backend_slot(backend: Backend) -> Option<usize> {
    match backend {
        Backend::Mpk => Some(0),
        Backend::Vtx => Some(1),
        Backend::Proc => Some(2),
        Backend::Baseline => None,
    }
}

/// Replays each shard's dispatch trace on a fresh shard, timing every
/// `Shard::spawn` and `Shard::serve_batch` call and taking counter
/// deltas around the serve calls. Checks that each replay reproduces
/// its shard's simulated ns and latency histogram exactly.
fn replay<W: ShardApp>(
    report: &FleetReport,
    seed: u64,
    checks: &mut Checks,
) -> Result<Replay, Fault> {
    let mut out = Replay::default();
    for row in &report.rows {
        let (spawn_s, shard) = timed(|| Shard::<W>::spawn(row.id, row.backend, seed, None, None));
        let mut shard = shard?;
        out.spawn_s += spawn_s;
        let before = *shard.telemetry_view().counters();
        let mut serve_s = 0.0;
        for &n in &row.batch_sizes {
            let (s, served) = timed(|| shard.serve_batch(n));
            served?;
            serve_s += s;
        }
        let after = *shard.telemetry_view().counters();
        out.counts.add(&Counts::delta(&before, &after));
        out.serve_s += serve_s;
        if let Some(slot) = backend_slot(row.backend) {
            out.by_backend[slot].0 += serve_s;
            out.by_backend[slot].1 += row.batch_sizes.iter().sum::<u64>();
        }
        checks.check(shard.sim_ns() == row.sim_ns, || {
            format!(
                "shard {}: replay ran {} simulated ns, the fleet {}",
                row.id,
                shard.sim_ns(),
                row.sim_ns
            )
        });
        checks.check(shard.latency() == row.latency, || {
            format!("shard {}: replay latency histogram diverged", row.id)
        });
    }
    Ok(out)
}

/// The traced run. With `pool_threads`, each repetition also runs the
/// fleet on that many execute threads.
fn traced<W: ShardApp>(
    cfg: &FleetConfig,
    pool_threads: Option<usize>,
    seconds: f64,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<FleetReport, Fault> {
    let (report, outcome, _) = warm_up::<W>(cfg, checks)?;
    let pool_cfg = pool_threads.map(|t| cfg.clone().with_parallelism(t));
    let mut pool_run_s = Vec::new();
    let mut counts: Option<Counts> = None;
    let (mut untraced_thr, mut traced_thr) = (Vec::new(), Vec::new());
    let (mut run_s, mut serve_s, mut spawn_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_req_us: [Vec<f64>; 3] = Default::default();
    // Alternate untraced and traced repetitions of the same seed, so
    // both see the same host conditions.
    repeat(seconds, 2, || -> Result<(), Fault> {
        let plain = sample::<W>(cfg)?;
        check_report(cfg, &plain.report, Some(&outcome), checks);
        untraced_thr.push(plain.report.admitted as f64 / plain.run_s);

        let s = sample::<W>(cfg)?;
        check_report(cfg, &s.report, Some(&outcome), checks);
        let r = replay::<W>(&s.report, cfg.seed, checks)?;
        traced_thr.push(s.report.admitted as f64 / s.run_s);
        run_s.push(s.run_s);
        serve_s.push(r.serve_s);
        spawn_s.push(r.spawn_s);
        for (slot, &(secs, reqs)) in per_req_us.iter_mut().zip(&r.by_backend) {
            slot.push(if reqs == 0 {
                0.0
            } else {
                secs * 1e6 / reqs as f64
            });
        }
        if let Some(pool_cfg) = &pool_cfg {
            // The pool must not change what the fleet computes.
            let p = sample::<W>(pool_cfg)?;
            check_report(pool_cfg, &p.report, Some(&outcome), checks);
            pool_run_s.push(p.run_s);
        }
        match counts {
            None => counts = Some(r.counts),
            Some(c) => checks.check(c == r.counts, || {
                format!("seed {}: per-layer counts changed between runs", cfg.seed)
            }),
        }
        Ok(())
    })?;
    let counts = counts.expect("at least one repetition");

    let run = median(&run_s);
    let serve = median(&serve_s);
    metrics.push("fleet.run_s", run, "s");
    metrics.push("fleet.self_s", run - serve, "s");
    metrics.push("fleet.rounds", report.rounds as f64, "count");
    let batches: u64 = report.rows.iter().map(|r| r.batches).sum();
    metrics.push(
        "fleet.mean_batch",
        report.admitted as f64 / batches.max(1) as f64,
        "count",
    );
    metrics.push("fleet.sim_makespan_ns", report.fleet_ns as f64, "sim_ns");
    metrics.push(
        "support.pool_speedup_x",
        if pool_run_s.is_empty() {
            0.0
        } else {
            run / median(&pool_run_s)
        },
        "x",
    );
    metrics.push("shard.spawn_s", median(&spawn_s), "s");
    metrics.push("shard.serve_s", serve, "s");
    for (name, samples) in [
        "shard.serve_us_per_req.mpk",
        "shard.serve_us_per_req.vtx",
        "shard.serve_us_per_req.proc",
    ]
    .into_iter()
    .zip(&per_req_us)
    {
        metrics.push(name, median(samples), "us");
    }
    counts.push_per_op(report.admitted, metrics);
    metrics.push(
        "telemetry.trace_overhead",
        median(&traced_thr) / median(&untraced_thr),
        "x",
    );
    Ok(report)
}

/// Zeros for the fleet, shard and pool metrics on a workload without a
/// fleet.
pub fn push_absent(metrics: &mut Metrics) {
    for (name, unit) in [
        ("fleet.run_s", "s"),
        ("fleet.self_s", "s"),
        ("fleet.rounds", "count"),
        ("fleet.mean_batch", "count"),
        ("fleet.sim_makespan_ns", "sim_ns"),
        ("support.pool_speedup_x", "x"),
        ("shard.spawn_s", "s"),
        ("shard.serve_s", "s"),
        ("shard.serve_us_per_req.mpk", "us"),
        ("shard.serve_us_per_req.vtx", "us"),
        ("shard.serve_us_per_req.proc", "us"),
    ] {
        metrics.push(name, 0.0, unit);
    }
}
