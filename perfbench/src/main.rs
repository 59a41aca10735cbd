//! `perfbench` — the repository's performance benchmark.
//!
//! One command runs one named workload with one seed, checks the
//! program's outputs, and prints every metric by name and unit:
//!
//! ```text
//! perfbench --workload fleet_wiki --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `--trace 0` measures the end-to-end metrics (host throughput,
//!   set-up time and peak RSS; simulated ns per operation, tail and
//!   slowdown). Nothing but the calls being timed runs inside a timed
//!   section.
//! * `--trace 1` measures the per-layer metrics: host time per layer from
//!   spans the benchmark records around calls into each layer's public
//!   functions, counts per layer from `Recorder` counter deltas around
//!   the same calls, and the tracing overhead (traced ÷ untraced
//!   throughput on the same workload and seed).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The line before it
//! stamps the run with its workload, seed, detected core count and fleet
//! thread count. A failed output check makes the exit code nonzero.
//! `README.md` in this directory maps each metric to its layer.

mod fleet;
mod measure;
mod plot;
mod probes;

use std::process::ExitCode;

use enclosure_support::Json;

use measure::{Checks, Metrics};

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// `WikiFleet`: 4 LB_MPK shards on the scoped pool (§6.3 wiki).
    FleetWiki,
    /// `FastHttpFleet`: MPK/VTX/PROC/MPK shards, sequential (§6.2).
    FleetFastHttpMixed,
    /// The §6.4 plain/conservative/optimized plot trio.
    PythonPlot,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("fleet_wiki", Workload::FleetWiki),
        ("fleet_fasthttp_mixed", Workload::FleetFastHttpMixed),
        ("python_plot", Workload::PythonPlot),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed in ALL")
    }
}

/// Input scale: `full` is the benchmark; `small` is for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// A few percent of full size, for the self-test.
    Small,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

const USAGE: &str = "usage: perfbench --workload <fleet_wiki|fleet_fasthttp_mixed|python_plot> \
                     [--seed N] [--seconds S] [--trace 0|1] [--size full|small]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got '{value}'")),
                };
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    _ => return Err(format!("--size wants full or small, got '{value}'")),
                };
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let mut stamp = vec![
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("trace", Json::from(u64::from(args.trace))),
        ("detected_cores", Json::from(measure::detected_cores())),
        ("fleet_threads", Json::from(fleet::threads(args.workload))),
        (
            "size",
            Json::from(match args.size {
                Size::Full => "full",
                Size::Small => "small",
            }),
        ),
    ];
    let outcome = match args.workload {
        Workload::FleetWiki | Workload::FleetFastHttpMixed => fleet::run(
            args.workload,
            args.size,
            args.seed,
            args.seconds,
            args.trace,
            &mut metrics,
            &mut checks,
        )
        .map(|mix| stamp.push(("session_mix", mix))),
        Workload::PythonPlot => plot::run(
            args.size,
            args.seed,
            args.seconds,
            args.trace,
            &mut metrics,
            &mut checks,
        ),
    };
    let outcome = outcome.and_then(|()| {
        if args.trace {
            probes::run(&mut metrics)
        } else {
            Ok(())
        }
    });
    if let Err(fault) = outcome {
        // A fault is not a measurement: print no result line.
        eprintln!("perfbench: {} aborted: {fault}", args.workload.name());
        return ExitCode::FAILURE;
    }
    println!("{}", Json::obj([("stamp", Json::obj(stamp))]).to_compact());
    let correct = checks.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(checks.attempted)),
        ("failed", Json::from(checks.failed)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{}", result.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
