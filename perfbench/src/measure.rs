//! Measurement plumbing shared by every workload: the metric sink, the
//! output-check ledger, the timed repetition loop, and the per-layer
//! counter deltas.

use std::time::{Duration, Instant};

use enclosure_hw::CostModel;
use enclosure_support::Json;
use enclosure_telemetry::Counters;

/// Metrics in emission order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one metric. Each name may be pushed once.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric {name} pushed twice"
        );
        self.0.push((name, value, unit));
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::F64(value)), ("unit", Json::from(unit))]),
            )
        }))
    }
}

/// The output-check ledger: operations attempted, operations whose
/// answer or check failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (requests, or plot calls).
    pub attempted: u64,
    /// Failed answers plus failed checks.
    pub failed: u64,
}

impl Checks {
    /// Records one check; a false `ok` counts one failure and explains
    /// it on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Set-ups (`Fleet::new`, or the three `plotlib::build` calls) timed
/// back to back before each measured repetition. `setup_s` is the median
/// over all of them, so it spans the same stretch of time as the
/// throughput samples.
pub const SETUP_BLOCK: usize = 25;

/// Repeats `rep` until `seconds` have passed and at least `min_reps`
/// repetitions ran, returning every repetition's result.
pub fn repeat<T, E>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed() < budget {
        out.push(rep()?);
    }
    Ok(out)
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
/// On an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Host ns per call of `op`: the median over `batches` timed batches of
/// `iters` calls each.
pub fn per_call_ns(batches: usize, iters: u64, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let (s, ()) = timed(|| {
                for _ in 0..iters {
                    op();
                }
            });
            s * 1e9 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Cores the host reports.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The telemetry counters the per-layer metrics are made of, as the
/// delta between two snapshots of a recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    executes: u64,
    filter_syscalls: u64,
    batch_flushes: u64,
    batched_syscalls: u64,
    wrpkru_writes: u64,
    cr3_writes: u64,
    vm_exits: u64,
    ipc_crossings: u64,
    syscall_entries: u64,
    seccomp_verdicts: u64,
    reschedules: u64,
    go_parks: u64,
    /// Trusted round trips of the Python metadata protocol.
    pub metadata_switches: u64,
}

impl Counts {
    /// `after - before`, field by field.
    pub fn delta(before: &Counters, after: &Counters) -> Counts {
        Counts {
            executes: after.executes - before.executes,
            filter_syscalls: after.filter_syscalls - before.filter_syscalls,
            batch_flushes: after.batch_flushes - before.batch_flushes,
            batched_syscalls: after.batched_syscalls - before.batched_syscalls,
            wrpkru_writes: after.wrpkru_writes - before.wrpkru_writes,
            cr3_writes: after.cr3_writes - before.cr3_writes,
            vm_exits: after.vm_exits - before.vm_exits,
            ipc_crossings: after.ipc_crossings - before.ipc_crossings,
            syscall_entries: after.syscall_entries - before.syscall_entries,
            seccomp_verdicts: after.seccomp_verdicts - before.seccomp_verdicts,
            reschedules: after.reschedules - before.reschedules,
            go_parks: after.go_parks - before.go_parks,
            metadata_switches: after.metadata_switches - before.metadata_switches,
        }
    }

    /// Field-by-field sum.
    pub fn add(&mut self, other: &Counts) {
        self.executes += other.executes;
        self.filter_syscalls += other.filter_syscalls;
        self.batch_flushes += other.batch_flushes;
        self.batched_syscalls += other.batched_syscalls;
        self.wrpkru_writes += other.wrpkru_writes;
        self.cr3_writes += other.cr3_writes;
        self.vm_exits += other.vm_exits;
        self.ipc_crossings += other.ipc_crossings;
        self.syscall_entries += other.syscall_entries;
        self.seccomp_verdicts += other.seccomp_verdicts;
        self.reschedules += other.reschedules;
        self.go_parks += other.go_parks;
        self.metadata_switches += other.metadata_switches;
    }

    /// The litterbox, hw, kernel and gofront count metrics, each per
    /// operation (`ops` requests, or plot points).
    pub fn push_per_op(&self, ops: u64, metrics: &mut Metrics) {
        let ops = ops.max(1) as f64;
        let per = |n: u64| n as f64 / ops;
        let cost = CostModel::paper();
        // A CR3 write is priced as the guest syscall that performs it.
        let crossing_ns = self.wrpkru_writes * cost.wrpkru
            + self.cr3_writes * cost.guest_syscall
            + self.vm_exits * cost.vm_exit
            + self.ipc_crossings * cost.ipc_roundtrip;
        metrics.push("litterbox.executes_per_req", per(self.executes), "count");
        metrics.push(
            "litterbox.filter_syscalls_per_req",
            per(self.filter_syscalls),
            "count",
        );
        metrics.push(
            "litterbox.batch_flushes_per_req",
            per(self.batch_flushes),
            "count",
        );
        metrics.push(
            "litterbox.mean_flush_batch",
            if self.batch_flushes == 0 {
                0.0
            } else {
                self.batched_syscalls as f64 / self.batch_flushes as f64
            },
            "count",
        );
        metrics.push("hw.wrpkru_per_req", per(self.wrpkru_writes), "count");
        metrics.push("hw.cr3_writes_per_req", per(self.cr3_writes), "count");
        metrics.push("hw.vm_exits_per_req", per(self.vm_exits), "count");
        metrics.push("hw.ipc_crossings_per_req", per(self.ipc_crossings), "count");
        metrics.push("hw.crossing_sim_ns_per_req", per(crossing_ns), "sim_ns");
        metrics.push(
            "kernel.syscall_entries_per_req",
            per(self.syscall_entries),
            "count",
        );
        metrics.push(
            "kernel.seccomp_verdicts_per_req",
            per(self.seccomp_verdicts),
            "count",
        );
        metrics.push(
            "gofront.reschedules_per_req",
            per(self.reschedules),
            "count",
        );
        metrics.push("gofront.go_parks_per_req", per(self.go_parks), "count");
    }
}
