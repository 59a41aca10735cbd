//! Host-time probes of single layers, run on every traced workload: each
//! times one public call in a loop and reports the median of a few
//! batches. They depend on no workload input.

use enclosure_apps::wiki::WikiApp;
use enclosure_core::{App, Enclosure, Policy};
use enclosure_fleet::Workload as _;
use enclosure_kernel::seccomp::{SysPolicy, AUDIT_ARCH_X86_64, DATA_LEN};
use enclosure_kernel::Sysno;
use enclosure_support::pool::run_scoped;
use enclosure_telemetry::{Event, Recorder};
use litterbox::{Backend, Fault, SysError};
use std::hint::black_box;

use crate::measure::{median, per_call_ns, timed, Metrics};

const BATCHES: usize = 5;

/// The enclosed backends, with their syscall and switch metric names.
const BACKENDS: [(Backend, &str, &str); 3] = [
    (
        Backend::Mpk,
        "litterbox.syscall_ns.mpk",
        "litterbox.switch_ns.mpk",
    ),
    (
        Backend::Vtx,
        "litterbox.syscall_ns.vtx",
        "litterbox.switch_ns.vtx",
    ),
    (
        Backend::Proc,
        "litterbox.syscall_ns.proc",
        "litterbox.switch_ns.proc",
    ),
];

/// An app with one enclosure over `lib` that may make any syscall.
fn micro_app(backend: Backend) -> Result<(App, Enclosure<u64, f64>), Fault> {
    let mut app = App::builder("probe")
        .package("main", &["lib"])
        .package("lib", &[])
        .build(backend)?;
    // The body times `iters` enclosed getpid calls on the host clock.
    let enc = Enclosure::declare(
        &mut app,
        "getpid",
        &["lib"],
        Policy::default_policy().syscalls(SysPolicy::all()),
        |ctx, iters: u64| {
            let (s, out) = timed(|| -> Result<(), Fault> {
                for _ in 0..iters {
                    black_box(ctx.lb.sys_getpid().map_err(|e| match e {
                        SysError::Fault(f) => f,
                        SysError::Errno(e) => Fault::Init(e.to_string()),
                    })?);
                }
                Ok(())
            });
            out?;
            Ok(s * 1e9 / iters as f64)
        },
    )?;
    Ok((app, enc))
}

/// Host ns per enclosed `sys_getpid`.
fn syscall_ns(backend: Backend) -> Result<f64, Fault> {
    let (mut app, mut enc) = micro_app(backend)?;
    // Warm-up pays lazy per-backend set-up (the LB_PROC fork).
    enc.call(&mut app, 1)?;
    let samples = (0..BATCHES)
        .map(|_| enc.call(&mut app, 20_000))
        .collect::<Result<Vec<f64>, Fault>>()?;
    Ok(median(&samples))
}

/// Host ns per `LitterBox::prolog` + `epilog` pair into the enclosure.
fn switch_ns(backend: Backend) -> Result<f64, Fault> {
    let (mut app, mut enc) = micro_app(backend)?;
    enc.call(&mut app, 1)?;
    let id = enc.id();
    let callsite = app.info.callsite(id).ok_or(Fault::UnknownEnclosure(id))?;
    let lb = &mut app.lb;
    let mut failed = None;
    let ns = per_call_ns(BATCHES, 20_000, || {
        let pair = lb.prolog(id, callsite).and_then(|token| lb.epilog(token));
        if let Err(f) = pair {
            failed.get_or_insert(f);
        }
    });
    failed.map_or(Ok(ns), Err)
}

/// Host ns per checked 8-byte `LitterBox::load` in the trusted view.
fn load_ns() -> Result<f64, Fault> {
    let (app, _) = micro_app(Backend::Mpk)?;
    let addr = app.info.data_start("main");
    let mut failed = None;
    let ns = per_call_ns(BATCHES, 200_000, || {
        if let Err(f) = black_box(app.lb.load(black_box(addr), 8)) {
            failed.get_or_insert(f);
        }
    });
    failed.map_or(Ok(ns), Err)
}

/// Host ns per run of an LB_MPK wiki shard's compiled seccomp filter
/// over a `getpid` record (PKRU 0, the trusted environment).
fn bpf_run_ns() -> Result<f64, Fault> {
    let shard = WikiApp::build(Backend::Mpk)?;
    let program = shard
        .lb()
        .seccomp_program()
        .ok_or_else(|| Fault::Init("LB_MPK shard has no seccomp program".to_owned()))?;
    let mut data = [0u8; DATA_LEN];
    data[0..4].copy_from_slice(&Sysno::Getpid.nr().to_le_bytes());
    data[4..8].copy_from_slice(&AUDIT_ARCH_X86_64.to_le_bytes());
    let mut failed = false;
    let ns = per_call_ns(BATCHES, 200_000, || {
        failed |= black_box(program.run(black_box(&data))).is_err();
    });
    if failed {
        return Err(Fault::Init(
            "seccomp program rejected a getpid record".to_owned(),
        ));
    }
    Ok(ns)
}

/// Host ns per `Recorder::record` of a counter-only event.
fn record_ns() -> f64 {
    let mut rec = Recorder::new();
    let mut now = 0;
    per_call_ns(BATCHES, 1_000_000, || {
        now += 1;
        rec.record(now, Event::VmExit);
    })
}

/// Host µs per `run_scoped(2, ..)` of 4 no-op jobs.
fn pool_call_us() -> f64 {
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let jobs: Vec<_> = (0..4u64).map(|i| move || black_box(i)).collect();
            timed(|| black_box(run_scoped(2, jobs))).0 * 1e6
        })
        .collect();
    median(&samples)
}

/// Runs every probe and pushes its metric.
///
/// # Errors
/// A fault in a probe's app (the probes exercise allowed operations
/// only, so any fault is a defect).
pub fn run(metrics: &mut Metrics) -> Result<(), Fault> {
    metrics.push("support.pool_call_us", pool_call_us(), "us");
    for (backend, syscall, switch) in BACKENDS {
        metrics.push(syscall, syscall_ns(backend)?, "ns");
        metrics.push(switch, switch_ns(backend)?, "ns");
    }
    metrics.push("litterbox.load_ns", load_ns()?, "ns");
    metrics.push("kernel.bpf_run_ns", bpf_run_ns()?, "ns");
    metrics.push("telemetry.record_ns", record_ns(), "ns");
    Ok(())
}
