//! Differential harness for the syscall issue path's three I/O modes.
//!
//! The equivalence theorem, checked per seed and per backend: the async
//! reactor ([`LitterBox::submit`] under [`IoMode::Adaptive`] +
//! [`litterbox::CompletionToken`]) is **observationally equivalent** to
//! the synchronous ring (`submit` under [`IoMode::Quantum`] + explicit
//! flushes + `take_completions`), and both return what
//! [`IoMode::Immediate`] returns when it services each op at
//! submission —
//!
//! * identical per-submitter result/errno streams,
//! * identical charged-crossing ledgers when the flush schedules match,
//! * schedule-*invariant* results when they do not (flush boundaries
//!   change where crossings are charged, never what an entry returns),
//! * mass-conserving latency histograms at the application level,
//! * well-nested park/wake (every park has exactly one later wake, and
//!   the span tree stays balanced).
//!
//! Plus the containment properties of the two new chaos sites: a
//! faulting entry wakes its submitter with its errno without poisoning
//! batch-mates, a lost deadline flush leaves the batch intact for a
//! retry, and no completion is ever lost or double-posted.

use std::collections::BTreeMap;

use enclosure_apps::fasthttp::{FastHttpApp, FastHttpConfig};
use enclosure_kernel::seccomp::SysPolicy;
use enclosure_kernel::{Errno, Sysno};
use enclosure_telemetry::Event;
use enclosure_vmem::{Access, Addr};
use litterbox::{
    Backend, BatchOp, BatchReply, CompletionToken, EnclosureDesc, EnclosureId, FlushPolicy,
    FlushReason, InjectionPlan, InjectionSite, IoMode, LitterBox, ProgramDesc, SysError,
};

/// One machine with one all-allowing enclosure, mirroring the gateway's
/// own unit-test fixture.
fn lab(backend: Backend) -> (LitterBox, Addr) {
    let mut lb = LitterBox::new(backend);
    let mut prog = ProgramDesc::new();
    prog.add_package(&mut lb, "libnet", 2, 1, 2).unwrap();
    let cs = prog.verified_callsite();
    prog.add_enclosure(EnclosureDesc {
        id: EnclosureId(1),
        name: "rcl".into(),
        view: [("libnet".to_string(), Access::RWX)].into_iter().collect(),
        policy: SysPolicy::all(),
        marked: vec!["libnet".into()],
    });
    lb.init(prog).unwrap();
    (lb, cs)
}

/// A random time-independent op (its reply does not read the clock, so
/// it is comparable across machines whose flush schedules differ). One
/// in five always fails with `EBADF`, so errno streams are compared
/// too.
fn pure_op(rng: &mut enclosure_support::XorShift) -> BatchOp {
    match rng.range_usize(0, 5) {
        0 => BatchOp::Getuid,
        1 => BatchOp::Getpid,
        2 => BatchOp::Futex,
        3 => BatchOp::Nanosleep(rng.range_u64(10, 500)),
        _ => BatchOp::Close { fd: 999 },
    }
}

/// Per-submitter `(sysno, result)` streams, in completion-ring order.
type Streams = BTreeMap<u64, Vec<(Sysno, Result<BatchReply, Errno>)>>;

fn streams_of(completions: Vec<litterbox::Completion>) -> Streams {
    let mut streams: Streams = BTreeMap::new();
    for c in completions {
        streams
            .entry(c.submitter)
            .or_default()
            .push((c.sysno, c.result));
    }
    streams
}

/// Submits `ops` one by one, calling `after` following each, and
/// returns the tokens with their submitters.
fn submit_all(
    lb: &mut LitterBox,
    subs: &[u64],
    ops: &[BatchOp],
    mut after: impl FnMut(&mut LitterBox, usize),
) -> Vec<(u64, CompletionToken)> {
    let mut tokens = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let tok = lb.submit(subs[i], op.clone()).unwrap();
        tokens.push((subs[i], tok));
        after(lb, i);
    }
    tokens
}

/// Polls every token once, asserting at-most-once delivery, into
/// per-submitter streams.
fn poll_all(lb: &mut LitterBox, tokens: &[(u64, CompletionToken)], backend: Backend) -> Streams {
    let mut streams: Streams = BTreeMap::new();
    for &(sub, tok) in tokens {
        assert!(lb.is_complete(tok), "{backend}: token incomplete");
        let c = lb.poll_completion(tok).expect("first poll posts");
        assert_eq!(c.seq, tok.seq());
        streams.entry(sub).or_default().push((c.sysno, c.result));
        assert!(
            lb.poll_completion(tok).is_none(),
            "{backend}: a completion must post at most once"
        );
    }
    streams
}

enclosure_support::props! {
    /// **The equivalence theorem, schedule held fixed.** The same ops,
    /// submitters, and explicit flush points driven through the
    /// per-quantum ring and through the reactor (policy installed but
    /// its triggers out of reach) produce identical per-submitter
    /// result streams, identical charged-crossing ledgers, and an
    /// identical simulated clock. Every token posts exactly once: first
    /// poll `Some`, second poll `None`.
    fn async_reactor_equals_synchronous_ring_on_a_shared_schedule(rng, cases = 24) {
        let n_ops = rng.range_usize(8, 40);
        let submitters = rng.range_u64(1, 5);
        // ClockGettime is fine here: both machines flush at the same
        // simulated instants, so even clock reads must agree.
        let ops: Vec<BatchOp> = (0..n_ops)
            .map(|_| match rng.range_usize(0, 5) {
                0..=3 => pure_op(rng),
                _ => BatchOp::ClockGettime,
            })
            .collect();
        let subs: Vec<u64> = (0..n_ops).map(|_| rng.range_u64(1, submitters + 1)).collect();
        let flush_after: Vec<bool> = (0..n_ops).map(|_| rng.range_usize(0, 4) == 0).collect();
        let unreachable = FlushPolicy {
            max_batch: usize::MAX / 2,
            deadline_ns: u64::MAX / 2,
        };

        for backend in Backend::ALL {
            let run = |mode: IoMode| {
                let (mut lb, cs) = lab(backend);
                lb.set_io_mode(mode);
                let t = lb.prolog(EnclosureId(1), cs).unwrap();
                let tokens = submit_all(&mut lb, &subs, &ops, |lb, i| {
                    if flush_after[i] {
                        lb.flush(FlushReason::Explicit).unwrap();
                    }
                });
                lb.epilog(t).unwrap(); // barrier flushes the tail
                let streams = poll_all(&mut lb, &tokens, backend);
                (lb, streams)
            };
            let (sync, sync_streams) = run(IoMode::Quantum);
            let (reactor, reactor_streams) = run(IoMode::AdaptiveWith(unreachable));

            assert_eq!(reactor_streams, sync_streams, "{backend}: result streams");
            assert_eq!(reactor.stats(), sync.stats(), "{backend}: charged ledgers");
            assert_eq!(reactor.now_ns(), sync.now_ns(), "{backend}: simulated clocks");
        }
    }

    /// **Results are invariant under the flush schedule.** With the
    /// adaptive triggers live (tiny `max_batch`, deadline flushes fired
    /// whenever due) the reactor charges crossings at different
    /// instants than the per-quantum ring, and `Immediate` charges one
    /// crossing per op at submission — but every entry still completes
    /// with exactly the result (or errno) the ring gave it.
    fn results_are_invariant_under_the_flush_schedule(rng, cases = 24) {
        let n_ops = rng.range_usize(8, 48);
        let submitters = rng.range_u64(1, 5);
        let ops: Vec<BatchOp> = (0..n_ops).map(|_| pure_op(rng)).collect();
        let subs: Vec<u64> = (0..n_ops).map(|_| rng.range_u64(1, submitters + 1)).collect();
        let policy = FlushPolicy {
            max_batch: rng.range_usize(2, 7),
            deadline_ns: rng.range_u64(500, 5_000),
        };

        for backend in Backend::ALL {
            // Per-quantum ring: one flush at the end (epilog barrier).
            let (mut sync, cs) = lab(backend);
            sync.set_io_mode(IoMode::Quantum);
            let t = sync.prolog(EnclosureId(1), cs).unwrap();
            submit_all(&mut sync, &subs, &ops, |_, _| {});
            sync.epilog(t).unwrap();
            let sync_streams = streams_of(sync.take_completions());

            // Reactor: size trigger fires every few submissions, and
            // the deadline trigger is exercised whenever it comes due.
            let (mut reactor, cs) = lab(backend);
            reactor.set_io_mode(IoMode::AdaptiveWith(policy));
            let t = reactor.prolog(EnclosureId(1), cs).unwrap();
            let tokens = submit_all(&mut reactor, &subs, &ops, |lb, _| {
                if let Some(reason) = lb.flush_due() {
                    lb.flush(reason).unwrap();
                }
            });
            reactor.epilog(t).unwrap();
            let reactor_streams = poll_all(&mut reactor, &tokens, backend);
            assert_eq!(
                reactor_streams, sync_streams,
                "{backend}: flush boundaries moved, results must not"
            );
            // The triggers actually fired: this case exercised the
            // policy, not just the epilog barrier.
            let c = reactor.telemetry().counters();
            assert!(
                c.flush_size_triggers + c.flush_deadline_triggers > 0,
                "{backend}: policy triggers live"
            );

            // Immediate: each op serviced at submission, its errno
            // returned there instead of posted.
            let (mut immediate, cs) = lab(backend);
            let t = immediate.prolog(EnclosureId(1), cs).unwrap();
            let mut immediate_streams: Streams = BTreeMap::new();
            for (op, &sub) in ops.iter().zip(&subs) {
                let result = match immediate.submit(sub, op.clone()) {
                    Ok(tok) => immediate.poll_completion(tok).expect("posted at submit").result,
                    Err(SysError::Errno(e)) => Err(e),
                    Err(fault) => panic!("{backend}: {fault}"),
                };
                immediate_streams.entry(sub).or_default().push((op.sysno(), result));
            }
            immediate.epilog(t).unwrap();
            assert_eq!(
                immediate_streams, sync_streams,
                "{backend}: immediate issue returns what the ring completes"
            );
            assert_eq!(
                immediate.telemetry().counters().batch_flushes,
                0,
                "{backend}: immediate issue never flushes"
            );
        }
    }

    /// **A faulting entry wakes its submitter with its errno without
    /// poisoning batch-mates.** One surgical `GatewayErrno` injection
    /// into a multi-submitter batch: exactly one completion carries the
    /// transient errno, every other completes `Ok`, and none is lost.
    fn faulting_entry_is_contained_to_its_submitter(rng, cases = 12) {
        let n_ops = rng.range_usize(4, 12);
        for backend in Backend::enforcing() {
            let (mut lb, cs) = lab(backend);
            lb.set_io_mode(IoMode::Quantum);
            let t = lb.prolog(EnclosureId(1), cs).unwrap();
            let mut tokens = Vec::new();
            for i in 0..n_ops {
                tokens.push(lb.submit(i as u64, BatchOp::Getpid).unwrap());
            }
            lb.clock_mut()
                .arm_injection(InjectionPlan::once(InjectionSite::GatewayErrno));
            lb.flush(FlushReason::Explicit).unwrap();
            lb.clock_mut().disarm_injection();
            let mut errs = 0;
            for tok in tokens {
                let c = lb.poll_completion(tok).expect("fault must not lose completions");
                match c.result {
                    Ok(_) => {}
                    Err(e) => {
                        assert!(Errno::TRANSIENT.contains(&e), "{backend}: {e:?}");
                        errs += 1;
                    }
                }
            }
            assert_eq!(errs, 1, "{backend}: exactly the injected entry faulted");
            lb.epilog(t).unwrap();
        }
    }

    /// **`completion_lost` degrades to an errno, never to silence.**
    /// The corrupted completion still posts (with a transient errno),
    /// so its submitter wakes; batch-mates are untouched.
    fn lost_completion_still_wakes_its_submitter(rng, cases = 12) {
        let n_ops = rng.range_usize(3, 10);
        for backend in Backend::enforcing() {
            let (mut lb, cs) = lab(backend);
            lb.set_io_mode(IoMode::Quantum);
            let t = lb.prolog(EnclosureId(1), cs).unwrap();
            let mut tokens = Vec::new();
            for i in 0..n_ops {
                tokens.push(lb.submit(i as u64, BatchOp::Getuid).unwrap());
            }
            lb.clock_mut()
                .arm_injection(InjectionPlan::once(InjectionSite::CompletionLost));
            lb.flush(FlushReason::Explicit).unwrap();
            lb.clock_mut().disarm_injection();
            let results: Vec<_> = tokens
                .into_iter()
                .map(|tok| lb.poll_completion(tok).expect("corruption posts, never drops"))
                .collect();
            let errs = results.iter().filter(|c| c.result.is_err()).count();
            assert_eq!(errs, 1, "{backend}: one corrupted completion");
            assert_eq!(results.len(), n_ops, "{backend}: mass conserved");
            lb.epilog(t).unwrap();
        }
    }

    /// **A lost deadline flush leaves the batch intact.** The
    /// `flush_deadline` site aborts the flush before any entry is
    /// serviced; a retry services every entry exactly once.
    fn lost_deadline_flush_is_retried_without_loss(rng, cases = 12) {
        let n_ops = rng.range_usize(2, 9);
        for backend in Backend::enforcing() {
            let (mut lb, cs) = lab(backend);
            lb.set_io_mode(IoMode::AdaptiveWith(FlushPolicy {
                max_batch: usize::MAX / 2,
                deadline_ns: 1_000,
            }));
            let t = lb.prolog(EnclosureId(1), cs).unwrap();
            let mut tokens = Vec::new();
            for i in 0..n_ops {
                tokens.push(lb.submit(i as u64, BatchOp::Futex).unwrap());
            }
            lb.clock_mut().advance(2_000);
            assert_eq!(
                lb.flush_due(),
                Some(FlushReason::Deadline),
                "{backend}: deadline elapsed"
            );
            lb.clock_mut()
                .arm_injection(InjectionPlan::once(InjectionSite::FlushDeadline));
            let err = lb.flush(FlushReason::Deadline).unwrap_err();
            assert!(err.is_transient(), "{backend}: {err:?}");
            assert_eq!(
                lb.pending_submissions(),
                n_ops,
                "{backend}: nothing serviced, nothing lost"
            );
            assert_eq!(
                lb.flush(FlushReason::Deadline).unwrap(),
                n_ops,
                "{backend}: retry services every entry once"
            );
            lb.clock_mut().disarm_injection();
            for tok in tokens {
                assert!(lb.poll_completion(tok).is_some(), "{backend}: all posted");
                assert!(lb.poll_completion(tok).is_none(), "{backend}: exactly once");
            }
            lb.epilog(t).unwrap();
        }
    }

    /// **The adaptive policy is a pure function of the recorded
    /// histograms.** Two machines with identical histories size
    /// identical policies, and the sizing always lands inside the
    /// documented clamps.
    fn adaptive_policy_is_deterministic_and_clamped(rng, cases = 8) {
        let rounds = rng.range_usize(0, 4);
        for backend in Backend::ALL {
            let seed_history = |(mut lb, cs): (LitterBox, Addr)| -> LitterBox {
                lb.set_io_mode(IoMode::Quantum);
                for _ in 0..rounds {
                    let t = lb.prolog(EnclosureId(1), cs).unwrap();
                    for _ in 0..6 {
                        lb.submit(1, BatchOp::Getpid).unwrap();
                    }
                    lb.flush(FlushReason::Explicit).unwrap();
                    lb.epilog(t).unwrap();
                }
                lb
            };
            let a = seed_history(lab(backend));
            let b = seed_history(lab(backend));
            let pa = a.adaptive_flush_policy();
            assert_eq!(pa, b.adaptive_flush_policy(), "{backend}: pure function");
            assert!(
                pa.max_batch == 64 || (32..=256).contains(&pa.max_batch),
                "{backend}: max_batch clamp: {}",
                pa.max_batch
            );
            assert!(
                pa.deadline_ns == 150_000 || (25_000..=400_000).contains(&pa.deadline_ns),
                "{backend}: deadline clamp: {}",
                pa.deadline_ns
            );
        }
    }
}

/// Runs the concurrent FastHTTP pair with 8 workers and returns the app
/// for inspection, with event tracing on so park/wake pairing is
/// auditable, issuing deferrable syscalls in mode `io`.
fn fasthttp_run(backend: Backend, io: IoMode, n: u64) -> FastHttpApp {
    let mut app = FastHttpApp::new(backend).unwrap();
    app.runtime_mut()
        .lb_mut()
        .telemetry_mut()
        .enable_trace(1 << 17);
    app.runtime_mut().lb_mut().clock_mut().reset();
    app.set_io_mode(io);
    let cfg = FastHttpConfig {
        workers: 8,
        ..FastHttpConfig::default()
    };
    let stats = app.serve_requests(n, cfg).unwrap();
    assert_eq!(stats.served, n, "{backend}: all requests served");
    app
}

/// The application-level differential: per backend, the async reactor
/// serves exactly the same requests as the synchronous batched ring
/// under 8 concurrent workers, conserves latency-histogram mass, and
/// charges **at most** the synchronous arm's crossings.
#[test]
fn async_fasthttp_is_equivalent_to_sync_batched_and_cheaper() {
    const N: u64 = 40;
    for backend in Backend::ALL {
        let sync = fasthttp_run(backend, IoMode::Quantum, N);
        let reactor = fasthttp_run(backend, IoMode::Adaptive, N);

        // Mass conservation: every request's latency is recorded in
        // both arms — parking never drops or double-counts a request.
        assert_eq!(sync.latency().count(), N, "{backend}: sync mass");
        assert_eq!(reactor.latency().count(), N, "{backend}: async mass");

        // Charged-crossing ledger: the reactor amortizes at least as
        // well as the per-quantum flush on the backend's charged metric.
        let ss = sync.runtime().lb().stats();
        let rs = reactor.runtime().lb().stats();
        match backend {
            Backend::Vtx => assert!(
                rs.vm_exits <= ss.vm_exits,
                "{backend}: {} > {} VM EXITs",
                rs.vm_exits,
                ss.vm_exits
            ),
            Backend::Mpk => assert!(
                rs.seccomp_checks <= ss.seccomp_checks,
                "{backend}: {} > {} seccomp checks",
                rs.seccomp_checks,
                ss.seccomp_checks
            ),
            _ => assert!(
                rs.ipc_roundtrips <= ss.ipc_roundtrips,
                "{backend}: {} > {} IPC round-trips",
                rs.ipc_roundtrips,
                ss.ipc_roundtrips
            ),
        }

        // End-to-end: completion-driven submission is at least as fast.
        let sync_ns = sync.runtime().lb().now_ns();
        let async_ns = reactor.runtime().lb().now_ns();
        assert!(
            async_ns <= sync_ns,
            "{backend}: async {async_ns} ns > sync {sync_ns} ns"
        );
    }
}

/// Park/wake is well-nested: every park is followed by exactly one wake
/// of the same goroutine/token pair, nothing stays parked at exit, the
/// span tree stays balanced, and the reactor actually parked (the test
/// would pass vacuously otherwise).
#[test]
fn park_wake_pairing_is_well_nested() {
    for backend in Backend::ALL {
        let app = fasthttp_run(backend, IoMode::Adaptive, 32);
        let rec = app.runtime().lb().telemetry();
        let mut parked: BTreeMap<u64, u64> = BTreeMap::new(); // token → goroutine
        let (mut parks, mut wakes) = (0u64, 0u64);
        for te in rec.recent_events() {
            match te.event {
                Event::GoPark { goroutine, token } => {
                    parks += 1;
                    assert_eq!(
                        parked.insert(token, goroutine),
                        None,
                        "{backend}: token {token} parked twice without a wake"
                    );
                }
                Event::GoWake { goroutine, token } => {
                    wakes += 1;
                    assert_eq!(
                        parked.remove(&token),
                        Some(goroutine),
                        "{backend}: wake of token {token} without a matching park"
                    );
                }
                _ => {}
            }
        }
        assert!(parks > 0, "{backend}: the reactor parked at least once");
        assert_eq!(parks, wakes, "{backend}: every park has its wake");
        assert!(
            parked.is_empty(),
            "{backend}: nothing parked at exit: {parked:?}"
        );
        let c = rec.counters();
        assert_eq!(
            (c.go_parks, c.go_wakes),
            (parks, wakes),
            "{backend}: counters agree"
        );
        assert_eq!(c.span_imbalances, 0, "{backend}: span tree balanced");
    }
}

/// Flush order is a deterministic function of the seed: two identical
/// async runs produce byte-identical telemetry — same counters (flush
/// triggers included), same charged ledger, same simulated clock, same
/// latency histogram.
#[test]
fn async_flush_order_is_deterministic_per_seed() {
    for backend in Backend::ALL {
        let a = fasthttp_run(backend, IoMode::Adaptive, 24);
        let b = fasthttp_run(backend, IoMode::Adaptive, 24);
        assert_eq!(
            a.runtime().lb().telemetry().counters(),
            b.runtime().lb().telemetry().counters(),
            "{backend}: counters"
        );
        assert_eq!(
            a.runtime().lb().stats(),
            b.runtime().lb().stats(),
            "{backend}: charged ledger"
        );
        assert_eq!(
            a.runtime().lb().now_ns(),
            b.runtime().lb().now_ns(),
            "{backend}: simulated clock"
        );
        assert_eq!(a.latency(), b.latency(), "{backend}: latency histogram");
    }
}
