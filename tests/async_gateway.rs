//! Differential harness for the completion-driven gateway (ISSUE 8).
//!
//! The equivalence theorem, checked per seed and per backend: the async
//! reactor ([`LitterBox::batch_submit`] + [`litterbox::CompletionToken`] +
//! adaptive flush) is **observationally equivalent** to the
//! synchronous ring (`batch_enqueue` + `batch_flush` +
//! `batch_take_completions`) —
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
    InjectionPlan, InjectionSite, LitterBox, ProgramDesc,
};

const BACKENDS: [Backend; 3] = [Backend::Mpk, Backend::Vtx, Backend::Proc];

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
/// it is comparable across machines whose flush schedules differ).
fn pure_op(rng: &mut enclosure_support::XorShift) -> BatchOp {
    match rng.range_usize(0, 4) {
        0 => BatchOp::Getuid,
        1 => BatchOp::Getpid,
        2 => BatchOp::Futex,
        _ => BatchOp::Nanosleep(rng.range_u64(10, 500)),
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

enclosure_support::props! {
    /// **The equivalence theorem, schedule held fixed.** The same ops,
    /// submitters, and explicit flush points driven through the
    /// synchronous ring and through `batch_submit` tokens (policy
    /// installed but its triggers out of reach) produce identical
    /// per-submitter result streams, identical charged-crossing
    /// ledgers, and an identical simulated clock. Every token posts
    /// exactly once: first poll `Some`, second poll `None`.
    fn async_reactor_equals_synchronous_ring_on_a_shared_schedule(rng, cases = 24) {
        let backend = *rng.choose(&BACKENDS);
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

        // Synchronous arm.
        let (mut sync, cs) = lab(backend);
        sync.enable_batching();
        let t = sync.prolog(EnclosureId(1), cs).unwrap();
        for i in 0..n_ops {
            sync.batch_enqueue(subs[i], ops[i].clone()).unwrap();
            if flush_after[i] {
                sync.batch_flush().unwrap();
            }
        }
        sync.epilog(t).unwrap(); // barrier flushes the tail
        let sync_streams = streams_of(sync.batch_take_completions());

        // Async arm: same schedule, driven through tokens. The policy
        // is real but unreachable, so only the shared schedule flushes.
        let (mut reactor, cs) = lab(backend);
        reactor.enable_batching();
        reactor.set_flush_policy(Some(FlushPolicy {
            max_batch: usize::MAX / 2,
            deadline_ns: u64::MAX / 2,
        }));
        let t = reactor.prolog(EnclosureId(1), cs).unwrap();
        let mut tokens: Vec<(u64, CompletionToken)> = Vec::new();
        for i in 0..n_ops {
            let tok = reactor.batch_submit(subs[i], ops[i].clone()).unwrap();
            tokens.push((subs[i], tok));
            if flush_after[i] {
                reactor.batch_flush().unwrap();
            }
        }
        reactor.epilog(t).unwrap();

        // No completion lost, none double-posted.
        let mut reactor_streams: Streams = BTreeMap::new();
        for &(sub, tok) in &tokens {
            assert!(reactor.batch_is_complete(tok), "{backend}: token incomplete");
            let c = reactor.batch_poll(tok).expect("first poll posts");
            assert_eq!(c.seq, tok.seq());
            reactor_streams.entry(sub).or_default().push((c.sysno, c.result));
            assert!(
                reactor.batch_poll(tok).is_none(),
                "{backend}: a completion must post at most once"
            );
        }

        assert_eq!(reactor_streams, sync_streams, "{backend}: result streams");
        assert_eq!(reactor.stats(), sync.stats(), "{backend}: charged ledgers");
        assert_eq!(reactor.now_ns(), sync.now_ns(), "{backend}: simulated clocks");
    }

    /// **Results are invariant under the flush schedule.** With the
    /// adaptive triggers live (tiny `max_batch`, deadline flushes fired
    /// whenever due) the reactor charges crossings at different
    /// instants than the synchronous ring — but every entry still
    /// completes with exactly the result the synchronous ring gave it.
    fn results_are_invariant_under_the_flush_schedule(rng, cases = 24) {
        let backend = *rng.choose(&BACKENDS);
        let n_ops = rng.range_usize(8, 48);
        let submitters = rng.range_u64(1, 5);
        let ops: Vec<BatchOp> = (0..n_ops).map(|_| pure_op(rng)).collect();
        let subs: Vec<u64> = (0..n_ops).map(|_| rng.range_u64(1, submitters + 1)).collect();

        // Synchronous arm: one flush at the end (epilog barrier).
        let (mut sync, cs) = lab(backend);
        sync.enable_batching();
        let t = sync.prolog(EnclosureId(1), cs).unwrap();
        for i in 0..n_ops {
            sync.batch_enqueue(subs[i], ops[i].clone()).unwrap();
        }
        sync.epilog(t).unwrap();
        let sync_streams = streams_of(sync.batch_take_completions());

        // Reactor arm: size trigger fires every few submissions, and
        // the deadline trigger is exercised whenever it comes due.
        let (mut reactor, cs) = lab(backend);
        reactor.enable_batching();
        reactor.set_flush_policy(Some(FlushPolicy {
            max_batch: rng.range_usize(2, 7),
            deadline_ns: rng.range_u64(500, 5_000),
        }));
        let t = reactor.prolog(EnclosureId(1), cs).unwrap();
        let mut tokens: Vec<(u64, CompletionToken)> = Vec::new();
        for i in 0..n_ops {
            let tok = reactor.batch_submit(subs[i], ops[i].clone()).unwrap();
            tokens.push((subs[i], tok));
            if reactor.batch_flush_due() {
                reactor.batch_flush_deadline().unwrap();
            }
        }
        reactor.epilog(t).unwrap();

        let mut reactor_streams: Streams = BTreeMap::new();
        for &(sub, tok) in &tokens {
            let c = reactor.batch_poll(tok).expect("every token posts once");
            reactor_streams.entry(sub).or_default().push((c.sysno, c.result));
        }
        assert_eq!(
            reactor_streams, sync_streams,
            "{backend}: flush boundaries moved, results must not"
        );
        // The triggers actually fired: this case exercised the policy,
        // not just the epilog barrier.
        let c = reactor.telemetry().counters();
        assert!(
            c.flush_size_triggers + c.flush_deadline_triggers > 0,
            "{backend}: policy triggers live"
        );
    }

    /// **A faulting entry wakes its submitter with its errno without
    /// poisoning batch-mates.** One surgical `GatewayErrno` injection
    /// into a multi-submitter batch: exactly one completion carries the
    /// transient errno, every other completes `Ok`, and none is lost.
    fn faulting_entry_is_contained_to_its_submitter(rng, cases = 12) {
        let backend = *rng.choose(&BACKENDS);
        let n_ops = rng.range_usize(4, 12);
        let (mut lb, cs) = lab(backend);
        lb.enable_batching();
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let mut tokens = Vec::new();
        for i in 0..n_ops {
            tokens.push(lb.batch_submit(i as u64, BatchOp::Getpid).unwrap());
        }
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::GatewayErrno));
        lb.batch_flush().unwrap();
        lb.clock_mut().disarm_injection();
        let mut errs = 0;
        for tok in tokens {
            let c = lb.batch_poll(tok).expect("fault must not lose completions");
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

    /// **`completion_lost` degrades to an errno, never to silence.**
    /// The corrupted completion still posts (with a transient errno),
    /// so its submitter wakes; batch-mates are untouched.
    fn lost_completion_still_wakes_its_submitter(rng, cases = 12) {
        let backend = *rng.choose(&BACKENDS);
        let n_ops = rng.range_usize(3, 10);
        let (mut lb, cs) = lab(backend);
        lb.enable_batching();
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let mut tokens = Vec::new();
        for i in 0..n_ops {
            tokens.push(lb.batch_submit(i as u64, BatchOp::Getuid).unwrap());
        }
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::CompletionLost));
        lb.batch_flush().unwrap();
        lb.clock_mut().disarm_injection();
        let results: Vec<_> = tokens
            .into_iter()
            .map(|tok| lb.batch_poll(tok).expect("corruption posts, never drops"))
            .collect();
        let errs = results.iter().filter(|c| c.result.is_err()).count();
        assert_eq!(errs, 1, "{backend}: one corrupted completion");
        assert_eq!(results.len(), n_ops, "{backend}: mass conserved");
        lb.epilog(t).unwrap();
    }

    /// **A lost deadline flush leaves the batch intact.** The
    /// `flush_deadline` site aborts the flush before any entry is
    /// serviced; a retry services every entry exactly once.
    fn lost_deadline_flush_is_retried_without_loss(rng, cases = 12) {
        let backend = *rng.choose(&BACKENDS);
        let n_ops = rng.range_usize(2, 9);
        let (mut lb, cs) = lab(backend);
        lb.enable_batching();
        lb.set_flush_policy(Some(FlushPolicy {
            max_batch: usize::MAX / 2,
            deadline_ns: 1_000,
        }));
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let mut tokens = Vec::new();
        for i in 0..n_ops {
            tokens.push(lb.batch_submit(i as u64, BatchOp::Futex).unwrap());
        }
        lb.clock_mut().advance(2_000);
        assert!(lb.batch_flush_due(), "{backend}: deadline elapsed");
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::FlushDeadline));
        let err = lb.batch_flush_deadline().unwrap_err();
        assert!(err.is_transient(), "{backend}: {err:?}");
        assert_eq!(lb.batch_pending(), n_ops, "{backend}: nothing serviced, nothing lost");
        assert_eq!(
            lb.batch_flush_deadline().unwrap(),
            n_ops,
            "{backend}: retry services every entry once"
        );
        lb.clock_mut().disarm_injection();
        for tok in tokens {
            assert!(lb.batch_poll(tok).is_some(), "{backend}: all posted");
            assert!(lb.batch_poll(tok).is_none(), "{backend}: exactly once");
        }
        lb.epilog(t).unwrap();
    }

    /// **The adaptive policy is a pure function of the recorded
    /// histograms.** Two machines with identical histories size
    /// identical policies, and the sizing always lands inside the
    /// documented clamps.
    fn adaptive_policy_is_deterministic_and_clamped(rng, cases = 8) {
        let backend = *rng.choose(&BACKENDS);
        let rounds = rng.range_usize(0, 4);
        let seed_history = |(mut lb, cs): (LitterBox, Addr)| -> LitterBox {
            lb.enable_batching();
            for _ in 0..rounds {
                let t = lb.prolog(EnclosureId(1), cs).unwrap();
                for _ in 0..6 {
                    lb.batch_enqueue(1, BatchOp::Getpid).unwrap();
                }
                lb.batch_flush().unwrap();
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

/// Runs the concurrent FastHTTP pair and returns the app for
/// inspection, with event tracing on so park/wake pairing is auditable.
fn fasthttp_run(backend: Backend, cfg: FastHttpConfig, n: u64) -> FastHttpApp {
    let mut app = FastHttpApp::new(backend).unwrap();
    app.runtime_mut()
        .lb_mut()
        .telemetry_mut()
        .enable_trace(1 << 17);
    app.runtime_mut().lb_mut().clock_mut().reset();
    let stats = app.serve_requests(n, cfg).unwrap();
    assert_eq!(stats.served, n, "{backend}: all requests served");
    app
}

const SYNC_8: FastHttpConfig = FastHttpConfig {
    parse_ns: 9_000,
    handler_ns: 28_000,
    batched_io: true,
    async_io: false,
    workers: 8,
};
const ASYNC_8: FastHttpConfig = FastHttpConfig {
    parse_ns: 9_000,
    handler_ns: 28_000,
    batched_io: false,
    async_io: true,
    workers: 8,
};

/// The application-level differential: per backend, the async reactor
/// serves exactly the same requests as the synchronous batched ring
/// under 8 concurrent workers, conserves latency-histogram mass, and
/// charges **at most** the synchronous arm's crossings.
#[test]
fn async_fasthttp_is_equivalent_to_sync_batched_and_cheaper() {
    const N: u64 = 40;
    for backend in BACKENDS {
        let sync = fasthttp_run(backend, SYNC_8, N);
        let reactor = fasthttp_run(backend, ASYNC_8, N);

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
    for backend in BACKENDS {
        let app = fasthttp_run(backend, ASYNC_8, 32);
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
    for backend in BACKENDS {
        let a = fasthttp_run(backend, ASYNC_8, 24);
        let b = fasthttp_run(backend, ASYNC_8, 24);
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
