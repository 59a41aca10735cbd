//! The FastHTTP workload (§6.2): "an industry-grade … performance-
//! oriented HTTP server. … To prevent FastHTTP from accessing an
//! application's sensitive resources, we create and run the server in an
//! enclosure, only allowed to perform net-related system calls. The
//! enclosure forwards requests to a trusted handler goroutine via go
//! channels" — the secured-callback pattern.
//!
//! Two goroutines drive each request: the *enclosed* server (accept,
//! read, parse, forward, reply) and the *trusted* handler (build the 13 KB
//! page). The scheduler's `Execute` switches between their protection
//! environments every hop.

use std::collections::HashMap;
use std::sync::OnceLock;

use enclosure_gofront::{
    sched::Recv, ChanId, GoCtx, GoProgram, GoRuntime, GoSource, GoValue, Step,
};
use enclosure_support::Shared;
use enclosure_telemetry::Histogram;
use litterbox::{Backend, BatchOp, Fault, IoMode, LitterBox, SysError};

use crate::chaos::{degrade_conn, finish_request, listen_retrying, retry_transient, ChaosTally};
use crate::client::Clients;
use crate::httpd::{repeat_page, ServeStats, PAGE_SIZE_BYTES};

/// Server listen port.
pub const FASTHTTP_PORT: u16 = 8081;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct FastHttpConfig {
    /// Parse compute per request. FastHTTP's zero-allocation parser is
    /// much faster than net/http's ("FastHTTP service time to accept
    /// connections and parse requests is significantly smaller").
    pub parse_ns: u64,
    /// Trusted handler compute per request.
    pub handler_ns: u64,
    /// Concurrent enclosed server goroutines sharing one listener.
    /// `1` (the default) keeps the original single-server trace;
    /// larger values exercise the reactor under concurrency.
    pub workers: usize,
}

impl Default for FastHttpConfig {
    fn default() -> Self {
        // Calibrated near the paper's 22,867 req/s baseline (43.7 µs).
        FastHttpConfig {
            parse_ns: 9_000,
            handler_ns: 28_000,
            workers: 1,
        }
    }
}

/// The assembled FastHTTP application.
#[derive(Debug)]
pub struct FastHttpApp {
    rt: GoRuntime,
    latency: Shared<Histogram>,
    /// Completed `serve_requests` calls. Each call listens on its own
    /// port (`FASTHTTP_PORT + calls`), because the previous call's
    /// listener stays bound in the simulated kernel — this is what lets
    /// a fleet shard serve its workload in many small batches on one
    /// app.
    serve_calls: u64,
}

enum ServerState {
    Setup,
    Running { listen: u32 },
}

/// The trusted handler's `200 OK` reply: headers plus the 13 KB page.
/// Built once per process; every request gets a copy.
fn ok_response() -> &'static [u8] {
    static RESPONSE: OnceLock<Vec<u8>> = OnceLock::new();
    RESPONSE.get_or_init(|| {
        let mut response =
            format!("HTTP/1.1 200 OK\r\nContent-Length: {PAGE_SIZE_BYTES}\r\n\r\n").into_bytes();
        response.extend(repeat_page(b"<html>fast</html>"));
        response
    })
}

fn request(i: u64) -> Vec<u8> {
    format!("GET /fast/{i} HTTP/1.1\r\n\r\n").into_bytes()
}

/// The deferrable reply tail of one connection, in issue order: worker
/// wake, headers, body, close, teardown wake, access-log timestamp.
fn reply_tail(conn: u32, headers: Vec<u8>, rest: Vec<u8>) -> [BatchOp; 6] {
    [
        BatchOp::Futex,
        BatchOp::Send {
            fd: conn,
            data: headers,
        },
        BatchOp::Send {
            fd: conn,
            data: rest,
        },
        BatchOp::Close { fd: conn },
        BatchOp::Futex,
        BatchOp::ClockGettime,
    ]
}

/// Spawns the trusted handler: in a real deployment it would read the
/// private database the enclosure cannot see. A request is a tuple whose
/// last field says whether it parsed; the fields before it (the
/// connection, and the accept timestamp on the concurrent path) pass
/// through untouched, and the reply takes the flag's place as two byte
/// strings — its first 128 bytes and the rest — which the server sends
/// in two writes ([`reply_tail`]) without joining them.
fn spawn_trusted_handler(rt: &mut GoRuntime, req_ch: ChanId, resp_ch: ChanId, handler_ns: u64) {
    rt.spawn("trusted-handler", move |ctx| {
        match ctx.chan_recv(req_ch)? {
            Recv::Value(v) => {
                let mut parts = v.into_tuple()?;
                let ok = parts.pop().unwrap_or_default().as_bool()?;
                ctx.compute(handler_ns);
                let reply = if ok {
                    ok_response()
                } else {
                    b"HTTP/1.1 400 Bad Request\r\n\r\n"
                };
                let (headers, rest) = reply.split_at(reply.len().min(128));
                parts.push(GoValue::Bytes(headers.to_vec()));
                parts.push(GoValue::Bytes(rest.to_vec()));
                ctx.chan_send(resp_ch, GoValue::Tuple(parts))?;
                Ok(Step::Yield)
            }
            Recv::Empty => Ok(Step::Yield),
            Recv::Closed => Ok(Step::Done),
        }
    });
}

impl FastHttpApp {
    /// Builds the application: `fasthttp` (374K LOC with its 3 public
    /// deps) plus the 76-LOC main.
    ///
    /// # Errors
    ///
    /// Build faults.
    pub fn new(backend: Backend) -> Result<FastHttpApp, Fault> {
        let mut program = GoProgram::new();
        program.add_source(GoSource::new("bytebufferpool").loc(40_000));
        program.add_source(GoSource::new("compress").loc(80_000));
        program.add_source(GoSource::new("tcplisten").loc(14_000));
        program.add_source(
            GoSource::new("fasthttp")
                .imports(&["bytebufferpool", "compress", "tcplisten"])
                .loc(240_000),
        );
        program.add_source(
            GoSource::new("main")
                .imports(&["fasthttp"])
                .global("secretConfig", 64)
                .loc(76)
                // Server enclosure: socket operations plus the
                // timestamps/futexes a server loop needs — no file
                // system, no process control.
                .enclosure("server_enc", "fasthttp.Serve", "net io time sync"),
        );
        let rt = program.build(backend)?;
        Ok(FastHttpApp {
            rt,
            latency: Shared::default(),
            serve_calls: 0,
        })
    }

    /// The runtime.
    #[must_use]
    pub fn runtime(&self) -> &GoRuntime {
        &self.rt
    }

    /// Mutable runtime access.
    pub fn runtime_mut(&mut self) -> &mut GoRuntime {
        &mut self.rt
    }

    /// Sets how the enclosed server issues its deferrable syscalls
    /// (deadline reads, the netpoll arm, the reply tail) on this app's
    /// machine. `Immediate` by default: Table 2 measures the unbatched
    /// trace, ~11 charged crossings per request. `Quantum` pays one per
    /// flushed quantum instead; under `Adaptive` workers park on their
    /// reply tails while the flush policy and the switch barriers
    /// decide when the accumulated batch crosses.
    pub fn set_io_mode(&mut self, mode: IoMode) {
        self.rt.lb_mut().set_io_mode(mode);
    }

    /// Per-request latency distribution: simulated ns from the server's
    /// `accept` to the reply (or 503) leaving on that connection,
    /// accumulated across [`FastHttpApp::serve_requests`] calls.
    #[must_use]
    pub fn latency(&self) -> Histogram {
        self.latency.borrow().clone()
    }

    /// Serves `n` requests through the enclosed-server / trusted-handler
    /// goroutine pair and reports throughput. Client traffic runs on a
    /// scratch clock (outside the measured machine).
    ///
    /// # Errors
    ///
    /// Any goroutine fault (including scheduler deadlock).
    pub fn serve_requests(&mut self, n: u64, cfg: FastHttpConfig) -> Result<ServeStats, Fault> {
        // First call keeps the paper's port; later calls (fleet batch
        // serving) each take a fresh one, since old listeners stay
        // bound. The wrap keeps the port a u16 without colliding for
        // any realistic number of calls.
        let port = FASTHTTP_PORT + u16::try_from(self.serve_calls % 40_000).expect("bounded");
        self.serve_calls += 1;
        if cfg.workers > 1 {
            return self.serve_requests_concurrent(n, cfg, port);
        }
        let req_ch = self.rt.make_chan(64);
        let resp_ch = self.rt.make_chan(64);
        let tally: Shared<ChaosTally> = Shared::default();

        // Enclosed server goroutine: listener setup, then per-request
        // accept/read/parse/forward and reply/close. Under fault
        // injection it degrades instead of dying: transient errnos are
        // retried in place, and a request whose handling faults is
        // answered with a 503 while the loop keeps serving.
        let parse_ns = cfg.parse_ns;
        let mut state = ServerState::Setup;
        let mut accepted = 0u64;
        let mut replied = 0u64;
        let mut degraded = 0u64;
        let srv_tally = tally.clone();
        // Accept timestamp per live connection; closed out into the
        // latency histogram when the reply (or 503) leaves.
        let mut accept_ns: HashMap<u32, u64> = HashMap::new();
        let latency = self.latency.clone();
        self.rt
            .spawn_enclosed("fasthttp-server", "server_enc", move |ctx| {
                if let ServerState::Setup = state {
                    match listen_retrying(&srv_tally, ctx.lb_mut(), port) {
                        Ok(listen) => state = ServerState::Running { listen },
                        // Retry the whole setup next round.
                        Err(e) if e.is_transient() => {}
                        Err(e) => return Err(e.into()),
                    }
                    return Ok(Step::Yield);
                }
                let ServerState::Running { listen } = state else {
                    unreachable!()
                };
                // Deferrable calls issue through the gateway, retrying
                // transient errors in place (only an immediate op can
                // fail at submission). The op is lent, so it is copied
                // only if it queues.
                let submit = |lb: &mut LitterBox, conn: u32, op: &BatchOp| {
                    retry_transient(&srv_tally, || lb.submit(u64::from(conn), op))
                };
                // Drain posted completions: per-entry errors are
                // contained (each completion carries its own errno), so
                // draining keeps the ring bounded.
                let _ = ctx.lb_mut().take_completions();
                // Accept + parse one request, forward to the trusted side.
                if accepted < n {
                    match retry_transient(&srv_tally, || ctx.lb_mut().sys_accept(listen)) {
                        Ok(conn) => {
                            accept_ns.insert(conn, ctx.lb().now_ns());
                            // `recv` stays synchronous: its bytes gate
                            // progress. The deadline reads and the
                            // netpoll arm around it are deferrable.
                            let head = (|| -> Result<Vec<u8>, SysError> {
                                submit(ctx.lb_mut(), conn, &BatchOp::ClockGettime)?;
                                let head = retry_transient(&srv_tally, || {
                                    ctx.lb_mut().sys_recv(conn, 4096)
                                })?;
                                submit(ctx.lb_mut(), conn, &BatchOp::ClockGettime)?;
                                submit(ctx.lb_mut(), conn, &BatchOp::Futex)?;
                                Ok(head)
                            })();
                            match head {
                                Ok(head) => {
                                    ctx.compute(parse_ns);
                                    let ok = head.starts_with(b"GET ");
                                    if ctx.chan_send(
                                        req_ch,
                                        GoValue::Tuple(vec![
                                            GoValue::Int(u64::from(conn)),
                                            GoValue::Bool(ok),
                                        ]),
                                    )? {
                                        accepted += 1;
                                    }
                                }
                                Err(e) if e.is_transient() => {
                                    // Degrade: 5xx this request, keep the
                                    // server alive.
                                    degrade_conn(ctx.lb_mut(), conn, true);
                                    accepted += 1;
                                    degraded += 1;
                                    if let Some(t0) = accept_ns.remove(&conn) {
                                        finish_request(
                                            &srv_tally,
                                            &latency,
                                            ctx.lb_mut(),
                                            t0,
                                            false,
                                        );
                                    }
                                }
                                Err(e) => return Err(e.into()),
                            }
                        }
                        Err(SysError::Errno(_)) => {}
                        // An injected transient fault (e.g. a lost
                        // VM EXIT) before any connection state exists:
                        // nothing to degrade, try again next round.
                        Err(e) if e.is_transient() => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                // Send out any finished response.
                match ctx.chan_recv(resp_ch)? {
                    Recv::Value(v) => {
                        let mut parts = v.into_tuple()?;
                        let rest = parts.pop().unwrap_or_default().into_bytes()?;
                        let headers = parts.pop().unwrap_or_default().into_bytes()?;
                        let conn = u32::try_from(parts[0].as_int()?).expect("fd fits");
                        let sent = reply_tail(conn, headers, rest)
                            .iter()
                            .try_for_each(|op| submit(ctx.lb_mut(), conn, op).map(drop));
                        let mut ok = true;
                        match sent {
                            Ok(()) => {}
                            Err(e) if e.is_transient() => {
                                degrade_conn(ctx.lb_mut(), conn, false);
                                ok = false;
                            }
                            Err(e) => return Err(e.into()),
                        }
                        if let Some(t0) = accept_ns.remove(&conn) {
                            finish_request(&srv_tally, &latency, ctx.lb_mut(), t0, ok);
                        }
                        replied += 1;
                    }
                    Recv::Empty => {}
                    Recv::Closed => return Ok(Step::Done),
                }
                if replied + degraded == n {
                    ctx.chan_close(req_ch)?;
                    return Ok(Step::Done);
                }
                Ok(Step::Yield)
            })?;

        spawn_trusted_handler(&mut self.rt, req_ch, resp_ch, cfg.handler_ns);
        let clients = Clients::spawn(&mut self.rt, "load-generator", port, n, request);

        let t0 = self.rt.lb().now_ns();
        self.rt.run_scheduler()?;
        let _ = self.rt.lb_mut().take_completions();
        let ns = self.rt.lb().now_ns() - t0;
        let tally = *tally.borrow();
        let served = n - tally.degraded;
        clients.reap(self.rt.lb_mut(), served, |reply| reply == ok_response())?;
        Ok(ServeStats::new(served, ns).with_tally(tally))
    }

    /// Serves `n` requests with `cfg.workers` concurrent enclosed
    /// server goroutines sharing one listener (plus the trusted handler
    /// and the load generator). Each worker submits its reply tail and
    /// parks on the last token. Under `Immediate` that token is already
    /// complete, so the worker retires the request at once; under
    /// `Quantum` the quantum flush completes it before the park takes
    /// effect; under `Adaptive` the worker parks until the flush policy
    /// or a switch barrier pays one charged crossing for every worker's
    /// batch. The request results are identical in every mode — only
    /// the flush schedule and the charged-crossing ledger differ.
    fn serve_requests_concurrent(
        &mut self,
        n: u64,
        cfg: FastHttpConfig,
        port: u16,
    ) -> Result<ServeStats, Fault> {
        let cap = usize::try_from(n).unwrap_or(usize::MAX).max(64);
        let req_ch = self.rt.make_chan(cap);
        let resp_ch = self.rt.make_chan(cap);
        let listener: Shared<Option<u32>> = Shared::default();
        let accepted: Shared<u64> = Shared::default();
        let replied: Shared<u64> = Shared::default();
        let closed: Shared<bool> = Shared::default();
        let tally: Shared<ChaosTally> = Shared::default();

        // Under fault injection the workers degrade like the single
        // server: transient errnos are retried in place, and a request
        // whose handling still fails is answered with a 503 (or closed)
        // and counted as finished.
        for w in 0..cfg.workers {
            let tally = tally.clone();
            let listener = listener.clone();
            let accepted = accepted.clone();
            let replied = replied.clone();
            let closed = closed.clone();
            let latency = self.latency.clone();
            let parse_ns = cfg.parse_ns;
            // The reply tail this worker parked on: reaped (and its
            // latency recorded) next quantum, after the flush that
            // serviced it.
            let mut shipped: Option<(u32, u64)> = None;
            self.rt
                .spawn_enclosed(&format!("fasthttp-worker-{w}"), "server_enc", move |ctx| {
                    let Some(listen) = listener.get() else {
                        // Worker 0 owns listener setup; peers wait.
                        if w == 0 {
                            match listen_retrying(&tally, ctx.lb_mut(), port) {
                                Ok(fd) => listener.set(Some(fd)),
                                // Retry the whole setup next round.
                                Err(e) if e.is_transient() => {}
                                Err(e) => return Err(e.into()),
                            }
                        }
                        return Ok(Step::Yield);
                    };
                    let submit = |lb: &mut LitterBox, conn: u32, op: &BatchOp| {
                        retry_transient(&tally, || lb.submit(u64::from(conn), op))
                    };
                    // Closes a request out into the latency histogram.
                    let retire = |ctx: &mut GoCtx<'_>, conn: u32, t0: u64, ok: bool| {
                        let _ = ctx.lb_mut().take_completions_for(u64::from(conn));
                        finish_request(&tally, &latency, ctx.lb_mut(), t0, ok);
                        replied.set(replied.get() + 1);
                    };
                    if let Some((conn, t0)) = shipped.take() {
                        retire(ctx, conn, t0, true);
                    }
                    if replied.get() >= n {
                        if !closed.get() {
                            ctx.chan_close(req_ch)?;
                            closed.set(true);
                        }
                        return Ok(Step::Done);
                    }
                    // Ship one finished response (any worker may carry
                    // any connection — the accept timestamp rides the
                    // channels).
                    if let Recv::Value(v) = ctx.chan_recv(resp_ch)? {
                        let mut parts = v.into_tuple()?;
                        let rest = parts.pop().unwrap_or_default().into_bytes()?;
                        let headers = parts.pop().unwrap_or_default().into_bytes()?;
                        let conn = u32::try_from(parts[0].as_int()?).expect("fd fits");
                        let t0 = parts[1].as_int()?;
                        let [tail @ .., last] = reply_tail(conn, headers, rest);
                        let sent = tail
                            .iter()
                            .try_for_each(|op| submit(ctx.lb_mut(), conn, op).map(drop))
                            .and_then(|()| submit(ctx.lb_mut(), conn, &last));
                        let last = match sent {
                            Ok(last) => last,
                            Err(e) if e.is_transient() => {
                                degrade_conn(ctx.lb_mut(), conn, false);
                                retire(ctx, conn, t0, false);
                                return Ok(Step::Yield);
                            }
                            Err(e) => return Err(e.into()),
                        };
                        // A tail whose last op already completed (serviced
                        // at submission, or flushed by the size trigger)
                        // has left: retire it now instead of parking.
                        if ctx.lb().is_complete(last) {
                            retire(ctx, conn, t0, true);
                            return Ok(Step::Yield);
                        }
                        shipped = Some((conn, t0));
                        return Ok(Step::Park(last));
                    }
                    // Accept + parse + forward one request. `accept` and
                    // `recv` stay synchronous: their results gate
                    // progress. An errno from `accept` (EAGAIN on an
                    // empty queue, or an injected one) is not retried in
                    // place: the worker yields and accepts next round.
                    if accepted.get() < n {
                        match ctx.lb_mut().sys_accept(listen) {
                            Ok(conn) => {
                                let t0 = ctx.lb().now_ns();
                                let head = (|| -> Result<Vec<u8>, SysError> {
                                    submit(ctx.lb_mut(), conn, &BatchOp::ClockGettime)?;
                                    let head = retry_transient(&tally, || {
                                        ctx.lb_mut().sys_recv(conn, 4096)
                                    })?;
                                    submit(ctx.lb_mut(), conn, &BatchOp::ClockGettime)?;
                                    submit(ctx.lb_mut(), conn, &BatchOp::Futex)?;
                                    Ok(head)
                                })();
                                match head {
                                    Ok(head) => {
                                        ctx.compute(parse_ns);
                                        let ok = head.starts_with(b"GET ");
                                        if ctx.chan_send(
                                            req_ch,
                                            GoValue::Tuple(vec![
                                                GoValue::Int(u64::from(conn)),
                                                GoValue::Int(t0),
                                                GoValue::Bool(ok),
                                            ]),
                                        )? {
                                            accepted.set(accepted.get() + 1);
                                        }
                                    }
                                    Err(e) if e.is_transient() => {
                                        accepted.set(accepted.get() + 1);
                                        degrade_conn(ctx.lb_mut(), conn, true);
                                        retire(ctx, conn, t0, false);
                                    }
                                    Err(e) => return Err(e.into()),
                                }
                            }
                            Err(SysError::Errno(_)) => {}
                            // An injected transient fault before any
                            // connection state exists: try next round.
                            Err(e) if e.is_transient() => {}
                            Err(e) => return Err(e.into()),
                        }
                    }
                    Ok(Step::Yield)
                })?;
        }

        spawn_trusted_handler(&mut self.rt, req_ch, resp_ch, cfg.handler_ns);
        let clients = Clients::spawn(&mut self.rt, "load-generator", port, n, request);

        let t0 = self.rt.lb().now_ns();
        self.rt.run_scheduler()?;
        let _ = self.rt.lb_mut().take_completions();
        let ns = self.rt.lb().now_ns() - t0;
        let tally = *tally.borrow();
        let served = n - tally.degraded;
        clients.reap(self.rt.lb_mut(), served, |reply| reply == ok_response())?;
        Ok(ServeStats::new(served, ns).with_tally(tally))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_all_requests_on_all_backends() {
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut app = FastHttpApp::new(backend).unwrap();
            let stats = app.serve_requests(8, FastHttpConfig::default()).unwrap();
            assert_eq!(stats.served, 8, "{backend}");
            assert!(stats.reqs_per_sec > 0.0);
        }
    }

    #[test]
    fn slowdown_ordering_matches_table2() {
        // FastHTTP row: MPK ≈ 1.04×, VT-x ≈ 2× — and VT-x's slowdown here
        // exceeds plain HTTP's because service time is smaller while the
        // syscall overhead is unchanged.
        let mut rates = Vec::new();
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut app = FastHttpApp::new(backend).unwrap();
            app.runtime_mut().lb_mut().clock_mut().reset();
            rates.push(
                app.serve_requests(20, FastHttpConfig::default())
                    .unwrap()
                    .reqs_per_sec,
            );
        }
        let (base, mpk, vtx) = (rates[0], rates[1], rates[2]);
        assert!(
            base / mpk < 1.15,
            "MPK close to baseline: {:.3}",
            base / mpk
        );
        assert!(base / vtx > 1.5, "VT-x pays dearly: {:.3}", base / vtx);
        assert!(base / vtx > base / mpk);
    }

    #[test]
    fn quantum_io_amortizes_crossings_at_equal_request_counts() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let mut plain = FastHttpApp::new(backend).unwrap();
            plain.runtime_mut().lb_mut().clock_mut().reset();
            plain.serve_requests(10, FastHttpConfig::default()).unwrap();
            let mut batched = FastHttpApp::new(backend).unwrap();
            batched.runtime_mut().lb_mut().clock_mut().reset();
            batched.set_io_mode(IoMode::Quantum);
            let stats = batched
                .serve_requests(10, FastHttpConfig::default())
                .unwrap();
            assert_eq!(stats.served, 10, "{backend}");
            let p = plain.runtime().lb().stats();
            let b = batched.runtime().lb().stats();
            if backend == Backend::Vtx {
                assert!(
                    b.vm_exits * 2 <= p.vm_exits,
                    "batched VM EXITs at least halve: {} vs {}",
                    b.vm_exits,
                    p.vm_exits
                );
            } else {
                assert!(
                    b.seccomp_checks < p.seccomp_checks,
                    "batched seccomp evaluations strictly fewer: {} vs {}",
                    b.seccomp_checks,
                    p.seccomp_checks
                );
            }
        }
    }

    #[test]
    fn workers_serve_all_requests_in_every_io_mode() {
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            for workers in [1, 4] {
                let mut app = FastHttpApp::new(backend).unwrap();
                app.runtime_mut().lb_mut().clock_mut().reset();
                for io in [IoMode::Immediate, IoMode::Quantum, IoMode::Adaptive] {
                    app.set_io_mode(io);
                    let cfg = FastHttpConfig {
                        workers,
                        ..FastHttpConfig::default()
                    };
                    let before = app.latency().count();
                    let parks = app.runtime().lb().telemetry().counters().go_parks;
                    let stats = app.serve_requests(24, cfg).unwrap();
                    assert_eq!(stats.served, 24, "{backend} workers={workers} {io:?}");
                    assert_eq!(
                        app.latency().count() - before,
                        24,
                        "{backend} workers={workers} {io:?}: every request timed"
                    );
                    assert_eq!(
                        app.runtime().lb().pending_submissions(),
                        0,
                        "{backend} workers={workers} {io:?}: nothing left queued"
                    );
                    // Only the reactor leaves a tail pending past the
                    // quantum boundary: immediate tails are complete on
                    // return, and the quantum flush completes the rest
                    // before the park check.
                    let c = app.runtime().lb().telemetry().counters();
                    if io != IoMode::Adaptive {
                        assert_eq!(c.go_parks, parks, "{backend} workers={workers} {io:?}");
                    }
                    assert_eq!(c.go_parks, c.go_wakes, "{backend} workers={workers} {io:?}");
                }
            }
        }
    }

    #[test]
    fn async_submission_beats_per_quantum_flush_under_concurrency() {
        // The acceptance bar: with >= 8 concurrent enclosed workers,
        // completion-driven submission (accumulate + park) must beat
        // the synchronous batched gateway (flush every quantum) end to
        // end, because one charged crossing now covers every worker's
        // quantum instead of one each.
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let cfg = FastHttpConfig {
                workers: 8,
                ..FastHttpConfig::default()
            };
            let mut sync_app = FastHttpApp::new(backend).unwrap();
            sync_app.runtime_mut().lb_mut().clock_mut().reset();
            sync_app.set_io_mode(IoMode::Quantum);
            let sync_stats = sync_app.serve_requests(48, cfg).unwrap();
            let mut async_app = FastHttpApp::new(backend).unwrap();
            async_app.runtime_mut().lb_mut().clock_mut().reset();
            async_app.set_io_mode(IoMode::Adaptive);
            let async_stats = async_app.serve_requests(48, cfg).unwrap();
            assert_eq!(sync_stats.served, 48, "{backend}");
            assert_eq!(async_stats.served, 48, "{backend}");
            assert!(
                async_stats.ns <= sync_stats.ns,
                "{backend}: async {} ns vs sync {} ns",
                async_stats.ns,
                sync_stats.ns
            );
            if backend == Backend::Vtx {
                assert!(
                    async_stats.ns < sync_stats.ns,
                    "VT-x crossings dominate: async {} must strictly beat sync {}",
                    async_stats.ns,
                    sync_stats.ns
                );
            }
            let c = async_app.runtime().lb().telemetry().counters();
            assert!(c.go_parks > 0, "{backend}: workers actually parked");
            assert_eq!(c.go_parks, c.go_wakes, "{backend}: every park woke");
        }
    }

    /// Immediate issue (the default) is the one mode whose submissions
    /// can fail, so with `workers > 1` this also drives the concurrent
    /// workers' reply-tail degrade path.
    #[test]
    fn degrades_gracefully_under_gateway_chaos() {
        use litterbox::{InjectionPlan, InjectionSite};
        for backend in [Backend::Mpk, Backend::Vtx] {
            for workers in [1, 4] {
                let mut app = FastHttpApp::new(backend).unwrap();
                let sites = if backend == Backend::Vtx {
                    vec![InjectionSite::GatewayErrno, InjectionSite::VmExit]
                } else {
                    vec![InjectionSite::GatewayErrno]
                };
                app.runtime_mut()
                    .lb_mut()
                    .clock_mut()
                    .arm_injection(InjectionPlan::new(0xFA57, 350_000).with_sites(&sites));
                let cfg = FastHttpConfig {
                    workers,
                    ..FastHttpConfig::default()
                };
                let stats = app.serve_requests(30, cfg).unwrap();
                let what = format!("{backend} workers={workers}");
                assert_eq!(stats.served + stats.degraded, 30, "{what}: {stats:?}");
                assert!(stats.degraded > 0, "{what}: some requests degraded");
                assert!(stats.retried > 0, "{what}: errnos were retried");
                assert_eq!(app.latency().count(), 30, "{what}: every request timed");
                let lb = app.runtime().lb();
                assert_eq!(lb.pending_submissions(), 0, "{what}: nothing left queued");
                let c = lb.telemetry().counters();
                assert_eq!(c.prologs, c.epilogs, "{what}: balanced switches");
            }
        }
    }

    #[test]
    fn enclosed_server_cannot_read_main_secret_or_open_files() {
        let mut program = GoProgram::new();
        program.add_source(GoSource::new("fasthttp").loc(240_000));
        program.add_source(
            GoSource::new("main")
                .imports(&["fasthttp"])
                .global("secretConfig", 64)
                .enclosure("server_enc", "fasthttp.Serve", "net io"),
        );
        let mut rt = program.build(Backend::Vtx).unwrap();
        let secret = rt.global_addr("main.secretConfig");
        rt.register_fn("fasthttp.Serve", move |ctx, _arg| {
            assert!(ctx.lb().load_u64(secret).is_err(), "secret unreachable");
            // net is allowed…
            let fd = ctx.lb_mut().sys_socket()?;
            // …files are not.
            assert!(ctx
                .lb_mut()
                .sys_open("/etc/passwd", enclosure_kernel::fs::OpenFlags::read_only())
                .unwrap_err()
                .is_fault());
            Ok(GoValue::Int(u64::from(fd)))
        });
        rt.call_enclosed("server_enc", GoValue::Unit).unwrap();
    }
}
