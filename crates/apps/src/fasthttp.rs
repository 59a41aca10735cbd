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

use enclosure_gofront::{sched::Recv, ChanId, GoProgram, GoRuntime, GoSource, GoValue, Step};
use enclosure_kernel::net::SockAddr;
use enclosure_support::Shared;
use enclosure_telemetry::{Event, Histogram};
use litterbox::{Backend, BatchOp, Fault, SysError};

use crate::chaos::{render_unavailable, retry_transient, ChaosTally};
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
    /// Route deferrable syscalls through the batched gateway; the
    /// scheduler flushes them once per quantum, so the enclosed server
    /// pays a few charged crossings per request instead of ~11. Off by
    /// default: Table 2 measures the unbatched trace.
    pub batched_io: bool,
    /// Completion-driven submission: workers `batch_submit` their reply
    /// tails and **park** on the returned token instead of flushing
    /// every quantum; the adaptive flush policy (plus the switch
    /// barriers) decides when the accumulated batch crosses. Implies
    /// batching. Only meaningful with `workers > 1`.
    pub async_io: bool,
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
            batched_io: false,
            async_io: false,
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

fn io_fault(e: SysError) -> Fault {
    match e {
        SysError::Fault(f) => f,
        // Keep the errno's identity so callers can tell a transient
        // kernel condition from a broken build.
        SysError::Errno(e) => Fault::Errno(e),
    }
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

/// Spawns the trusted handler: in a real deployment it would read the
/// private database the enclosure cannot see. A request is a tuple whose
/// last field says whether it parsed; the fields before it (the
/// connection, and the accept timestamp on the concurrent path) pass
/// through untouched, and the reply body takes the flag's place.
fn spawn_trusted_handler(rt: &mut GoRuntime, req_ch: ChanId, resp_ch: ChanId, handler_ns: u64) {
    rt.spawn("trusted-handler", move |ctx| {
        match ctx.chan_recv(req_ch)? {
            Recv::Value(v) => {
                let mut parts = v.into_tuple()?;
                let ok = parts.pop().unwrap_or_default().as_bool()?;
                ctx.compute(handler_ns);
                let body = if ok {
                    ok_response().to_vec()
                } else {
                    b"HTTP/1.1 400 Bad Request\r\n\r\n".to_vec()
                };
                parts.push(GoValue::Bytes(body));
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
        if cfg.batched_io {
            self.rt.lb_mut().enable_batching();
        }
        let parse_ns = cfg.parse_ns;
        let batched = cfg.batched_io;
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
                    let setup = (|| -> Result<u32, SysError> {
                        let listen = retry_transient(&srv_tally, || ctx.lb_mut().sys_socket())?;
                        retry_transient(&srv_tally, || {
                            ctx.lb_mut().sys_bind(listen, SockAddr::local(port))
                        })?;
                        retry_transient(&srv_tally, || ctx.lb_mut().sys_listen(listen))?;
                        Ok(listen)
                    })();
                    match setup {
                        Ok(listen) => state = ServerState::Running { listen },
                        // Retry the whole setup next round.
                        Err(e) if e.is_transient() => {}
                        Err(e) => return Err(io_fault(e)),
                    }
                    return Ok(Step::Yield);
                }
                let ServerState::Running { listen } = state else {
                    unreachable!()
                };
                // Drain replies the quantum flush completed: per-entry
                // errors are contained (each completion carries its own
                // errno), so draining keeps the ring bounded.
                if batched {
                    let _ = ctx.lb_mut().batch_take_completions();
                }
                // Accept + parse one request, forward to the trusted side.
                if accepted < n {
                    match retry_transient(&srv_tally, || ctx.lb_mut().sys_accept(listen)) {
                        Ok(conn) => {
                            accept_ns.insert(conn, ctx.lb().now_ns());
                            let head = (|| -> Result<Vec<u8>, SysError> {
                                if batched {
                                    // Deadline reads and the netpoll arm
                                    // are deferrable: they ride the
                                    // quantum's single charged flush.
                                    let sub = u64::from(conn);
                                    ctx.lb_mut()
                                        .batch_enqueue(sub, BatchOp::ClockGettime)
                                        .map_err(SysError::Fault)?;
                                    let head = retry_transient(&srv_tally, || {
                                        ctx.lb_mut().sys_recv(conn, 4096)
                                    })?;
                                    ctx.lb_mut()
                                        .batch_enqueue(sub, BatchOp::ClockGettime)
                                        .map_err(SysError::Fault)?;
                                    ctx.lb_mut()
                                        .batch_enqueue(sub, BatchOp::Futex)
                                        .map_err(SysError::Fault)?;
                                    return Ok(head);
                                }
                                retry_transient(&srv_tally, || ctx.lb_mut().sys_clock_gettime())?;
                                let head = retry_transient(&srv_tally, || {
                                    ctx.lb_mut().sys_recv(conn, 4096)
                                })?;
                                retry_transient(&srv_tally, || ctx.lb_mut().sys_clock_gettime())?;
                                retry_transient(&srv_tally, || ctx.lb_mut().sys_futex())?; // netpoll arm
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
                                    // server alive. The response itself
                                    // runs un-injectable — it is the
                                    // recovery path.
                                    ctx.lb_mut().clock_mut().suspend_injection();
                                    let _ = ctx.lb_mut().sys_send(conn, &render_unavailable());
                                    let _ = ctx.lb_mut().sys_close(conn);
                                    ctx.lb_mut().clock_mut().resume_injection();
                                    srv_tally.borrow_mut().degraded += 1;
                                    accepted += 1;
                                    degraded += 1;
                                    if let Some(t0) = accept_ns.remove(&conn) {
                                        let ns = ctx.lb().now_ns() - t0;
                                        latency.borrow_mut().record(ns);
                                        ctx.lb_mut()
                                            .clock_mut()
                                            .record(Event::RequestServed { ns, ok: false });
                                    }
                                }
                                Err(e) => return Err(io_fault(e)),
                            }
                        }
                        Err(SysError::Errno(_)) => {}
                        // An injected transient fault (e.g. a lost
                        // VM EXIT) before any connection state exists:
                        // nothing to degrade, try again next round.
                        Err(e) if e.is_transient() => {}
                        Err(e) => return Err(io_fault(e)),
                    }
                }
                // Send out any finished response.
                match ctx.chan_recv(resp_ch)? {
                    Recv::Value(v) => {
                        let mut parts = v.into_tuple()?;
                        let body = parts.pop().unwrap_or_default().into_bytes()?;
                        let conn = u32::try_from(parts[0].as_int()?).expect("fd fits");
                        let sent = (|| -> Result<(), SysError> {
                            if batched {
                                // The whole reply tail is deferrable:
                                // queue it and let the quantum boundary
                                // pay one crossing for everything.
                                let sub = u64::from(conn);
                                let (headers, rest) = body.split_at(body.len().min(128));
                                let lb = ctx.lb_mut();
                                lb.batch_enqueue(sub, BatchOp::Futex)
                                    .map_err(SysError::Fault)?; // worker wake
                                lb.batch_enqueue(
                                    sub,
                                    BatchOp::Send {
                                        fd: conn,
                                        data: headers.to_vec(),
                                    },
                                )
                                .map_err(SysError::Fault)?;
                                lb.batch_enqueue(
                                    sub,
                                    BatchOp::Send {
                                        fd: conn,
                                        data: rest.to_vec(),
                                    },
                                )
                                .map_err(SysError::Fault)?;
                                lb.batch_enqueue(sub, BatchOp::Close { fd: conn })
                                    .map_err(SysError::Fault)?;
                                lb.batch_enqueue(sub, BatchOp::Futex)
                                    .map_err(SysError::Fault)?; // teardown wake
                                lb.batch_enqueue(sub, BatchOp::ClockGettime)
                                    .map_err(SysError::Fault)?;
                                return Ok(());
                            }
                            retry_transient(&srv_tally, || ctx.lb_mut().sys_futex())?; // worker wake
                            let (headers, rest) = body.split_at(body.len().min(128));
                            retry_transient(&srv_tally, || ctx.lb_mut().sys_send(conn, headers))?;
                            retry_transient(&srv_tally, || ctx.lb_mut().sys_send(conn, rest))?;
                            retry_transient(&srv_tally, || ctx.lb_mut().sys_close(conn))?;
                            retry_transient(&srv_tally, || ctx.lb_mut().sys_futex())?; // teardown wake
                            retry_transient(&srv_tally, || ctx.lb_mut().sys_clock_gettime())?;
                            Ok(())
                        })();
                        let mut ok = true;
                        match sent {
                            Ok(()) => {}
                            Err(e) if e.is_transient() => {
                                ctx.lb_mut().clock_mut().suspend_injection();
                                let _ = ctx.lb_mut().sys_close(conn);
                                ctx.lb_mut().clock_mut().resume_injection();
                                srv_tally.borrow_mut().degraded += 1;
                                ok = false;
                            }
                            Err(e) => return Err(io_fault(e)),
                        }
                        if let Some(t0) = accept_ns.remove(&conn) {
                            let ns = ctx.lb().now_ns() - t0;
                            latency.borrow_mut().record(ns);
                            ctx.lb_mut()
                                .clock_mut()
                                .record(Event::RequestServed { ns, ok });
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
        if cfg.batched_io {
            let _ = self.rt.lb_mut().batch_take_completions();
        }
        let ns = self.rt.lb().now_ns() - t0;
        let tally = *tally.borrow();
        let served = n - tally.degraded;
        clients.reap(self.rt.lb_mut(), served, |reply| reply == ok_response())?;
        Ok(ServeStats::new(served, ns).with_tally(tally))
    }

    /// Serves `n` requests with `cfg.workers` concurrent enclosed
    /// server goroutines sharing one listener (plus the trusted handler
    /// and the load generator). With `async_io` the workers submit
    /// their reply tails through the completion-driven gateway and
    /// **park** on the final token, so the adaptive flush policy and
    /// the switch barriers amortize one charged crossing over every
    /// worker's batch; with `batched_io` alone the tails still flush
    /// every quantum (one crossing per worker per round). The request
    /// results are identical either way — only the flush schedule and
    /// the charged-crossing ledger differ.
    fn serve_requests_concurrent(
        &mut self,
        n: u64,
        cfg: FastHttpConfig,
        port: u16,
    ) -> Result<ServeStats, Fault> {
        let cap = usize::try_from(n).unwrap_or(usize::MAX).max(64);
        let req_ch = self.rt.make_chan(cap);
        let resp_ch = self.rt.make_chan(cap);
        if cfg.async_io {
            self.rt.lb_mut().enable_async_gateway();
        } else if cfg.batched_io {
            self.rt.lb_mut().enable_batching();
        }
        let use_batch = cfg.async_io || cfg.batched_io;
        let listener: Shared<Option<u32>> = Shared::default();
        let accepted: Shared<u64> = Shared::default();
        let replied: Shared<u64> = Shared::default();
        let closed: Shared<bool> = Shared::default();

        for w in 0..cfg.workers {
            let listener = listener.clone();
            let accepted = accepted.clone();
            let replied = replied.clone();
            let closed = closed.clone();
            let latency = self.latency.clone();
            let parse_ns = cfg.parse_ns;
            let async_io = cfg.async_io;
            // The reply tail this worker last shipped: reaped (and its
            // latency recorded) next quantum, after the flush that
            // serviced it — in async mode the park ends exactly there.
            let mut shipped: Option<(u32, u64)> = None;
            self.rt
                .spawn_enclosed(&format!("fasthttp-worker-{w}"), "server_enc", move |ctx| {
                    let Some(listen) = listener.get() else {
                        // Worker 0 owns listener setup; peers wait.
                        if w == 0 {
                            let fd = ctx.lb_mut().sys_socket().map_err(io_fault)?;
                            ctx.lb_mut()
                                .sys_bind(fd, SockAddr::local(port))
                                .map_err(io_fault)?;
                            ctx.lb_mut().sys_listen(fd).map_err(io_fault)?;
                            listener.set(Some(fd));
                        }
                        return Ok(Step::Yield);
                    };
                    if let Some((conn, t0)) = shipped.take() {
                        let _ = ctx.lb_mut().batch_take_completions_for(u64::from(conn));
                        let ns = ctx.lb().now_ns() - t0;
                        latency.borrow_mut().record(ns);
                        ctx.lb_mut()
                            .clock_mut()
                            .record(Event::RequestServed { ns, ok: true });
                        replied.set(replied.get() + 1);
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
                        let body = parts.pop().unwrap_or_default().into_bytes()?;
                        let conn = u32::try_from(parts[0].as_int()?).expect("fd fits");
                        let t0 = parts[1].as_int()?;
                        let sub = u64::from(conn);
                        let (headers, rest) = body.split_at(body.len().min(128));
                        if use_batch {
                            let lb = ctx.lb_mut();
                            if async_io {
                                lb.batch_submit(sub, BatchOp::Futex)?;
                                lb.batch_submit(
                                    sub,
                                    BatchOp::Send {
                                        fd: conn,
                                        data: headers.to_vec(),
                                    },
                                )?;
                                lb.batch_submit(
                                    sub,
                                    BatchOp::Send {
                                        fd: conn,
                                        data: rest.to_vec(),
                                    },
                                )?;
                                lb.batch_submit(sub, BatchOp::Close { fd: conn })?;
                                lb.batch_submit(sub, BatchOp::Futex)?;
                                let last = lb.batch_submit(sub, BatchOp::ClockGettime)?;
                                shipped = Some((conn, t0));
                                return Ok(Step::Park(last));
                            }
                            lb.batch_enqueue(sub, BatchOp::Futex)?;
                            lb.batch_enqueue(
                                sub,
                                BatchOp::Send {
                                    fd: conn,
                                    data: headers.to_vec(),
                                },
                            )?;
                            lb.batch_enqueue(
                                sub,
                                BatchOp::Send {
                                    fd: conn,
                                    data: rest.to_vec(),
                                },
                            )?;
                            lb.batch_enqueue(sub, BatchOp::Close { fd: conn })?;
                            lb.batch_enqueue(sub, BatchOp::Futex)?;
                            lb.batch_enqueue(sub, BatchOp::ClockGettime)?;
                            shipped = Some((conn, t0));
                            return Ok(Step::Yield);
                        }
                        ctx.lb_mut().sys_futex().map_err(io_fault)?;
                        ctx.lb_mut().sys_send(conn, headers).map_err(io_fault)?;
                        ctx.lb_mut().sys_send(conn, rest).map_err(io_fault)?;
                        ctx.lb_mut().sys_close(conn).map_err(io_fault)?;
                        ctx.lb_mut().sys_futex().map_err(io_fault)?;
                        ctx.lb_mut().sys_clock_gettime().map_err(io_fault)?;
                        let ns = ctx.lb().now_ns() - t0;
                        latency.borrow_mut().record(ns);
                        ctx.lb_mut()
                            .clock_mut()
                            .record(Event::RequestServed { ns, ok: true });
                        replied.set(replied.get() + 1);
                        return Ok(Step::Yield);
                    }
                    // Accept + parse + forward one request.
                    if accepted.get() < n {
                        match ctx.lb_mut().sys_accept(listen) {
                            Ok(conn) => {
                                let t0 = ctx.lb().now_ns();
                                let sub = u64::from(conn);
                                if use_batch {
                                    ctx.lb_mut().batch_enqueue(sub, BatchOp::ClockGettime)?;
                                } else {
                                    ctx.lb_mut().sys_clock_gettime().map_err(io_fault)?;
                                }
                                let head = ctx.lb_mut().sys_recv(conn, 4096).map_err(io_fault)?;
                                if use_batch {
                                    ctx.lb_mut().batch_enqueue(sub, BatchOp::ClockGettime)?;
                                    ctx.lb_mut().batch_enqueue(sub, BatchOp::Futex)?;
                                } else {
                                    ctx.lb_mut().sys_clock_gettime().map_err(io_fault)?;
                                    ctx.lb_mut().sys_futex().map_err(io_fault)?;
                                }
                                ctx.compute(parse_ns);
                                let ok = head.starts_with(b"GET ");
                                if ctx.chan_send(
                                    req_ch,
                                    GoValue::Tuple(vec![
                                        GoValue::Int(sub),
                                        GoValue::Int(t0),
                                        GoValue::Bool(ok),
                                    ]),
                                )? {
                                    accepted.set(accepted.get() + 1);
                                }
                            }
                            Err(SysError::Errno(_)) => {}
                            Err(e) => return Err(io_fault(e)),
                        }
                    }
                    Ok(Step::Yield)
                })?;
        }

        spawn_trusted_handler(&mut self.rt, req_ch, resp_ch, cfg.handler_ns);
        let clients = Clients::spawn(&mut self.rt, "load-generator", port, n, request);

        let t0 = self.rt.lb().now_ns();
        self.rt.run_scheduler()?;
        if use_batch {
            let _ = self.rt.lb_mut().batch_take_completions();
        }
        let ns = self.rt.lb().now_ns() - t0;
        clients.reap(self.rt.lb_mut(), n, |reply| reply == ok_response())?;
        Ok(ServeStats::new(n, ns))
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
    fn batched_io_amortizes_crossings_at_equal_request_counts() {
        let batched_cfg = FastHttpConfig {
            batched_io: true,
            ..FastHttpConfig::default()
        };
        for backend in [Backend::Mpk, Backend::Vtx] {
            let mut plain = FastHttpApp::new(backend).unwrap();
            plain.runtime_mut().lb_mut().clock_mut().reset();
            plain.serve_requests(10, FastHttpConfig::default()).unwrap();
            let mut batched = FastHttpApp::new(backend).unwrap();
            batched.runtime_mut().lb_mut().clock_mut().reset();
            let stats = batched.serve_requests(10, batched_cfg).unwrap();
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
    fn concurrent_workers_serve_all_requests_in_every_io_mode() {
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            for (batched, async_io) in [(false, false), (true, false), (true, true)] {
                let cfg = FastHttpConfig {
                    batched_io: batched,
                    async_io,
                    workers: 8,
                    ..FastHttpConfig::default()
                };
                let mut app = FastHttpApp::new(backend).unwrap();
                app.runtime_mut().lb_mut().clock_mut().reset();
                let stats = app.serve_requests(24, cfg).unwrap();
                assert_eq!(
                    stats.served, 24,
                    "{backend} batched={batched} async={async_io}"
                );
                assert_eq!(
                    app.latency().count(),
                    24,
                    "{backend} batched={batched} async={async_io}: every request timed"
                );
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
            let sync_cfg = FastHttpConfig {
                batched_io: true,
                workers: 8,
                ..FastHttpConfig::default()
            };
            let async_cfg = FastHttpConfig {
                batched_io: true,
                async_io: true,
                workers: 8,
                ..FastHttpConfig::default()
            };
            let mut sync_app = FastHttpApp::new(backend).unwrap();
            sync_app.runtime_mut().lb_mut().clock_mut().reset();
            let sync_stats = sync_app.serve_requests(48, sync_cfg).unwrap();
            let mut async_app = FastHttpApp::new(backend).unwrap();
            async_app.runtime_mut().lb_mut().clock_mut().reset();
            let async_stats = async_app.serve_requests(48, async_cfg).unwrap();
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

    #[test]
    fn degrades_gracefully_under_gateway_chaos() {
        use litterbox::{InjectionPlan, InjectionSite};
        for backend in [Backend::Mpk, Backend::Vtx] {
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
            let stats = app.serve_requests(30, FastHttpConfig::default()).unwrap();
            assert_eq!(stats.served + stats.degraded, 30, "{backend}: {stats:?}");
            assert!(stats.retried > 0, "{backend}: errnos were retried");
            let c = app.runtime().lb().telemetry().counters();
            assert_eq!(c.prologs, c.epilogs, "{backend}: balanced switches");
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
            let fd = ctx.lb_mut().sys_socket().map_err(io_fault)?;
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
