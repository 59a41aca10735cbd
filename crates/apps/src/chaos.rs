//! Graceful-degradation helpers shared by the server workloads.
//!
//! Under fault injection the serve loops keep the program alive instead of
//! aborting: transient kernel errnos are retried in place, a request whose
//! handling faults transiently is answered with a 503 while the server
//! keeps serving, and a repeatedly failing dependency (the wiki's pq
//! proxy) is quarantined behind a small circuit breaker. The counters here
//! surface in [`ServeStats`](crate::httpd::ServeStats) so chaos soaks can
//! assert on them.

use enclosure_kernel::net::SockAddr;
use enclosure_support::Shared;
use enclosure_telemetry::{Event, Histogram};
use litterbox::{LitterBox, SysError};

/// How many times a transient errno is retried in place before the
/// failure is surfaced to the degradation path.
pub const MAX_ERRNO_RETRIES: u32 = 3;

/// Shared degradation counters for one serve run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTally {
    /// Requests answered with a 5xx instead of a real response.
    pub degraded: u64,
    /// Transient errnos absorbed by in-place retries.
    pub retried: u64,
    /// Requests fast-failed because a dependency's breaker was open.
    pub quarantined: u64,
}

/// Runs `op`, retrying it up to [`MAX_ERRNO_RETRIES`] times while it
/// fails with a *transient* errno (EAGAIN/EINTR/ENOMEM — the kinds fault
/// injection produces). Each absorbed errno bumps `tally.retried`.
/// Faults and non-transient errnos pass through untouched.
///
/// # Errors
///
/// Whatever `op` last returned once retries are exhausted.
pub fn retry_transient<T>(
    tally: &Shared<ChaosTally>,
    mut op: impl FnMut() -> Result<T, SysError>,
) -> Result<T, SysError> {
    let mut attempts = 0;
    loop {
        match op() {
            Err(SysError::Errno(e)) if e.is_transient() && attempts < MAX_ERRNO_RETRIES => {
                attempts += 1;
                tally.borrow_mut().retried += 1;
            }
            other => return other,
        }
    }
}

/// Opens a listener on `port`, retrying each step in place while it
/// fails transiently. A socket whose bind or listen still fails is
/// closed (un-injectable) before the error surfaces, so a caller that
/// retries the whole setup next round leaks no socket.
///
/// # Errors
///
/// As [`retry_transient`], for whichever step failed.
pub fn listen_retrying(
    tally: &Shared<ChaosTally>,
    lb: &mut LitterBox,
    port: u16,
) -> Result<u32, SysError> {
    let fd = retry_transient(tally, || lb.sys_socket())?;
    let bound = retry_transient(tally, || lb.sys_bind(fd, SockAddr::local(port)))
        .and_then(|()| retry_transient(tally, || lb.sys_listen(fd)));
    if let Err(e) = bound {
        lb.clock_mut().suspend_injection();
        let _ = lb.sys_close(fd);
        lb.clock_mut().resume_injection();
        return Err(e);
    }
    Ok(fd)
}

/// Gives up on `conn` after its handling failed: answers it with a 503
/// when `reply` is set, then closes it. Both run un-injectable — this
/// is the recovery path. The request itself is counted degraded when
/// [`finish_request`] closes it out with `ok == false`.
pub fn degrade_conn(lb: &mut LitterBox, conn: u32, reply: bool) {
    lb.clock_mut().suspend_injection();
    if reply {
        let _ = lb.sys_send(conn, &render_unavailable());
    }
    let _ = lb.sys_close(conn);
    lb.clock_mut().resume_injection();
}

/// Closes out a request accepted at `t0`: records its latency and a
/// [`Event::RequestServed`], and counts it in `tally.degraded` unless
/// it was answered for real (`ok`).
pub fn finish_request(
    tally: &Shared<ChaosTally>,
    latency: &Shared<Histogram>,
    lb: &mut LitterBox,
    t0: u64,
    ok: bool,
) {
    let ns = lb.now_ns() - t0;
    latency.borrow_mut().record(ns);
    lb.clock_mut().record(Event::RequestServed { ns, ok });
    if !ok {
        tally.borrow_mut().degraded += 1;
    }
}

/// Renders the 503 a degraded request is answered with.
#[must_use]
pub fn render_unavailable() -> Vec<u8> {
    b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n".to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_kernel::Errno;

    #[test]
    fn transient_errnos_are_retried_then_surfaced() {
        let tally = Shared::new(ChaosTally::default());
        let mut calls = 0;
        let out: Result<u32, SysError> = retry_transient(&tally, || {
            calls += 1;
            if calls < 3 {
                Err(SysError::Errno(Errno::Eagain))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(tally.borrow().retried, 2);

        // Permanent transient failure: bounded retries, error surfaces.
        let out: Result<u32, SysError> =
            retry_transient(&tally, || Err(SysError::Errno(Errno::Eintr)));
        assert!(matches!(out, Err(SysError::Errno(Errno::Eintr))));
        assert_eq!(tally.borrow().retried, 2 + u64::from(MAX_ERRNO_RETRIES));
    }

    #[test]
    fn fatal_errors_pass_through_without_retry() {
        let tally = Shared::new(ChaosTally::default());
        let out: Result<(), SysError> =
            retry_transient(&tally, || Err(SysError::Errno(Errno::Eacces)));
        assert!(matches!(out, Err(SysError::Errno(Errno::Eacces))));
        assert_eq!(tally.borrow().retried, 0);
    }

    #[test]
    fn failed_listener_setup_leaks_no_socket() {
        use enclosure_gofront::{GoProgram, GoSource, GoValue};
        use litterbox::{Backend, InjectionPlan, InjectionSite};

        let mut program = GoProgram::new();
        program.add_source(GoSource::new("srv"));
        program.add_source(GoSource::new("main").imports(&["srv"]).enclosure(
            "srv_enc",
            "srv.Listen",
            "net io",
        ));
        let mut rt = program.build(Backend::Mpk).unwrap();
        rt.lb_mut().clock_mut().arm_injection(
            InjectionPlan::new(0x5E7, 600_000).with_sites(&[InjectionSite::GatewayErrno]),
        );
        rt.register_fn("srv.Listen", |ctx, _arg| {
            let tally = Shared::default();
            let (mut up, mut failed) = (0, 0);
            for port in 9_000..9_040 {
                match listen_retrying(&tally, ctx.lb_mut(), port) {
                    Ok(_) => up += 1,
                    Err(e) => {
                        assert!(e.is_transient(), "{e:?}");
                        failed += 1;
                    }
                }
                // Only the listeners that came up hold a socket.
                assert_eq!(ctx.lb().kernel().net.socket_count(), up, "port {port}");
            }
            assert!(up > 0 && failed > 0, "up {up}, failed {failed}");
            Ok(GoValue::Unit)
        });
        rt.call_enclosed("srv_enc", GoValue::Unit).unwrap();
    }

    #[test]
    fn unavailable_is_a_503() {
        assert!(render_unavailable().starts_with(b"HTTP/1.1 503"));
    }
}
