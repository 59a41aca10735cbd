//! Outside traffic: the load generator the serving apps share.
//!
//! Clients live outside the measured machine. They issue their syscalls
//! straight against the kernel on a scratch clock, so neither the
//! machine's simulated time nor its telemetry ever sees them. The
//! server's own socket I/O is charged by length alone, so what a client
//! sends, and whether it ever reads its reply, cannot move a simulated
//! number: reaping the replies after a run only frees host memory and
//! lets the app check that every served request got its whole answer.

use enclosure_gofront::{GoRuntime, Step};
use enclosure_hw::Clock;
use enclosure_kernel::net::SockAddr;
use enclosure_kernel::Kernel;
use enclosure_support::Shared;
use litterbox::{Fault, LitterBox};

/// The client sockets of one `serve_requests` call.
pub(crate) struct Clients {
    fds: Shared<Vec<u32>>,
}

impl Clients {
    /// Spawns the load-generator goroutine `name`. It yields until a
    /// listener answers on `port`, then connects `n` clients and sends
    /// `request(i)` on the `i`-th; the first connection doubles as the
    /// probe.
    pub(crate) fn spawn(
        rt: &mut GoRuntime,
        name: &str,
        port: u16,
        n: u64,
        request: fn(u64) -> Vec<u8>,
    ) -> Clients {
        let fds: Shared<Vec<u32>> = Shared::default();
        let opened = fds.clone();
        rt.spawn(name, move |ctx| {
            if n == 0 {
                return Ok(Step::Done);
            }
            let mut scratch = Clock::default();
            let (kernel, _) = ctx.lb_mut().kernel_and_clock();
            let probe = kernel.socket(&mut scratch);
            if kernel
                .connect(&mut scratch, probe, SockAddr::local(port))
                .is_err()
            {
                let _ = kernel.close(&mut scratch, probe);
                return Ok(Step::Yield);
            }
            let mut opened = opened.borrow_mut();
            for i in 0..n {
                let fd = if i == 0 {
                    probe
                } else {
                    let fd = kernel.socket(&mut scratch);
                    kernel
                        .connect(&mut scratch, fd, SockAddr::local(port))
                        .map_err(|e| Fault::Init(format!("client connect: {e}")))?;
                    fd
                };
                opened.push(fd);
                kernel
                    .send(&mut scratch, fd, &request(i))
                    .map_err(|e| Fault::Init(format!("client send: {e}")))?;
            }
            Ok(Step::Done)
        });
        Clients { fds }
    }

    /// After the run: reads every client's reply, closes the client, and
    /// counts the replies `complete` accepts. With fault injection off,
    /// every served request must have one; under chaos a degraded
    /// connection may legitimately get nothing, so the count is not
    /// checked there.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] when injection is off and fewer than `served`
    /// replies are complete.
    pub(crate) fn reap(
        self,
        lb: &mut LitterBox,
        served: u64,
        complete: impl Fn(&[u8]) -> bool,
    ) -> Result<(), Fault> {
        let chaos = lb.clock().injection().is_some();
        let kernel = lb.kernel_mut();
        let mut scratch = Clock::default();
        let fds = std::mem::take(&mut *self.fds.borrow_mut());
        let whole = fds
            .into_iter()
            .filter(|&fd| complete(&reap_reply(kernel, &mut scratch, fd)))
            .count() as u64;
        if !chaos && whole != served {
            return Err(Fault::Init(format!(
                "short response: {whole} complete replies for {served} served requests"
            )));
        }
        Ok(())
    }
}

/// Reads a client's reply until EOF (or until nothing more is queued),
/// then closes the client.
pub(crate) fn reap_reply(kernel: &mut Kernel, scratch: &mut Clock, fd: u32) -> Vec<u8> {
    let mut reply = Vec::new();
    while let Ok(chunk) = kernel.recv(scratch, fd, 64 * 1024) {
        if chunk.is_empty() {
            break;
        }
        reply.extend_from_slice(&chunk);
    }
    let _ = kernel.close(scratch, fd);
    reply
}
