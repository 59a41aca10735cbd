//! The **syscall issue path** for deferrable syscalls: one submission
//! call, [`LitterBox::submit`], whose behaviour the machine's
//! [`IoMode`] sets.
//!
//! * [`IoMode::Immediate`] services each op at submit time through the
//!   synchronous gateway's per-call gate ([`crate::gateway`]), so every
//!   proxied syscall pays its own charged crossing — the paper's
//!   unbatched trace. Gate and kernel errors return from `submit`,
//!   exactly as the `sys_*` entry points return them.
//! * [`IoMode::Quantum`] queues ops in an io_uring-style ring that the
//!   scheduler flushes once per quantum.
//! * [`IoMode::Adaptive`] queues ops too, but a [`FlushPolicy`] decides
//!   when they cross: a size trigger inside `submit`, a deadline
//!   trigger at quantum boundaries. Goroutines park on the returned
//!   [`CompletionToken`]s instead of flushing every quantum. The policy
//!   is sized from the machine's own histograms when the mode is set;
//!   [`IoMode::AdaptiveWith`] pins it instead.
//!
//! Queued entries complete with their own results (errors included) and
//! an immediate op posts its success the same way, so one reap API —
//! [`LitterBox::is_complete`], [`LitterBox::poll_completion`],
//! [`LitterBox::take_completions`], [`LitterBox::take_completions_for`]
//! — serves all three modes.
//!
//! A flush pays **one** charged crossing per (environment, batch) pair
//! — the paper's §6.2 per-syscall tax, amortized:
//!
//! * `Vtx` — one VM EXIT covers every entry in the flush; entries are
//!   serviced host-side at kernel cost.
//! * `Mpk` — one seccomp filter evaluation admits the batch; each
//!   entry is still checked against the front environment's compiled
//!   program (uncharged — the evaluation was paid once), so a denied
//!   entry completes with `EACCES` without poisoning its neighbors.
//! * `Proc` — one IPC round-trip to the supervisor.
//! * `Baseline` — no crossing to amortize; entries are serviced
//!   directly.
//!
//! `Immediate` is deliberately not a one-entry batch: a flush records
//! `FlushTrigger`, `BatchFlush` and `BatchedSyscall` events, a
//! `batch.flush` span and a `batch_size` sample, none of which the
//! unbatched trace has.
//!
//! # Flush barriers
//!
//! A batch belongs to exactly one environment: `prolog`, `epilog`,
//! `execute`, and the contained-recovery path all flush before
//! switching, so a batch never mixes environments and never outlives
//! an epilog. [`LitterBox::submit`] additionally flushes first if it
//! observes an environment change the barriers did not cover.
//!
//! # Containment
//!
//! Faults are isolated per entry: a denied or injection-faulted entry
//! completes with its errno while the rest of the batch proceeds. Only
//! the whole-flush [`InjectionSite::BatchFlush`] fault (the single
//! charged crossing is lost) aborts a flush — and then the batch stays
//! queued, so a retry services every entry exactly once.

use std::borrow::Cow;

use enclosure_hw::vtx::{EnvId, TRUSTED_ENV};
use enclosure_hw::InjectionSite;
use enclosure_kernel::ring::{self, BatchOp, Completion, SyscallRing};
use enclosure_kernel::Errno;
use enclosure_telemetry::{Event, SpanScope};

use crate::fault::{Fault, SysError};
use crate::machine::{Backend, LitterBox};

/// A handle to one submission. A goroutine that holds a token can poll
/// it, or hand it to the scheduler and **park** until a flush posts the
/// completion (an immediate op's token is complete on return).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompletionToken {
    seq: u64,
}

impl CompletionToken {
    /// The ring sequence number this token tracks.
    #[must_use]
    pub fn seq(self) -> u64 {
        self.seq
    }
}

/// How [`LitterBox::submit`] issues a deferrable syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Service the op at submit time, one charged crossing per call
    /// (the machine's starting mode).
    Immediate,
    /// Queue the op; the scheduler flushes the ring every quantum.
    Quantum,
    /// Queue the op; the size and deadline triggers of the policy that
    /// [`LitterBox::adaptive_flush_policy`] sizes when the mode is set
    /// (and the switch barriers) decide when the batch crosses.
    Adaptive,
    /// [`IoMode::Adaptive`] under a caller-pinned policy, for runs that
    /// must hold the triggers fixed.
    AdaptiveWith(FlushPolicy),
}

/// The size/deadline hybrid governing when [`IoMode::Adaptive`] flushes
/// on its own. Either trigger suffices: the pending depth reaching
/// `max_batch` flushes immediately (inside [`LitterBox::submit`]), and a
/// batch older than `deadline_ns` is due at the next quantum boundary
/// ([`LitterBox::flush_due`]). The switch barriers still flush
/// unconditionally, so the policy can only make flushes *more* frequent
/// than the environment switches — never let a batch mix environments
/// or outlive an epilog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush as soon as this many entries are queued.
    pub max_batch: usize,
    /// Flush once the oldest queued entry is this old (simulated ns).
    pub deadline_ns: u64,
}

/// Why a flush ran — the flush-trigger telemetry tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The [`FlushPolicy`] size trigger.
    Size,
    /// The [`FlushPolicy`] deadline trigger. The only reason that
    /// changes the flush itself: it can be lost as a whole at the
    /// [`InjectionSite::FlushDeadline`] chaos site.
    Deadline,
    /// The scheduler's per-quantum flush under [`IoMode::Quantum`].
    Quantum,
    /// An environment switch (or mode change) barrier.
    Barrier,
    /// A caller-requested flush.
    Explicit,
    /// The reactor's idle drain: every runnable goroutine is parked.
    Drain,
}

impl FlushReason {
    fn label(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Deadline => "deadline",
            FlushReason::Quantum => "quantum",
            FlushReason::Barrier => "barrier",
            FlushReason::Explicit => "explicit",
            FlushReason::Drain => "drain",
        }
    }
}

/// The ring plus the environment its queued entries belong to (the
/// default `EnvId` is the trusted one).
#[derive(Debug, Default)]
pub(crate) struct BatchState {
    ring: SyscallRing,
    env: EnvId,
    /// Simulated time the oldest still-queued entry was enqueued —
    /// the deadline trigger's reference point. `None` when empty.
    oldest_enqueue_ns: Option<u64>,
}

impl LitterBox {
    /// Sets how [`LitterBox::submit`] issues ops. [`IoMode::Adaptive`]
    /// sizes its policy from the histograms recorded so far, so setting
    /// it again re-sizes. Switching to [`IoMode::Immediate`] is a flush
    /// barrier, so no queued submission is left behind.
    pub fn set_io_mode(&mut self, mode: IoMode) {
        if mode == IoMode::Immediate && self.pending_submissions() > 0 {
            self.flush_batch_barrier();
        }
        self.io_mode = match mode {
            IoMode::Adaptive => IoMode::AdaptiveWith(self.adaptive_flush_policy()),
            mode => mode,
        };
    }

    /// Sizes a [`FlushPolicy`] from the per-op histograms recorded so
    /// far (PR 4's cost telemetry): batches may grow to four times the
    /// p90 of batch sizes already observed — headroom for several
    /// concurrent submitters to share one crossing — clamped to
    /// `[32, 256]`, and the deadline is eight environment switches'
    /// worth of p50 prolog+epilog cost, so a parked goroutine never
    /// waits an order of magnitude longer than the crossings the batch
    /// amortizes. Deterministic: a pure function of the recorded
    /// histograms (cold-start defaults apply when none exist yet).
    #[must_use]
    pub fn adaptive_flush_policy(&self) -> FlushPolicy {
        let hists = self.telemetry().op_hists();
        let p90_batch = hists.get("batch_size").map_or(0, |h| h.percentile(900));
        #[allow(clippy::cast_possible_truncation)]
        let max_batch = if p90_batch == 0 {
            64
        } else {
            (4 * p90_batch).clamp(32, 256) as usize
        };
        let switch_ns = hists.get("switch_prolog").map_or(0, |h| h.percentile(500))
            + hists.get("switch_epilog").map_or(0, |h| h.percentile(500));
        let deadline_ns = if switch_ns == 0 {
            150_000
        } else {
            (switch_ns * 8).clamp(25_000, 400_000)
        };
        FlushPolicy {
            max_batch,
            deadline_ns,
        }
    }

    /// Entries queued and not yet flushed.
    #[must_use]
    pub fn pending_submissions(&self) -> usize {
        self.batch.ring.pending()
    }

    /// Issues one deferrable syscall for the current environment as the
    /// [`IoMode`] says. Under `Immediate` the op is gated and serviced
    /// now; its gate or kernel error returns here, and its success is
    /// posted as an already-complete token. Under `Quantum` and the
    /// adaptive modes it is queued — flushing first if the ring still
    /// holds another environment's entries — and its error, if any,
    /// arrives in its completion. The adaptive modes also fire the size
    /// trigger: a transient fault on that eager flush is absorbed (the
    /// batch stays queued for the next deadline or barrier flush), so a
    /// queued submission never fails.
    ///
    /// `op` may be lent (`&BatchOp`): an immediate op is serviced in
    /// place, and only a queued one is cloned. A caller that retries a
    /// failed submission lends it, so the common case copies nothing.
    ///
    /// # Errors
    ///
    /// `Immediate` only: what the matching `sys_*` call returns.
    pub fn submit<'a>(
        &mut self,
        submitter: u64,
        op: impl Into<Cow<'a, BatchOp>>,
    ) -> Result<CompletionToken, SysError> {
        let op = op.into();
        let policy = match self.io_mode {
            IoMode::Immediate => {
                self.gate(op.record())?;
                let (kernel, clock) = self.kernel_and_clock();
                let reply = ring::service(kernel, clock, &op)?;
                let seq = self.batch.ring.post(submitter, op.sysno(), Ok(reply));
                return Ok(CompletionToken { seq });
            }
            IoMode::AdaptiveWith(policy) => Some(policy),
            // `set_io_mode` stores a sized `Adaptive` as `AdaptiveWith`.
            IoMode::Quantum | IoMode::Adaptive => None,
        };
        let env = self.current_env();
        if self.batch.env != env && self.batch.ring.pending() > 0 {
            self.flush_batch_barrier();
        }
        let now = self.now_ns();
        let batch = &mut self.batch;
        batch.env = env;
        if batch.ring.pending() == 0 {
            batch.oldest_enqueue_ns = Some(now);
        }
        let seq = batch.ring.enqueue(submitter, op.into_owned());
        let depth = batch.ring.pending();
        self.telemetry_mut()
            .record_op("batch_pending_depth", depth as u64);
        if policy.is_some_and(|p| depth >= p.max_batch) {
            let _ = self.flush(FlushReason::Size);
        }
        Ok(CompletionToken { seq })
    }

    /// Whether the token's completion is posted and waiting to be
    /// reaped.
    #[must_use]
    pub fn is_complete(&self, token: CompletionToken) -> bool {
        self.batch.ring.is_completed(token.seq)
    }

    /// Reaps one token's completion. At-most-once: the first call
    /// after it posts returns `Some`, every later call `None`.
    pub fn poll_completion(&mut self, token: CompletionToken) -> Option<Completion> {
        self.batch.ring.take_completion(token.seq)
    }

    /// Drains every posted completion (FIFO per submitter).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        self.batch.ring.take_completions()
    }

    /// Drains one submitter's posted completions (FIFO), leaving every
    /// other submitter's completions in the ring.
    pub fn take_completions_for(&mut self, submitter: u64) -> Vec<Completion> {
        self.batch.ring.take_completions_for(submitter)
    }

    /// The flush a scheduler owes at a quantum boundary, if any:
    /// `Quantum` whenever entries are queued, `Deadline` once the
    /// oldest entry has waited the [`FlushPolicy`] deadline, and never
    /// under `Immediate` (nothing queues).
    #[must_use]
    pub fn flush_due(&self) -> Option<FlushReason> {
        if self.batch.ring.pending() == 0 {
            return None;
        }
        match self.io_mode {
            IoMode::Quantum => Some(FlushReason::Quantum),
            IoMode::AdaptiveWith(policy) => self
                .batch
                .oldest_enqueue_ns
                .is_some_and(|t| self.clock().now_ns() >= t + policy.deadline_ns)
                .then_some(FlushReason::Deadline),
            IoMode::Immediate | IoMode::Adaptive => None,
        }
    }

    /// Flushes the queued batch in **one charged crossing**: one VM
    /// EXIT under `Vtx`, one seccomp evaluation under `Mpk`, one IPC
    /// round-trip under `Proc`. Returns the number of entries serviced
    /// (0 when nothing is queued). `reason` tags the flush-trigger
    /// telemetry; a [`FlushReason::Deadline`] flush additionally
    /// queries the [`InjectionSite::FlushDeadline`] chaos site and can
    /// be lost as a whole.
    ///
    /// # Errors
    ///
    /// [`Fault::Transient`] when the flush is lost (a
    /// [`InjectionSite::BatchFlush`] or deadline fault): the batch
    /// stays queued, and a retry after recovery completes every entry
    /// exactly once.
    pub fn flush(&mut self, reason: FlushReason) -> Result<usize, Fault> {
        let n = self.batch.ring.pending();
        if n == 0 {
            return Ok(0);
        }
        let env = self.batch.env;
        let enclosed = env != TRUSTED_ENV;
        let backend = self.backend();

        // A deadline flush can be lost as a whole, and so can the
        // single charged crossing — before any entry is serviced, so
        // the batch survives intact for a retry.
        if reason == FlushReason::Deadline
            && enclosed
            && backend != Backend::Baseline
            && self.clock_mut().should_inject(InjectionSite::FlushDeadline)
        {
            return Err(self.trace_fault(Fault::Transient {
                site: "flush_deadline",
            }));
        }
        if enclosed
            && backend != Backend::Baseline
            && self.clock_mut().should_inject(InjectionSite::BatchFlush)
        {
            return Err(self.trace_fault(Fault::Transient {
                site: "batch_flush",
            }));
        }

        {
            let clock = self.clock_mut();
            let now = clock.now_ns();
            clock.recorder_mut().begin_span(
                now,
                SpanScope::new("batch.flush", "litterbox.gateway", env.0),
            );
            clock.record(Event::FlushTrigger {
                reason: reason.label(),
            });
        }

        // One crossing per (environment, batch) — this is the whole
        // point: the per-syscall tax of the synchronous gateway is paid
        // once here and amortized over all `n` entries.
        match backend {
            Backend::Vtx => self.clock_mut().charge_vm_exit(),
            Backend::Mpk => {
                self.clock_mut().charge_seccomp();
                self.clock_mut().record(Event::SeccompVerdict {
                    category: "batch",
                    allowed: true,
                });
            }
            Backend::Proc => {
                // One IPC round-trip to the supervisor covers the whole
                // (environment, batch) pair; the trusted environment is
                // the supervisor itself and needs no crossing.
                if enclosed {
                    self.clock_mut().charge_ipc_roundtrip(env.0);
                }
            }
            Backend::Baseline => {}
        }

        for sub in self.batch.ring.drain_submissions() {
            let record = sub.op.record();
            let allowed = if backend == Backend::Baseline {
                true
            } else {
                self.batch_entry_allowed(&record)
            };
            if enclosed && backend != Backend::Baseline {
                self.clock_mut().record(Event::FilterSyscall {
                    sysno: record.sysno as u32,
                    allowed,
                });
            }
            let result = if !allowed {
                Err(Errno::Eacces)
            } else if enclosed && self.clock_mut().should_inject(InjectionSite::GatewayErrno) {
                Err(self.pick_transient_errno())
            } else if enclosed
                && backend == Backend::Vtx
                && self.clock_mut().should_inject(InjectionSite::VmExit)
            {
                // The amortized host round-trip can still drop a single
                // entry's reply; it completes with a transient errno
                // without poisoning the rest of the batch.
                Err(self.pick_transient_errno())
            } else {
                let (kernel, clock) = self.kernel_and_clock();
                ring::service(kernel, clock, &sub.op)
            };
            // A single completion can be corrupted on its way back from
            // the flush: it is posted with a transient errno instead of
            // its result, so the submitter still wakes (with the errno)
            // and batch-mates are untouched — never silently lost.
            let result = if enclosed
                && backend != Backend::Baseline
                && self
                    .clock_mut()
                    .should_inject(InjectionSite::CompletionLost)
            {
                Err(self.pick_transient_errno())
            } else {
                result
            };
            self.clock_mut().record(Event::BatchedSyscall {
                sysno: record.sysno as u32,
            });
            self.batch.ring.complete(Completion {
                seq: sub.seq,
                submitter: sub.submitter,
                sysno: record.sysno,
                result,
            });
        }
        self.batch.oldest_enqueue_ns = None;

        let clock = self.clock_mut();
        clock.recorder_mut().record_op("batch_size", n as u64);
        clock.record(Event::BatchFlush {
            env: env.0,
            entries: n as u64,
        });
        let now = clock.now_ns();
        clock.recorder_mut().end_span(now);
        // Every flush reason converges here, so this is the reactor's
        // sampler tick: metrics windows close at batch boundaries even
        // when no further event lands in them.
        clock.recorder_mut().tick_series(now);
        Ok(n)
    }

    /// The infallible flush used by the switch barriers (`prolog`,
    /// `epilog`, `execute`, contained recovery) and by a switch to
    /// [`IoMode::Immediate`]. Injection is suspended for its duration:
    /// barrier flushes are bookkeeping the enclosure cannot observe
    /// failing — fault coverage lives on [`LitterBox::flush`].
    pub(crate) fn flush_batch_barrier(&mut self) {
        // Barriers tick the window sampler even when there is nothing
        // to flush: a switch boundary is a time edge worth observing,
        // and the tick emits no events (so an empty barrier still
        // charges — and records — nothing).
        let clock = self.clock_mut();
        let now = clock.now_ns();
        clock.recorder_mut().tick_series(now);
        if self.batch.ring.pending() == 0 {
            return;
        }
        self.clock_mut().suspend_injection();
        let flushed = self.flush(FlushReason::Barrier);
        self.clock_mut().resume_injection();
        debug_assert!(flushed.is_ok(), "barrier flushes run injection-suspended");
    }

    /// One deterministic transient errno, driven by the injection
    /// plan's PRNG (mirrors the synchronous gateway's pick).
    fn pick_transient_errno(&mut self) -> Errno {
        #[allow(clippy::cast_possible_truncation)]
        let pick = self
            .clock_mut()
            .injection_roll(Errno::TRANSIENT.len() as u64) as usize;
        Errno::TRANSIENT[pick]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::{EnclosureDesc, EnclosureId, ProgramDesc};
    use enclosure_hw::InjectionPlan;
    use enclosure_kernel::fs::OpenFlags;
    use enclosure_kernel::ring::BatchReply;
    use enclosure_kernel::seccomp::SysPolicy;
    use enclosure_kernel::{CategorySet, SysCategory, Sysno};
    use enclosure_vmem::Access;

    fn lab_with(backend: Backend, policy: SysPolicy) -> (LitterBox, enclosure_vmem::Addr) {
        let mut lb = LitterBox::new(backend);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "libnet", 2, 1, 2).unwrap();
        let cs = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "rcl".into(),
            view: [("libnet".to_string(), Access::RWX)].into_iter().collect(),
            policy,
            marked: vec!["libnet".into()],
        });
        lb.init(prog).unwrap();
        (lb, cs)
    }

    fn lab(backend: Backend) -> (LitterBox, enclosure_vmem::Addr) {
        lab_with(backend, SysPolicy::all())
    }

    /// A machine whose ring queues until flushed by hand.
    fn quantum_lab(backend: Backend) -> (LitterBox, enclosure_vmem::Addr) {
        let (mut lb, cs) = lab(backend);
        lb.set_io_mode(IoMode::Quantum);
        (lb, cs)
    }

    #[test]
    fn batched_vtx_flush_charges_one_vm_exit_for_the_whole_batch() {
        let (mut lb, cs) = quantum_lab(Backend::Vtx);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let before = lb.stats().vm_exits;
        for _ in 0..8 {
            lb.submit(1, BatchOp::Getuid).unwrap();
        }
        assert_eq!(lb.pending_submissions(), 8);
        assert_eq!(lb.flush(FlushReason::Explicit).unwrap(), 8);
        assert_eq!(
            lb.stats().vm_exits - before,
            1,
            "one charged VM EXIT amortizes the whole batch"
        );
        let done = lb.take_completions();
        assert_eq!(done.len(), 8);
        assert!(done.iter().all(|c| c.result.is_ok()));
        lb.epilog(t).unwrap();
    }

    #[test]
    fn batched_mpk_flush_charges_one_seccomp_evaluation() {
        let (mut lb, cs) = quantum_lab(Backend::Mpk);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let before = lb.stats().seccomp_checks;
        for _ in 0..6 {
            lb.submit(1, BatchOp::Getpid).unwrap();
        }
        lb.flush(FlushReason::Explicit).unwrap();
        assert_eq!(
            lb.stats().seccomp_checks - before,
            1,
            "one filter evaluation admits the whole batch"
        );
        lb.epilog(t).unwrap();
    }

    #[test]
    fn denied_entry_completes_with_eacces_without_poisoning_the_batch() {
        // Proc-only policy: getpid is allowed, open (File) is denied.
        let (mut lb, cs) = lab_with(
            Backend::Mpk,
            SysPolicy::categories(CategorySet::only(SysCategory::Proc)),
        );
        lb.set_io_mode(IoMode::Quantum);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        lb.submit(7, BatchOp::Getpid).unwrap();
        lb.submit(
            7,
            BatchOp::Open {
                path: "/etc/shadow".into(),
                flags: OpenFlags::read_only(),
            },
        )
        .unwrap();
        lb.submit(7, BatchOp::Getpid).unwrap();
        lb.flush(FlushReason::Explicit).unwrap();
        let done = lb.take_completions();
        assert_eq!(done.len(), 3);
        assert!(done[0].result.is_ok());
        assert_eq!(done[1].result, Err(Errno::Eacces));
        assert!(done[2].result.is_ok(), "denial is contained to its entry");
        lb.epilog(t).unwrap();
    }

    #[test]
    fn batch_flush_fault_keeps_the_batch_queued_for_retry() {
        let (mut lb, cs) = quantum_lab(Backend::Vtx);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        lb.submit(1, BatchOp::Getuid).unwrap();
        lb.submit(1, BatchOp::Getpid).unwrap();
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::BatchFlush));
        let err = lb.flush(FlushReason::Explicit).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(lb.pending_submissions(), 2, "no entry was lost or serviced");
        assert_eq!(
            lb.flush(FlushReason::Explicit).unwrap(),
            2,
            "retry services every entry once"
        );
        assert_eq!(lb.take_completions().len(), 2);
        lb.epilog(t).unwrap();
        lb.clock_mut().disarm_injection();
    }

    #[test]
    fn epilog_barrier_flushes_before_leaving_the_environment() {
        let (mut lb, cs) = quantum_lab(Backend::Vtx);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        lb.submit(1, BatchOp::Getuid).unwrap();
        lb.epilog(t).unwrap();
        assert_eq!(
            lb.pending_submissions(),
            0,
            "a batch never outlives an epilog"
        );
        let done = lb.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].sysno, Sysno::Getuid);
    }

    #[test]
    fn trusted_batches_emit_no_filter_events_but_still_pay_the_crossing() {
        let (mut lb, _cs) = quantum_lab(Backend::Vtx);
        lb.submit(0, BatchOp::Getuid).unwrap();
        let before = lb.stats().vm_exits;
        lb.flush(FlushReason::Explicit).unwrap();
        // The trusted environment still pays the charged crossing (the
        // host boundary does not vanish) but emits no filter events.
        assert_eq!(lb.stats().vm_exits - before, 1);
        let done = lb.take_completions();
        assert_eq!(done[0].result, Ok(BatchReply::Num(1000)));
    }

    #[test]
    fn replies_carry_data_for_io_ops() {
        let (mut lb, cs) = lab(Backend::Mpk);
        {
            // Seed a file out-of-band (harness traffic, unfiltered).
            let (kernel, clock) = lb.kernel_and_clock();
            let fd = kernel
                .open(clock, "/data/in.txt", OpenFlags::write_create())
                .unwrap();
            kernel.write(clock, fd, b"hello batched").unwrap();
            kernel.close(clock, fd).unwrap();
        }
        lb.set_io_mode(IoMode::Quantum);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        lb.submit(
            3,
            BatchOp::Open {
                path: "/data/in.txt".into(),
                flags: OpenFlags::read_only(),
            },
        )
        .unwrap();
        lb.flush(FlushReason::Explicit).unwrap();
        let opened = lb.take_completions();
        let Ok(BatchReply::Fd(fd)) = opened[0].result else {
            panic!("open should return an fd: {:?}", opened[0].result);
        };
        lb.submit(3, BatchOp::Read { fd, len: 5 }).unwrap();
        lb.flush(FlushReason::Explicit).unwrap();
        let read = lb.take_completions();
        assert_eq!(read[0].result, Ok(BatchReply::Bytes(b"hello".to_vec())));
        lb.epilog(t).unwrap();
    }

    #[test]
    fn batched_proc_flush_charges_one_ipc_roundtrip() {
        let (mut lb, cs) = quantum_lab(Backend::Proc);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let before = lb.stats().ipc_roundtrips;
        for _ in 0..8 {
            lb.submit(1, BatchOp::Getuid).unwrap();
        }
        assert_eq!(lb.flush(FlushReason::Explicit).unwrap(), 8);
        assert_eq!(
            lb.stats().ipc_roundtrips - before,
            1,
            "one round-trip to the supervisor amortizes the whole batch"
        );
        let done = lb.take_completions();
        assert_eq!(done.len(), 8);
        assert!(done.iter().all(|c| c.result.is_ok()));
        lb.epilog(t).unwrap();
    }

    #[test]
    fn trusted_proc_batches_pay_no_crossing() {
        let (mut lb, _cs) = quantum_lab(Backend::Proc);
        lb.submit(0, BatchOp::Getuid).unwrap();
        let before = lb.stats().ipc_roundtrips;
        lb.flush(FlushReason::Explicit).unwrap();
        // The supervisor is the kernel-facing process: its own batch
        // crosses no process boundary, unlike the VT-x host round-trip.
        assert_eq!(lb.stats().ipc_roundtrips - before, 0);
        let done = lb.take_completions();
        assert_eq!(done[0].result, Ok(BatchReply::Num(1000)));
    }

    #[test]
    fn immediate_submit_charges_and_returns_what_the_sync_gateway_does() {
        // The same calls issued through `submit` under `Immediate` and
        // through the typed `sys_*` entry points leave identical
        // clocks, hardware ledgers and telemetry counters — and the
        // same errors.
        for backend in Backend::ALL {
            let (mut via_submit, cs) = lab(backend);
            let (mut via_sys, _) = lab(backend);
            let t1 = via_submit.prolog(EnclosureId(1), cs).unwrap();
            let t2 = via_sys.prolog(EnclosureId(1), cs).unwrap();
            let tok = via_submit.submit(4, BatchOp::Getuid).unwrap();
            let uid = via_sys.sys_getuid().unwrap();
            assert_eq!(
                via_submit.poll_completion(tok).map(|c| c.result),
                Some(Ok(BatchReply::Num(u64::from(uid)))),
                "{backend}: the reply posts at submit"
            );
            via_submit.submit(4, BatchOp::Nanosleep(300)).unwrap();
            via_sys.sys_nanosleep(300).unwrap();
            via_submit.submit(4, BatchOp::Futex).unwrap();
            via_sys.sys_futex().unwrap();
            via_submit.submit(4, BatchOp::ClockGettime).unwrap();
            via_sys.sys_clock_gettime().unwrap();
            let err = via_submit
                .submit(4, BatchOp::Close { fd: 999 })
                .unwrap_err();
            assert_eq!(err, via_sys.sys_close(999).unwrap_err(), "{backend}");
            via_submit.epilog(t1).unwrap();
            via_sys.epilog(t2).unwrap();

            assert_eq!(via_submit.now_ns(), via_sys.now_ns(), "{backend}: clock");
            assert_eq!(via_submit.stats(), via_sys.stats(), "{backend}: ledger");
            assert_eq!(
                via_submit.telemetry().counters(),
                via_sys.telemetry().counters(),
                "{backend}: telemetry"
            );
            assert_eq!(via_submit.telemetry().counters().batch_flushes, 0);
            assert_eq!(
                via_submit.take_completions_for(4).len(),
                3,
                "{backend}: the other successes post, the failed close does not"
            );
        }
    }

    enclosure_support::props! {
        /// An empty flush is free on every backend: `Ok(0)`, no
        /// crossing charged, no telemetry emitted.
        fn empty_flush_charges_nothing(rng, cases = 16) {
            for backend in Backend::ALL {
                let (mut lb, cs) = quantum_lab(backend);
                lb.telemetry_mut().enable_trace(4_096);
                // Flush from the trusted environment and from inside the
                // enclosure alike.
                let token = if rng.range_usize(0, 2) == 1 {
                    Some(lb.prolog(EnclosureId(1), cs).unwrap())
                } else {
                    None
                };
                let t0 = lb.now_ns();
                let events = lb.telemetry().recent_events().count();
                let flushes = lb.telemetry().counters().batch_flushes;
                assert_eq!(lb.flush(FlushReason::Explicit).unwrap(), 0);
                assert_eq!(lb.now_ns(), t0, "{backend}: charged an empty flush");
                assert_eq!(lb.telemetry().recent_events().count(), events);
                assert_eq!(lb.telemetry().counters().batch_flushes, flushes);
                if let Some(t) = token {
                    lb.epilog(t).unwrap();
                }
            }
        }

        /// Switching back to `Immediate` drops nothing: queued entries
        /// are flushed first, and later submissions complete at once.
        fn switching_to_immediate_flushes_queued_entries_first(rng, cases = 8) {
            for backend in Backend::ALL {
                let (mut lb, _cs) = quantum_lab(backend);
                let queued = rng.range_usize(1, 5);
                for _ in 0..queued {
                    lb.submit(1, BatchOp::Getuid).unwrap();
                }
                lb.set_io_mode(IoMode::Immediate);
                assert_eq!(lb.pending_submissions(), 0, "{backend}");
                assert_eq!(lb.take_completions().len(), queued, "{backend}");
                let tok = lb.submit(1, BatchOp::Getpid).unwrap();
                assert!(lb.is_complete(tok), "{backend}: serviced at submit");
                assert_eq!(lb.telemetry().counters().batch_flushes, 1, "{backend}");
            }
        }
    }
}
