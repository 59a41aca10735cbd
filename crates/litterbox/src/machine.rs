//! The LitterBox machine: execution environments, the six-call API, and
//! checked memory access.

use std::collections::{BTreeMap, HashMap, HashSet};

use enclosure_hw::mpk::{Pkru, NUM_KEYS};
use enclosure_hw::proc::{ProcError, ProcSandbox, SpawnRecord};
use enclosure_hw::vtx::{EnvId, Vm, VtxError, TRUSTED_ENV};
use enclosure_hw::{Clock, CostModel, Cpu, HwStats, InjectionSite, VirtualKey, VirtualKeyTable};
use enclosure_kernel::seccomp::{SeccompFilter, SeccompRule, SysPolicy};
use enclosure_kernel::{FilterMode, Kernel, SyscallRecord};
use enclosure_telemetry::{Event, Recorder, SpanScope};
use enclosure_vmem::{
    Access, Addr, AddressSpace, PageTable, ProtectionKey, Section, SectionKind, VirtRange, NO_KEY,
};

use crate::cluster::{cluster, Clustering, MetaPackage};
use crate::desc::{EnclosureDesc, EnclosureId, PackageDesc, ProgramDesc, ViewMap};
use crate::fault::Fault;

/// Init-time accounting constants (simulated nanoseconds), used to model
/// the "delayed initialization" cost the Python evaluation measures
/// (§6.4: dependency computation, view computation, KVM configuration).
const INIT_NS_PER_PACKAGE: u64 = 2_000;
const INIT_NS_PER_PAGE: u64 = 500;
const INIT_NS_PER_ENV_VTX: u64 = 4_000_000; // KVM + per-enclosure page-table setup
const INIT_NS_PER_ENV_MPK: u64 = 3_000; // key setup + seccomp rule
const INIT_NS_PER_ENV_PROC: u64 = 15_000; // socketpair + per-process filter compile (fork is lazy)

/// Which enforcement mechanism backs the enclosures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// No enforcement: enclosures behave as vanilla closures (the paper's
    /// evaluation baseline).
    Baseline,
    /// Intel MPK (`LB_MPK`).
    Mpk,
    /// Intel VT-x (`LB_VTX`).
    Vtx,
    /// Process sandboxes (`LB_PROC`): one child process per enclosure,
    /// isolation by address-space separation, crossings priced as IPC
    /// round-trips — the fallback for hosts with neither MPK nor VT-x.
    Proc,
}

impl Backend {
    /// Every backend, the unenforced `Baseline` first — the one list
    /// test matrices iterate.
    pub const ALL: [Backend; 4] = [Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc];

    /// [`Backend::ALL`] without the unenforced `Baseline`: the matrix of
    /// tests that expect a view to be enforced.
    pub fn enforcing() -> impl Iterator<Item = Backend> {
        Backend::ALL.into_iter().filter(|&b| b != Backend::Baseline)
    }

    /// The machine-level [`InjectionSite`]s that can actually fire on
    /// this backend — the chaos sites a soak arms per machine. Baseline
    /// is the control arm (nothing armed); fleet-level sites
    /// (`ShardCrash`/`LbPartition`/`ProbeFlap`) are balancer concerns
    /// and never appear here.
    #[must_use]
    pub fn chaos_sites(self) -> &'static [InjectionSite] {
        match self {
            Backend::Baseline => &[],
            Backend::Mpk => &[InjectionSite::GatewayErrno, InjectionSite::Wrpkru],
            Backend::Vtx => &[
                InjectionSite::GatewayErrno,
                InjectionSite::VmExit,
                InjectionSite::Cr3Write,
            ],
            Backend::Proc => &[
                InjectionSite::GatewayErrno,
                InjectionSite::ProcFork,
                InjectionSite::PipeEpipe,
                InjectionSite::ChildCrash,
            ],
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Baseline => write!(f, "Baseline"),
            Backend::Mpk => write!(f, "LB_MPK"),
            Backend::Vtx => write!(f, "LB_VTX"),
            Backend::Proc => write!(f, "LB_PROC"),
        }
    }
}

/// How LB_MPK maps meta-packages onto the 15 allocatable hardware keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MpkKeyMode {
    /// One hardware key per meta-package for the program's lifetime.
    /// `Init` fails with a key-exhaustion error when the clustering
    /// needs more than 15 keys (the pre-virtualization behavior; kept
    /// for the ablation that measures the wall).
    Static,
    /// libmpk-style virtualization (the default): meta-packages hold
    /// *virtual* keys without bound, and an LRU cache binds at most 15
    /// of them to hardware keys at a time, re-tagging pages on demand.
    /// Only an enclosure whose own working set exceeds 15 meta-packages
    /// is rejected.
    #[default]
    Virtual,
}

/// Hardware keys LB_MPK can hand out (key 0 is reserved).
const MAX_BOUND_KEYS: usize = NUM_KEYS as usize - 1;

/// Proof that a `prolog` happened; consumed by the matching `epilog`.
#[derive(Debug)]
#[must_use = "an unmatched prolog leaves the program in the enclosure environment"]
pub struct SwitchToken {
    enclosure: EnclosureId,
    prev: EnvId,
    seq: u64,
}

impl SwitchToken {
    /// The enclosure this token entered.
    #[must_use]
    pub fn enclosure(&self) -> EnclosureId {
        self.enclosure
    }
}

/// A goroutine-sized protection context: the current environment plus the
/// nesting stack. The user-level scheduler swaps these via
/// [`LitterBox::execute`] (§4.2).
#[derive(Debug, Clone)]
pub struct EnvContext {
    current: EnvId,
    stack: Vec<(EnvId, u64)>,
}

impl EnvContext {
    /// The context every program starts in: trusted, no nesting.
    #[must_use]
    pub fn trusted() -> EnvContext {
        EnvContext {
            current: TRUSTED_ENV,
            stack: Vec::new(),
        }
    }

    /// A fresh context pinned to `env` with no nesting — what a newly
    /// spawned goroutine inherits from its creator ("execution
    /// environments are transitively inherited by goroutine creation",
    /// §5.1).
    #[must_use]
    pub fn in_env(env: EnvId) -> EnvContext {
        EnvContext {
            current: env,
            stack: Vec::new(),
        }
    }

    /// The environment this context runs in.
    #[must_use]
    pub fn env(&self) -> EnvId {
        self.current
    }
}

impl Default for EnvContext {
    fn default() -> Self {
        EnvContext::trusted()
    }
}

#[derive(Debug, Clone)]
struct PackageInfo {
    sections: Vec<Section>,
    #[allow(dead_code)] // recorded for dynamic-language view computation
    deps: Vec<String>,
}

#[derive(Debug, Clone)]
struct EnvInfo {
    name: String,
    view: ViewMap,
    policy: SysPolicy,
}

/// LB_MPK switch fast-path cache counters: how often a prolog/epilog on
/// an unchanged binding reused a compiled seccomp program versus having
/// to recompile after a `KeyBind`/`KeyEvict` epoch bump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCacheStats {
    /// Switches that found the target's compiled filter fresh.
    pub hits: u64,
    /// Filter compilations (cold entries and epoch invalidations).
    pub compiles: u64,
}

// One per machine and matched on every switch: boxing the MPK state
// would add an indirection on the hot path, and the size it saves does
// not matter for a single value.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum HwState {
    Baseline,
    Mpk {
        table: PageTable,
        vkeys: VirtualKeyTable,
        vkey_of_meta: Vec<VirtualKey>,
        /// PKRU images per environment, valid at `pkru_epoch`. The map
        /// depends only on the bindings (not on which environment is in
        /// front), so one recompute serves every switch until the next
        /// binding change.
        pkru_of_env: HashMap<EnvId, Pkru>,
        pkru_epoch: u64,
        /// Compiled seccomp programs per front environment, each tagged
        /// with the vkey epoch it was compiled at. A `KeyBind`/`KeyEvict`
        /// epoch bump invalidates the whole cache (the PKRU values the
        /// rules index on all moved).
        filters: HashMap<EnvId, (u64, SeccompFilter)>,
        /// Environment whose filter is loaded (the one syscalls are
        /// checked against).
        front: EnvId,
        cache: SwitchCacheStats,
    },
    Vtx {
        vm: Vm,
    },
    Proc {
        sandbox: ProcSandbox,
        /// Per-process seccomp programs, one per environment: compiled
        /// at build (no PKRU dispatch — process identity replaces it)
        /// and installed into each child at `fork` time.
        filters: HashMap<EnvId, SeccompFilter>,
    },
}

/// Name of LitterBox's always-mapped API package (§5.3).
pub const LB_USER_PKG: &str = "litterbox.user";
/// Name of LitterBox's privileged package holding descriptions and the
/// verification list; never mapped in user environments (§5.3).
pub const LB_SUPER_PKG: &str = "litterbox.super";

/// The LitterBox machine: address space, kernel, CPU, and enforcement
/// state. See the crate docs for the API walkthrough.
#[derive(Debug)]
pub struct LitterBox {
    backend: Backend,
    space: AddressSpace,
    kernel: Kernel,
    cpu: Cpu,
    packages: BTreeMap<String, PackageInfo>,
    ranges: Vec<(VirtRange, String)>,
    enclosures: BTreeMap<EnclosureId, EnclosureDesc>,
    envs: HashMap<EnvId, EnvInfo>,
    verif: HashSet<Addr>,
    hw: HwState,
    current: EnvId,
    stack: Vec<(EnvId, u64)>,
    clustering: Clustering,
    initialized: bool,
    seq: u64,
    init_ns: u64,
    filter_mode: FilterMode,
    mpk_key_mode: MpkKeyMode,
    /// Telemetry-guided eviction pins: virtual keys of "hot" metas the
    /// LRU should avoid evicting. Advisory — when every other binding
    /// is hard-pinned by the running working set, a hot meta is still
    /// evictable (pinning must never introduce a new failure mode).
    hot_pinned: Vec<VirtualKey>,
    /// Self-time already discounted per package by [`Self::age_hot_signal`]:
    /// the effective pinning signal is the attribution ledger's self-ns
    /// minus this. Empty until the first decay, so the signal is exactly
    /// the raw ledger by default.
    hot_discount: BTreeMap<String, u64>,
    /// Opt-in: coalesce the victim sweeps of one switch into a single
    /// charged `pkey_mprotect` unit count over the combined pages.
    coalesce_sweeps: bool,
    /// The submission ring and its pending (environment, batch) — see
    /// `crate::batch`.
    pub(crate) batch: crate::batch::BatchState,
    /// How `submit` issues deferrable syscalls.
    pub(crate) io_mode: crate::batch::IoMode,
}

impl LitterBox {
    /// Creates a machine with a fresh address space, an empty kernel, and
    /// the paper-calibrated cost model.
    #[must_use]
    pub fn new(backend: Backend) -> LitterBox {
        LitterBox::with_parts(backend, Kernel::new(), CostModel::paper())
    }

    /// Creates a machine with a custom kernel (e.g.
    /// [`Kernel::with_demo_home`]) and cost model.
    #[must_use]
    pub fn with_parts(backend: Backend, kernel: Kernel, model: CostModel) -> LitterBox {
        LitterBox {
            backend,
            space: AddressSpace::new(),
            kernel,
            cpu: Cpu::new(Clock::new(model)),
            packages: BTreeMap::new(),
            ranges: Vec::new(),
            enclosures: BTreeMap::new(),
            envs: HashMap::new(),
            verif: HashSet::new(),
            hw: HwState::Baseline,
            current: TRUSTED_ENV,
            stack: Vec::new(),
            clustering: Clustering::default(),
            initialized: false,
            seq: 0,
            init_ns: 0,
            filter_mode: FilterMode::KillProcess,
            mpk_key_mode: MpkKeyMode::default(),
            hot_pinned: Vec::new(),
            hot_discount: BTreeMap::new(),
            coalesce_sweeps: false,
            batch: crate::batch::BatchState::default(),
            io_mode: crate::batch::IoMode::Immediate,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The enforcement backend in use.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The simulated clock.
    #[must_use]
    pub fn clock(&self) -> &Clock {
        self.cpu.clock()
    }

    /// Mutable clock access (workloads charge compute through this).
    pub fn clock_mut(&mut self) -> &mut Clock {
        self.cpu.clock_mut()
    }

    /// Hardware event counters.
    #[must_use]
    pub fn stats(&self) -> HwStats {
        self.cpu.clock().stats()
    }

    /// The telemetry recorder: counters, trace ring, and span
    /// attribution for everything this machine (and the kernel and
    /// hardware beneath it) did.
    #[must_use]
    pub fn telemetry(&self) -> &Recorder {
        self.cpu.clock().recorder()
    }

    /// Mutable telemetry access (enable tracing, reset between runs).
    pub fn telemetry_mut(&mut self) -> &mut Recorder {
        self.cpu.clock_mut().recorder_mut()
    }

    /// Records a telemetry event at the current simulated time.
    fn record(&mut self, event: Event) {
        self.cpu.clock_mut().record(event);
    }

    /// Records a fault event and hands the fault back (error-path
    /// helper for the API surface).
    pub(crate) fn trace_fault(&mut self, fault: Fault) -> Fault {
        self.record(Event::Fault { kind: fault.kind() });
        fault
    }

    /// Keeps the recorder's in-enclosure flag and environment slice in
    /// sync with `current` after every environment change. The
    /// `note_env` call closes the recorder's open (track, env)
    /// attribution slice exactly at the switch, so per-goroutine rows
    /// split time by environment across `Execute` handoffs too.
    fn sync_enclosed_flag(&mut self) {
        let enclosed = self.current != TRUSTED_ENV;
        let env = self.current.0;
        let clock = self.cpu.clock_mut();
        let now = clock.now_ns();
        let rec = clock.recorder_mut();
        rec.set_enclosed(enclosed);
        rec.note_env(now, env);
    }

    /// Current simulated time.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.cpu.clock().now_ns()
    }

    /// The kernel (load generators and assertions use it directly,
    /// bypassing enclosure filtering — they model the world outside the
    /// protected program).
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access for harness setup (planting files,
    /// registering remote hosts).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Splits the machine into the kernel and the clock, for out-of-band
    /// harness traffic that must still advance time.
    pub fn kernel_and_clock(&mut self) -> (&mut Kernel, &mut Clock) {
        (&mut self.kernel, self.cpu.clock_mut())
    }

    /// The program's address space.
    #[must_use]
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable address-space access (frontend loaders and the trusted
    /// runtime allocate through this).
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// The environment currently in force.
    #[must_use]
    pub fn current_env(&self) -> EnvId {
        self.current
    }

    /// Name of an environment (for traces).
    #[must_use]
    pub fn env_name(&self, env: EnvId) -> &str {
        self.envs.get(&env).map_or("?", |e| e.name.as_str())
    }

    /// The meta-package clustering computed at init.
    #[must_use]
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Simulated nanoseconds spent in `init`/`init_incremental` (the
    /// "delayed initialization" cost of §6.4).
    #[must_use]
    pub fn init_ns(&self) -> u64 {
        self.init_ns
    }

    /// The package owning `addr`, if any.
    #[must_use]
    pub fn package_at(&self, addr: Addr) -> Option<&str> {
        self.ranges
            .iter()
            .find(|(r, _)| r.contains(addr))
            .map(|(_, name)| name.as_str())
    }

    /// The registered enclosure ids.
    pub fn enclosure_ids(&self) -> impl Iterator<Item = EnclosureId> + '_ {
        self.enclosures.keys().copied()
    }

    /// Renders every execution environment: name, view, filter, and the
    /// backend state (PKRU value / page-table size) — the diagnostic
    /// LitterBox prints alongside fault traces.
    #[must_use]
    pub fn describe_environments(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut ids: Vec<EnvId> = self.envs.keys().copied().collect();
        ids.sort();
        for env in ids {
            let info = &self.envs[&env];
            let _ = writeln!(out, "{env} '{}':", info.name);
            let _ = writeln!(out, "  syscalls: {}", info.policy);
            let mut view: Vec<_> = info.view.iter().collect();
            view.sort();
            let rendered: Vec<String> = view.iter().map(|(p, a)| format!("{p}:{a}")).collect();
            let _ = writeln!(out, "  view: {}", rendered.join(" "));
            match &self.hw {
                HwState::Baseline => {}
                HwState::Mpk { pkru_of_env, .. } => {
                    if let Some(pkru) = pkru_of_env.get(&env) {
                        let _ = writeln!(out, "  pkru: {pkru}");
                    }
                }
                HwState::Vtx { vm } => {
                    if let Some(table) = vm.table(env) {
                        let _ =
                            writeln!(out, "  page table: {} pages mapped", table.mapped_pages());
                    }
                }
                HwState::Proc { sandbox, .. } => {
                    if let Some(table) = sandbox.table(env) {
                        let process = match sandbox.pid_of(env) {
                            Some(pid) if sandbox.is_spawned(env) => format!("pid {pid}"),
                            Some(pid) => format!("pid {pid} (crashed)"),
                            None => "not spawned".to_owned(),
                        };
                        let _ = writeln!(
                            out,
                            "  sandbox: {} pages mapped, {process}",
                            table.mapped_pages()
                        );
                    }
                }
            }
        }
        out
    }

    /// The compiled seccomp-BPF filter in force (the front
    /// environment's), when running on the MPK backend (LB_VTX filters
    /// in the guest OS instead).
    #[must_use]
    pub fn seccomp_program(&self) -> Option<&enclosure_kernel::bpf::Program> {
        match &self.hw {
            HwState::Mpk { filters, front, .. } => {
                filters.get(front).map(|(_, filter)| filter.program())
            }
            _ => None,
        }
    }

    /// Switch fast-path cache counters (LB_MPK only): compiled-filter
    /// reuse vs recompilation across environment switches.
    #[must_use]
    pub fn switch_cache_stats(&self) -> Option<SwitchCacheStats> {
        match &self.hw {
            HwState::Mpk { cache, .. } => Some(*cache),
            _ => None,
        }
    }

    /// The LB_PROC supervisor's spawn ledger: every child `fork` in
    /// order, respawns flagged. `None` on other backends.
    #[must_use]
    pub fn proc_spawn_ledger(&self) -> Option<&[SpawnRecord]> {
        match &self.hw {
            HwState::Proc { sandbox, .. } => Some(sandbox.spawn_ledger()),
            _ => None,
        }
    }

    /// How syscall-filter denials are delivered: kill-process
    /// (abort-by-default, §2.1) or return-errno (supervised degradation).
    #[must_use]
    pub fn filter_mode(&self) -> FilterMode {
        self.filter_mode
    }

    /// Selects the deny action compiled into syscall filters. Must be
    /// called before `init`: the MPK backend bakes the verdict into its
    /// BPF program at build time.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] if the machine is already initialized.
    pub fn set_filter_mode(&mut self, mode: FilterMode) -> Result<(), Fault> {
        if self.initialized {
            return Err(self.trace_fault(Fault::Init(
                "set_filter_mode after init (the BPF deny verdict is baked at build)".into(),
            )));
        }
        self.filter_mode = mode;
        Ok(())
    }

    /// How LB_MPK maps meta-packages onto hardware keys.
    #[must_use]
    pub fn mpk_key_mode(&self) -> MpkKeyMode {
        self.mpk_key_mode
    }

    /// Selects the LB_MPK key-mapping mode. On an initialized machine
    /// the environments are rebuilt immediately, so a switch to
    /// [`MpkKeyMode::Static`] surfaces key exhaustion right here.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] if the rebuild fails (e.g. more than 15
    /// meta-packages under [`MpkKeyMode::Static`]).
    pub fn set_mpk_key_mode(&mut self, mode: MpkKeyMode) -> Result<(), Fault> {
        let prev = self.mpk_key_mode;
        self.mpk_key_mode = mode;
        if self.initialized && self.backend == Backend::Mpk {
            if let Err(e) = self.rebuild() {
                self.mpk_key_mode = prev;
                return Err(self.trace_fault(e));
            }
        }
        Ok(())
    }

    /// The virtual-key table behind LB_MPK, when that backend is active:
    /// bindings, LRU state, and the bind/evict ledger. `None` on other
    /// backends.
    #[must_use]
    pub fn virtual_keys(&self) -> Option<&VirtualKeyTable> {
        match &self.hw {
            HwState::Mpk { vkeys, .. } => Some(vkeys),
            _ => None,
        }
    }

    /// The hardware key currently backing `package`'s meta-package
    /// (LB_MPK only; `None` when the meta is unbound/parked or the
    /// backend differs).
    #[must_use]
    pub fn hardware_key_of(&self, package: &str) -> Option<ProtectionKey> {
        let HwState::Mpk {
            vkeys,
            vkey_of_meta,
            ..
        } = &self.hw
        else {
            return None;
        };
        let meta = *self.clustering.meta_of.get(package)?;
        vkeys.binding(vkey_of_meta[meta])
    }

    /// Checks the LB_MPK stale-binding security invariant: every
    /// hardware key the *live* PKRU register grants rights on must be
    /// owned by a meta-package whose rights in the current environment's
    /// view cover that grant, and the virtual-key table must be
    /// structurally consistent. Returns a description of the first
    /// violation, or `None` when the invariant holds (trivially on
    /// non-MPK backends).
    #[must_use]
    pub fn stale_binding_violation(&self) -> Option<String> {
        let HwState::Mpk {
            vkeys,
            vkey_of_meta,
            ..
        } = &self.hw
        else {
            return None;
        };
        if let Some(v) = vkeys.invariant_violation() {
            return Some(v);
        }
        let info = self.envs.get(&self.current)?;
        let pkru = self.cpu.pkru();
        for hkey in 1..NUM_KEYS {
            let granted = pkru.key_rights(hkey);
            if granted.is_none() {
                continue;
            }
            let Some(owner) = vkeys.owner_of(hkey) else {
                return Some(format!(
                    "live PKRU grants {granted} on unowned hardware key {hkey}"
                ));
            };
            let Some(meta) = self
                .clustering
                .metas
                .iter()
                .find(|m| vkey_of_meta[m.index] == owner)
            else {
                return Some(format!("hardware key {hkey} owned by unmapped {owner}"));
            };
            let viewed = meta
                .members
                .first()
                .and_then(|m| info.view.get(m).copied())
                .unwrap_or(Access::NONE)
                .intersection(Access::RW);
            if !granted.is_subset_of(viewed) {
                return Some(format!(
                    "live PKRU grants {granted} on key {hkey} (meta of '{}') but the \
                     current view only allows {viewed}",
                    meta.members.first().map_or("?", String::as_str)
                ));
            }
        }
        None
    }

    /// Rights the current environment's view grants on `package`.
    #[must_use]
    pub fn view_rights(&self, package: &str) -> Access {
        self.envs
            .get(&self.current)
            .and_then(|e| e.view.get(package).copied())
            .unwrap_or(Access::NONE)
    }

    // ------------------------------------------------------------------
    // Init
    // ------------------------------------------------------------------

    /// `Init`: validates the program description, computes meta-packages,
    /// and builds every execution environment (§4.2, §5.3).
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for invalid descriptions (overlapping sections,
    /// unknown packages in views, duplicate ids, MPK key exhaustion,
    /// ambiguous PKRU/filter combinations).
    pub fn init(&mut self, mut desc: ProgramDesc) -> Result<(), Fault> {
        if self.initialized {
            return Err(self.trace_fault(Fault::Init(
                "init called twice (use init_incremental)".into(),
            )));
        }
        // Injected allocation failure fires before any description is
        // ingested, so a failed init leaves the machine untouched.
        if self.cpu.clock_mut().should_inject(InjectionSite::InitAlloc) {
            return Err(self.trace_fault(Fault::Transient { site: "init_alloc" }));
        }
        let before_ns = self.init_ns;
        let run = (|| {
            self.install_internal_packages(&mut desc)?;
            self.ingest(desc)?;
            self.rebuild()
        })();
        run.map_err(|e| self.trace_fault(e))?;
        self.initialized = true;
        self.record(Event::Init {
            packages: self.packages.len() as u64,
            enclosures: self.enclosures.len() as u64,
            incremental: false,
            ns: self.init_ns - before_ns,
        });
        Ok(())
    }

    /// Incremental `Init` for dynamic languages (§5.2): merges additional
    /// packages and enclosures, then rebuilds environments. "LitterBox
    /// must accept multiple calls to Init, each of which provide only
    /// partial information about a program."
    ///
    /// # Errors
    ///
    /// Same conditions as [`LitterBox::init`].
    pub fn init_incremental(&mut self, mut desc: ProgramDesc) -> Result<(), Fault> {
        if self.cpu.clock_mut().should_inject(InjectionSite::InitAlloc) {
            return Err(self.trace_fault(Fault::Transient { site: "init_alloc" }));
        }
        let before_ns = self.init_ns;
        let run = (|| {
            if !self.initialized {
                self.install_internal_packages(&mut desc)?;
            }
            self.ingest(desc)?;
            self.rebuild()
        })();
        run.map_err(|e| self.trace_fault(e))?;
        self.initialized = true;
        self.record(Event::Init {
            packages: self.packages.len() as u64,
            enclosures: self.enclosures.len() as u64,
            incremental: true,
            ns: self.init_ns - before_ns,
        });
        Ok(())
    }

    /// Replaces an existing enclosure's memory view and rebuilds the
    /// execution environments. Used by dynamic frontends when "the
    /// execution of an enclosure triggers new imports, so LitterBox's
    /// default policy makes these new packages available to the executing
    /// enclosure" (§5.2).
    ///
    /// # Errors
    ///
    /// [`Fault::UnknownEnclosure`] for unknown ids; otherwise the same
    /// conditions as [`LitterBox::init`].
    pub fn update_enclosure_view(&mut self, id: EnclosureId, view: ViewMap) -> Result<(), Fault> {
        let Some(enc) = self.enclosures.get_mut(&id) else {
            return Err(self.trace_fault(Fault::UnknownEnclosure(id)));
        };
        enc.view = view;
        let before_ns = self.init_ns;
        self.rebuild().map_err(|e| self.trace_fault(e))?;
        self.record(Event::ViewUpdate {
            enclosure: id.0,
            ns: self.init_ns - before_ns,
        });
        Ok(())
    }

    fn install_internal_packages(&mut self, desc: &mut ProgramDesc) -> Result<(), Fault> {
        for (name, kind) in [
            (LB_USER_PKG, SectionKind::Text),
            (LB_SUPER_PKG, SectionKind::Data),
        ] {
            let range = self
                .space
                .alloc(enclosure_vmem::PAGE_SIZE)
                .map_err(|e| Fault::Init(e.to_string()))?;
            let section = Section::new(format!("{name}{}", kind.elf_name()), kind, range)
                .map_err(|e| Fault::Init(e.to_string()))?;
            desc.packages.push(PackageDesc {
                name: name.to_owned(),
                sections: vec![section],
                deps: Vec::new(),
            });
        }
        Ok(())
    }

    fn ingest(&mut self, desc: ProgramDesc) -> Result<(), Fault> {
        for pkg in desc.packages {
            if self.packages.contains_key(&pkg.name) {
                return Err(Fault::Init(format!("duplicate package '{}'", pkg.name)));
            }
            for section in &pkg.sections {
                let range = section.range();
                if !range.is_page_aligned() {
                    return Err(Fault::Init(format!(
                        "section {} of '{}' is not page aligned",
                        section.name(),
                        pkg.name
                    )));
                }
                for (existing, owner) in &self.ranges {
                    if existing.overlaps(&range) {
                        return Err(Fault::Init(format!(
                            "section {} of '{}' overlaps '{owner}' ({existing})",
                            section.name(),
                            pkg.name
                        )));
                    }
                }
                self.ranges.push((range, pkg.name.clone()));
            }
            self.packages.insert(
                pkg.name.clone(),
                PackageInfo {
                    sections: pkg.sections,
                    deps: pkg.deps,
                },
            );
        }
        for enc in desc.enclosures {
            if enc.id.0 == 0 {
                return Err(Fault::Init("enclosure id 0 is reserved".into()));
            }
            if self.enclosures.contains_key(&enc.id) {
                return Err(Fault::Init(format!("duplicate {}", enc.id)));
            }
            self.enclosures.insert(enc.id, enc);
        }
        self.verif.extend(desc.verified_callsites);
        Ok(())
    }

    /// Rebuilds environments, clustering, and hardware state from the
    /// current descriptions.
    fn rebuild(&mut self) -> Result<(), Fault> {
        // Views may only reference known packages.
        for enc in self.enclosures.values() {
            for pkg in enc.view.keys() {
                if !self.packages.contains_key(pkg) {
                    return Err(Fault::Init(format!(
                        "view of '{}' references unknown package '{pkg}'",
                        enc.name
                    )));
                }
                if pkg == LB_SUPER_PKG {
                    return Err(Fault::Init(format!(
                        "view of '{}' must not include {LB_SUPER_PKG}",
                        enc.name
                    )));
                }
            }
        }

        // Trusted view: everything RWX except litterbox.super.
        let mut trusted_view: ViewMap = ViewMap::new();
        for name in self.packages.keys() {
            if name != LB_SUPER_PKG {
                trusted_view.insert(name.clone(), Access::RWX);
            }
        }

        // Enclosure views are augmented with the always-available
        // litterbox.user package.
        let mut envs: HashMap<EnvId, EnvInfo> = HashMap::new();
        envs.insert(
            TRUSTED_ENV,
            EnvInfo {
                name: "trusted".into(),
                view: trusted_view.clone(),
                policy: SysPolicy::all(),
            },
        );
        for enc in self.enclosures.values() {
            let mut view = enc.view.clone();
            view.insert(LB_USER_PKG.to_owned(), Access::RX);
            envs.insert(
                EnvId(enc.id.0),
                EnvInfo {
                    name: enc.name.clone(),
                    view,
                    policy: enc.policy.clone(),
                },
            );
        }

        // Clustering across all views, trusted included (as pseudo id 0),
        // so litterbox.super lands in its own meta-package.
        let package_names: Vec<String> = self.packages.keys().cloned().collect();
        let mut cluster_inputs: Vec<EnclosureDesc> = vec![EnclosureDesc {
            id: EnclosureId(0),
            name: "trusted".into(),
            view: trusted_view,
            policy: SysPolicy::all(),
            marked: vec![],
        }];
        for (env, info) in &envs {
            if *env != TRUSTED_ENV {
                cluster_inputs.push(EnclosureDesc {
                    id: EnclosureId(env.0),
                    name: info.name.clone(),
                    view: info.view.clone(),
                    policy: info.policy.clone(),
                    marked: vec![],
                });
            }
        }
        let clustering = cluster(&package_names, &cluster_inputs);

        // Init cost accounting (the §6.4 "delayed initialization").
        let total_pages: u64 = self
            .packages
            .values()
            .flat_map(|p| p.sections.iter())
            .map(|s| s.range().page_len())
            .sum();
        let per_env = match self.backend {
            Backend::Baseline => 0,
            Backend::Mpk => INIT_NS_PER_ENV_MPK,
            Backend::Vtx => INIT_NS_PER_ENV_VTX,
            Backend::Proc => INIT_NS_PER_ENV_PROC,
        };
        let cost = if self.backend == Backend::Baseline {
            0
        } else {
            INIT_NS_PER_PACKAGE * self.packages.len() as u64
                + INIT_NS_PER_PAGE * total_pages
                + per_env * envs.len() as u64
        };
        self.cpu.clock_mut().advance(cost);
        self.init_ns += cost;

        // Backend-specific state. LB_MPK additionally scans every
        // untrusted text section for WRPKRU/XRSTOR, as ERIM does (§5.3):
        // only the LitterBox package may modify PKRU.
        if self.backend == Backend::Mpk {
            for (name, info) in &self.packages {
                if name == LB_USER_PKG || name == LB_SUPER_PKG {
                    continue;
                }
                for section in &info.sections {
                    if let Some(addr) = crate::scan::scan_section(&self.space, section) {
                        return Err(Fault::Init(format!(
                            "package '{name}' contains a PKRU-writing instruction at {addr}                              (section {}); only LitterBox may execute WRPKRU",
                            section.name()
                        )));
                    }
                }
            }
        }
        let mut hw = match self.backend {
            Backend::Baseline => HwState::Baseline,
            Backend::Mpk => self.build_mpk(&envs, &clustering)?,
            Backend::Vtx => self.build_vtx(&envs)?,
            Backend::Proc => self.build_proc(&envs)?,
        };

        // An incremental rebuild must not kill running children: the
        // supervisor swaps in new images and filters, but a surviving
        // environment keeps its already-spawned process (and pid).
        if let (HwState::Proc { sandbox, .. }, HwState::Proc { sandbox: old, .. }) =
            (&mut hw, &self.hw)
        {
            sandbox.adopt_spawned(old);
        }

        // Preserve the current environment across incremental rebuilds
        // (dynamic imports happen mid-execution, §5.2); fall back to
        // trusted if the environment vanished.
        let resume = if envs.contains_key(&self.current) {
            self.current
        } else {
            self.stack.clear();
            TRUSTED_ENV
        };
        self.envs = envs;
        self.clustering = clustering;
        self.hw = hw;
        self.current = resume;
        self.sync_enclosed_flag();
        self.switch_hw(resume)?;
        Ok(())
    }

    fn build_mpk(
        &self,
        envs: &HashMap<EnvId, EnvInfo>,
        clustering: &Clustering,
    ) -> Result<HwState, Fault> {
        let mut vkeys = VirtualKeyTable::new();
        let mut vkey_of_meta = Vec::with_capacity(clustering.len());
        for _ in 0..clustering.len() {
            vkey_of_meta.push(vkeys.alloc());
        }

        // Filter-ambiguity check, independent of which virtual keys
        // happen to be bound: two environments whose views induce the
        // same per-meta data rights produce the same PKRU value whenever
        // their working sets are resident, so their syscall policies must
        // agree (seccomp indexes on PKRU).
        let mut env_ids: Vec<EnvId> = envs.keys().copied().collect();
        env_ids.sort();
        let mut seen_sig: HashMap<Vec<Access>, (String, SysPolicy)> = HashMap::new();
        for env in &env_ids {
            let info = &envs[env];
            let sig: Vec<Access> = clustering
                .metas
                .iter()
                .map(|m| meta_rights_in_view(m, &info.view).intersection(Access::RW))
                .collect();
            if let Some((other, other_policy)) = seen_sig.get(&sig) {
                if *other_policy != info.policy {
                    return Err(Fault::Init(format!(
                        "environments '{other}' and '{}' share PKRU data rights but \
                         differ in syscall filters; LB_MPK cannot distinguish them \
                         (seccomp indexes on PKRU)",
                        info.name
                    )));
                }
            } else {
                seen_sig.insert(sig, (info.name.clone(), info.policy.clone()));
            }
        }

        let super_meta = clustering.meta_of.get(LB_SUPER_PKG).copied();
        match self.mpk_key_mode {
            MpkKeyMode::Static => {
                // One hardware key per meta for the program's lifetime.
                for &v in &vkey_of_meta {
                    vkeys.bind(v).map_err(|_| {
                        Fault::Init(format!(
                            "{} meta-packages exceed the 16 MPK keys; \
                             libmpk-style key virtualization would be required (§5.3)",
                            clustering.len()
                        ))
                    })?;
                }
            }
            MpkKeyMode::Virtual => {
                // Virtualization multiplexes keys *across* switches; each
                // single environment's working set must still fit the
                // hardware at once.
                for env in &env_ids {
                    if *env == TRUSTED_ENV {
                        continue;
                    }
                    let info = &envs[env];
                    let pinned = clustering
                        .metas
                        .iter()
                        .filter(|m| Some(m.index) != super_meta)
                        .filter(|m| !meta_rights_in_view(m, &info.view).is_none())
                        .count();
                    if pinned > MAX_BOUND_KEYS {
                        return Err(Fault::Init(format!(
                            "enclosure '{}' views {pinned} meta-packages at once, \
                             more than the {MAX_BOUND_KEYS} hardware keys key \
                             virtualization can bind simultaneously",
                            info.name
                        )));
                    }
                }
                // Warm the cache in meta order. litterbox.super is never
                // bound: its pages stay parked (non-present) for the
                // program's lifetime, unreachable by every environment —
                // strictly stronger than a PKRU access-disable bit.
                for meta in &clustering.metas {
                    if Some(meta.index) == super_meta || vkeys.free_hkeys() == 0 {
                        continue;
                    }
                    let _ = vkeys.bind(vkey_of_meta[meta.index]);
                }
            }
        }

        let mut table = PageTable::new("mpk-shared");
        for (name, info) in &self.packages {
            let binding = vkeys.binding(vkey_of_meta[clustering.meta_of[name]]);
            for section in &info.sections {
                match binding {
                    Some(key) => table.map_range(section.range(), section.default_rights(), key),
                    None => {
                        table.map_range(section.range(), section.default_rights(), NO_KEY);
                        table
                            .set_present(section.range(), false)
                            .expect("section was just mapped");
                    }
                }
            }
        }

        let pkru_epoch = vkeys.epoch();
        let pkru_of_env = mpk_pkru_map(envs, clustering, &vkeys, &vkey_of_meta);
        let filter = mpk_compile_filter(self.current, envs, &pkru_of_env, self.filter_mode)?;
        let mut filters = HashMap::new();
        filters.insert(self.current, (pkru_epoch, filter));
        Ok(HwState::Mpk {
            table,
            vkeys,
            vkey_of_meta,
            pkru_of_env,
            pkru_epoch,
            filters,
            front: self.current,
            cache: SwitchCacheStats::default(),
        })
    }

    fn build_vtx(&self, envs: &HashMap<EnvId, EnvInfo>) -> Result<HwState, Fault> {
        let build_table = |name: &str, view: &ViewMap| {
            let mut table = PageTable::new(name);
            for (pkg, rights) in view {
                if let Some(info) = self.packages.get(pkg) {
                    for section in &info.sections {
                        let effective = section.default_rights().intersection(*rights);
                        if !effective.is_none() {
                            table.map_range(section.range(), effective, 0);
                        }
                    }
                }
            }
            table
        };
        let trusted = build_table("trusted", &envs[&TRUSTED_ENV].view);
        let mut vm = Vm::new(trusted);
        for (env, info) in envs {
            if *env != TRUSTED_ENV {
                vm.install(*env, build_table(&info.name, &info.view));
            }
        }
        Ok(HwState::Vtx { vm })
    }

    fn build_proc(&self, envs: &HashMap<EnvId, EnvInfo>) -> Result<HwState, Fault> {
        // Address-space images are view-derived page tables, exactly as
        // LB_VTX builds them — the enforcement differs (a child process
        // simply has nothing else mapped), not the view semantics.
        let build_table = |name: &str, view: &ViewMap| {
            let mut table = PageTable::new(name);
            for (pkg, rights) in view {
                if let Some(info) = self.packages.get(pkg) {
                    for section in &info.sections {
                        let effective = section.default_rights().intersection(*rights);
                        if !effective.is_none() {
                            table.map_range(section.range(), effective, 0);
                        }
                    }
                }
            }
            table
        };
        let trusted = build_table("supervisor", &envs[&TRUSTED_ENV].view);
        let mut sandbox = ProcSandbox::new(trusted);
        let mut filters = HashMap::new();
        for (env, info) in envs {
            if *env != TRUSTED_ENV {
                sandbox.install(*env, build_table(&info.name, &info.view));
            }
            // One per-process program per environment (process identity
            // replaces the PKRU dispatch), installed at fork time.
            let filter = SeccompFilter::compile_process(&info.policy, self.filter_mode)
                .map_err(|e| Fault::Init(format!("per-process seccomp compile failed: {e}")))?;
            filters.insert(*env, filter);
        }
        Ok(HwState::Proc { sandbox, filters })
    }

    // ------------------------------------------------------------------
    // Switches
    // ------------------------------------------------------------------

    /// `Prolog`: enters `enclosure`'s execution environment from a
    /// verified call-site.
    ///
    /// # Errors
    ///
    /// * [`Fault::UnverifiedCallsite`] if `callsite` is not in `.verif`;
    /// * [`Fault::Escalation`] if the target is less restrictive than the
    ///   current environment (§2.2);
    /// * [`Fault::UnknownEnclosure`] for unregistered ids.
    pub fn prolog(&mut self, enclosure: EnclosureId, callsite: Addr) -> Result<SwitchToken, Fault> {
        // Flush barrier: anything batched in the departing environment
        // is serviced before the switch, so a batch never mixes
        // environments (and its events attribute to the enqueuer).
        self.flush_batch_barrier();
        if self.backend == Backend::Baseline {
            // Vanilla closure: no switch, no checks.
            self.seq += 1;
            let token = SwitchToken {
                enclosure,
                prev: self.current,
                seq: self.seq,
            };
            self.stack.push((self.current, self.seq));
            self.enter_span(enclosure);
            return Ok(token);
        }
        if !self.enclosures.contains_key(&enclosure) {
            return Err(self.trace_fault(Fault::UnknownEnclosure(enclosure)));
        }
        let switch_started_ns = self.cpu.clock().now_ns();
        self.cpu.clock_mut().charge_callsite_check();
        if !self.verif.contains(&callsite) {
            return Err(self.trace_fault(Fault::UnverifiedCallsite { addr: callsite }));
        }
        let target = EnvId(enclosure.0);
        if let Err(e) = self.check_monotone(target) {
            return Err(self.trace_fault(e));
        }
        let prev = self.current;
        self.switch_hw(target).map_err(|e| self.trace_fault(e))?;
        self.seq += 1;
        self.stack.push((prev, self.seq));
        self.current = target;
        self.sync_enclosed_flag();
        self.enter_span(enclosure);
        // The entry half of the switch: callsite check + hardware
        // writes + any demand-bind sweep the switch triggered. Feeding
        // the measured delta (not a constant) keeps eviction tails
        // visible in the distribution.
        let clock = self.cpu.clock_mut();
        let delta = clock.now_ns().saturating_sub(switch_started_ns);
        clock.recorder_mut().record_op("switch_prolog", delta);
        Ok(SwitchToken {
            enclosure,
            prev,
            seq: self.seq,
        })
    }

    /// Opens the telemetry span for `enclosure` and records the prolog
    /// event.
    fn enter_span(&mut self, enclosure: EnclosureId) {
        let name = self
            .enclosures
            .get(&enclosure)
            .map_or_else(|| format!("enc#{}", enclosure.0), |e| e.name.clone());
        let package = self
            .enclosures
            .get(&enclosure)
            .and_then(|e| {
                // Attribute the span to what the programmer marked (the
                // `#[enclose]` roots), not to whatever view entry happens
                // to sort first — the view is mostly derived dependency
                // closure.
                if e.marked.is_empty() {
                    e.view
                        .keys()
                        .filter(|p| p.as_str() != LB_USER_PKG)
                        .min()
                        .cloned()
                } else {
                    Some(e.marked.join("+"))
                }
            })
            .unwrap_or_else(|| "-".to_owned());
        let clock = self.cpu.clock_mut();
        let now = clock.now_ns();
        clock
            .recorder_mut()
            .begin_span(now, SpanScope::new(name, package, enclosure.0));
        clock.record(Event::Prolog {
            enclosure: enclosure.0,
        });
    }

    /// `Epilog`: returns to the environment captured by `token`.
    ///
    /// # Errors
    ///
    /// [`Fault::SwitchMismatch`] if prolog/epilog nesting is violated.
    pub fn epilog(&mut self, token: SwitchToken) -> Result<(), Fault> {
        let Some((prev, seq)) = self.stack.pop() else {
            return Err(self.trace_fault(Fault::SwitchMismatch {
                expected: token.prev,
                actual: self.current,
            }));
        };
        if seq != token.seq || prev != token.prev {
            self.stack.push((prev, seq));
            return Err(self.trace_fault(Fault::SwitchMismatch {
                expected: token.prev,
                actual: self.current,
            }));
        }
        // Flush barrier: a batch never outlives an epilog. Serviced here,
        // while still inside the enclosure, so the flush span nests in
        // the enclosure span and the crossing bills the departing
        // environment.
        self.flush_batch_barrier();
        let switch_started_ns = self.cpu.clock().now_ns();
        if self.backend != Backend::Baseline {
            if let Err(e) = self.switch_hw(token.prev) {
                // The hardware write back to `prev` failed (e.g. an
                // injected WRPKRU/CR3 fault). Restore the nesting frame
                // so the ledger stays consistent: the program is still
                // inside the enclosure and `recover_to_trusted` can
                // unwind it.
                self.stack.push((prev, seq));
                return Err(self.trace_fault(e));
            }
        }
        self.current = token.prev;
        self.sync_enclosed_flag();
        self.cpu.clock_mut().note_switch_pair();
        let clock = self.cpu.clock_mut();
        let now = clock.now_ns();
        if self.backend != Backend::Baseline {
            clock
                .recorder_mut()
                .record_op("switch_epilog", now.saturating_sub(switch_started_ns));
        }
        clock.recorder_mut().end_span(now);
        clock.record(Event::Epilog {
            enclosure: token.enclosure.0,
        });
        Ok(())
    }

    /// Forcibly returns the machine to the trusted environment after a
    /// fault, unwinding any abandoned prolog frames so the telemetry
    /// ledger stays balanced (every recorded `Prolog` gets its `Epilog`,
    /// every open span is closed). Injection is suspended for the whole
    /// recovery — a containment path must not itself be injectable.
    ///
    /// A no-op (zero events, zero simulated time) when the machine is
    /// already trusted with no open frames.
    pub fn recover_to_trusted(&mut self) {
        if self.current == TRUSTED_ENV && self.stack.is_empty() {
            return;
        }
        self.cpu.clock_mut().suspend_injection();
        self.flush_batch_barrier();
        while let Some((prev, _seq)) = self.stack.pop() {
            let exited = self.current;
            self.current = prev;
            self.cpu.clock_mut().note_switch_pair();
            let clock = self.cpu.clock_mut();
            let now = clock.now_ns();
            clock.recorder_mut().end_span(now);
            clock.record(Event::Epilog {
                enclosure: exited.0,
            });
        }
        self.current = TRUSTED_ENV;
        self.switch_hw(TRUSTED_ENV)
            .expect("the trusted environment is always installed");
        self.sync_enclosed_flag();
        self.cpu.clock_mut().resume_injection();
    }

    /// `Execute`: the user-level scheduler's switch between unrelated
    /// protection contexts (§4.2). Swaps the whole (environment, nesting)
    /// context and returns the previous one.
    ///
    /// # Errors
    ///
    /// [`Fault::UnverifiedCallsite`] for unknown call-sites.
    pub fn execute(&mut self, ctx: EnvContext, callsite: Addr) -> Result<EnvContext, Fault> {
        // Same flush barrier as prolog/epilog: a scheduler context swap
        // must not carry another environment's batch with it.
        self.flush_batch_barrier();
        if self.backend == Backend::Baseline {
            let prev = EnvContext {
                current: self.current,
                stack: std::mem::take(&mut self.stack),
            };
            self.record(Event::Execute {
                from_env: prev.current.0,
                to_env: ctx.current.0,
            });
            self.current = ctx.current;
            self.stack = ctx.stack;
            return Ok(prev);
        }
        self.cpu.clock_mut().charge_callsite_check();
        if !self.verif.contains(&callsite) {
            return Err(self.trace_fault(Fault::UnverifiedCallsite { addr: callsite }));
        }
        self.switch_hw(ctx.current)
            .map_err(|e| self.trace_fault(e))?;
        let prev = EnvContext {
            current: self.current,
            stack: std::mem::take(&mut self.stack),
        };
        self.record(Event::Execute {
            from_env: prev.current.0,
            to_env: ctx.current.0,
        });
        self.current = ctx.current;
        self.stack = ctx.stack;
        self.sync_enclosed_flag();
        Ok(prev)
    }

    fn switch_hw(&mut self, target: EnvId) -> Result<(), Fault> {
        match &mut self.hw {
            HwState::Baseline => Ok(()),
            HwState::Mpk {
                table,
                vkeys,
                vkey_of_meta,
                pkru_of_env,
                pkru_epoch,
                filters,
                front,
                cache,
            } => {
                if !self.envs.contains_key(&target) {
                    return Err(Fault::UnknownEnclosure(EnclosureId(target.0)));
                }
                // Bind the target's working set before granting anything.
                // A no-op when every needed meta is already resident (the
                // common case the Table 1 switch costs are pinned to);
                // otherwise this is where libmpk's LRU multiplexing pays
                // its `pkey_mprotect` sweeps.
                if target != TRUSTED_ENV {
                    let info = &self.envs[&target];
                    let super_meta = self.clustering.meta_of.get(LB_SUPER_PKG).copied();
                    // The keys of the metas the target's view grants,
                    // LitterBox's own aside, gathered on the stack: a
                    // switch whose working set is resident allocates
                    // nothing.
                    let mut pinned = [VirtualKey(0); MAX_BOUND_KEYS];
                    let mut pinned_len = 0;
                    let mut to_bind = Vec::new();
                    for meta in &self.clustering.metas {
                        if Some(meta.index) == super_meta
                            || meta_rights_in_view(meta, &info.view).is_none()
                        {
                            continue;
                        }
                        let vkey = vkey_of_meta[meta.index];
                        if let Some(slot) = pinned.get_mut(pinned_len) {
                            *slot = vkey;
                        }
                        pinned_len += 1;
                        if !vkeys.is_bound(vkey) {
                            to_bind.push(meta.index);
                        }
                    }
                    if pinned_len > MAX_BOUND_KEYS {
                        return Err(Fault::Init(format!(
                            "enclosure '{}' pins {pinned_len} meta-packages at once, more than \
                             the {MAX_BOUND_KEYS} hardware keys",
                            info.name,
                        )));
                    }
                    let pinned = &pinned[..pinned_len];
                    // Binding nothing is a no-op.
                    if !to_bind.is_empty() {
                        mpk_bind_many(
                            table,
                            vkeys,
                            vkey_of_meta,
                            &self.clustering.metas,
                            &self.packages,
                            &mut self.cpu,
                            pinned,
                            &self.hot_pinned,
                            &to_bind,
                            self.coalesce_sweeps,
                        )?;
                    }
                    for &v in pinned {
                        vkeys.touch(v);
                    }
                }
                // Bindings moved → every cached PKRU image (and every
                // compiled PKRU-indexed seccomp program) is stale.
                if *pkru_epoch != vkeys.epoch() {
                    *pkru_of_env = mpk_pkru_map(&self.envs, &self.clustering, vkeys, vkey_of_meta);
                    *pkru_epoch = vkeys.epoch();
                    filters.clear();
                }
                // Fast path: an unchanged binding reuses the target's
                // compiled filter; only a cold or invalidated entry pays
                // a recompile (with the target's rule taking precedence
                // over transient PKRU collisions).
                match filters.get(&target) {
                    Some((epoch, _)) if *epoch == vkeys.epoch() => cache.hits += 1,
                    _ => {
                        let filter =
                            mpk_compile_filter(target, &self.envs, pkru_of_env, self.filter_mode)?;
                        filters.insert(target, (vkeys.epoch(), filter));
                        cache.compiles += 1;
                    }
                }
                *front = target;
                let pkru = *pkru_of_env
                    .get(&target)
                    .ok_or(Fault::UnknownEnclosure(EnclosureId(target.0)))?;
                // Injection fires before the write: PKRU keeps its old
                // value and nothing is charged, like a faulted WRPKRU.
                if self.cpu.clock_mut().should_inject(InjectionSite::Wrpkru) {
                    return Err(Fault::Transient { site: "wrpkru" });
                }
                self.cpu.write_pkru(pkru);
                Ok(())
            }
            HwState::Vtx { vm } => {
                vm.switch(target, self.cpu.clock_mut())
                    .map_err(|e| match e {
                        VtxError::SwitchFailed(_) => Fault::Transient { site: "cr3_write" },
                        _ => Fault::UnknownEnclosure(EnclosureId(target.0)),
                    })?;
                Ok(())
            }
            HwState::Proc { sandbox, .. } => {
                // Lazy spawn + request message into a child; reply
                // message back to the supervisor (infallible, so
                // `recover_to_trusted` always converges).
                sandbox
                    .switch(target, self.cpu.clock_mut())
                    .map_err(|e| match e {
                        ProcError::ForkFailed(_) => Fault::Transient { site: "proc_fork" },
                        ProcError::UnknownEnv(_) => Fault::UnknownEnclosure(EnclosureId(target.0)),
                    })?;
                Ok(())
            }
        }
    }

    /// Enforces the monotone-restriction rule: `target`'s view and policy
    /// must be subsets of the current environment's (§2.2).
    fn check_monotone(&self, target: EnvId) -> Result<(), Fault> {
        let from = &self.envs[&self.current];
        let to = &self.envs[&target];
        if self.current == TRUSTED_ENV {
            return Ok(()); // trusted is maximal
        }
        for (pkg, rights) in &to.view {
            let held = from.view.get(pkg).copied().unwrap_or(Access::NONE);
            if !rights.is_subset_of(held) {
                return Err(Fault::Escalation {
                    from: from.name.clone(),
                    to: to.name.clone(),
                    detail: format!("would gain {rights} on '{pkg}' (held {held})"),
                });
            }
        }
        if !to.policy.is_subset_of(&from.policy) {
            return Err(Fault::Escalation {
                from: from.name.clone(),
                to: to.name.clone(),
                detail: format!(
                    "would widen syscalls from [{}] to [{}]",
                    from.policy, to.policy
                ),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transfer
    // ------------------------------------------------------------------

    /// `Transfer`: repartitions heap memory by moving `range` into
    /// `to`'s arena (§4.2). `from` names the current owner for
    /// validation, or `None` for a fresh (runtime-allocated) span.
    ///
    /// # Errors
    ///
    /// [`Fault::UnknownPackage`] for unknown packages, [`Fault::Init`]
    /// for ranges that don't match the recorded owner.
    pub fn transfer(
        &mut self,
        range: VirtRange,
        from: Option<&str>,
        to: &str,
    ) -> Result<(), Fault> {
        if !self.packages.contains_key(to) {
            return Err(self.trace_fault(Fault::UnknownPackage(to.to_owned())));
        }
        // Injected failures fire before any ownership mutation, modeling
        // an allocation failure in the destination arena or a faulted
        // `pkey_mprotect`; the transfer simply did not happen.
        if self
            .cpu
            .clock_mut()
            .should_inject(InjectionSite::TransferAlloc)
        {
            return Err(self.trace_fault(Fault::Transient {
                site: "transfer_alloc",
            }));
        }
        if matches!(self.hw, HwState::Mpk { .. })
            && self
                .cpu
                .clock_mut()
                .should_inject(InjectionSite::PkeyMprotect)
        {
            return Err(self.trace_fault(Fault::Transient {
                site: "pkey_mprotect",
            }));
        }
        // Detach from the previous owner.
        if let Some(from) = from {
            let Some(info) = self.packages.get_mut(from) else {
                return Err(self.trace_fault(Fault::UnknownPackage(from.to_owned())));
            };
            let before = info.sections.len();
            info.sections.retain(|s| s.range() != range);
            if info.sections.len() == before {
                return Err(self.trace_fault(Fault::Init(format!(
                    "transfer source '{from}' does not own {range}"
                ))));
            }
            self.ranges.retain(|(r, _)| *r != range);
        } else if let Some(owner) = self.package_at(range.start()) {
            let owner = owner.to_owned();
            return Err(self.trace_fault(Fault::Init(format!(
                "transfer of {range} without `from`, but '{owner}' owns it"
            ))));
        }

        // Attach to the destination.
        let section = Section::new(
            format!("{to}.arena@{:#x}", range.start().0),
            SectionKind::Arena,
            range,
        )
        .map_err(|e| self.trace_fault(Fault::Init(e.to_string())))?;
        self.packages
            .get_mut(to)
            .expect("checked above")
            .sections
            .push(section);
        self.ranges.push((range, to.to_owned()));
        self.record(Event::Transfer {
            pages: range.page_len(),
            to: to.to_owned(),
        });

        // Hardware update.
        match &mut self.hw {
            HwState::Baseline => Ok(()),
            HwState::Mpk {
                table,
                vkeys,
                vkey_of_meta,
                ..
            } => {
                match vkeys.binding(vkey_of_meta[self.clustering.meta_of[to]]) {
                    Some(key) => table.map_range(range, Access::RW, key),
                    None => {
                        // Destination meta is parked: the arena joins it
                        // non-present and becomes reachable when the meta
                        // is next bound.
                        table.map_range(range, Access::RW, NO_KEY);
                        table
                            .set_present(range, false)
                            .expect("range was just mapped");
                    }
                }
                self.cpu
                    .clock_mut()
                    .charge_pkey_mprotect_pages(range.page_len());
                Ok(())
            }
            HwState::Vtx { vm } => {
                // One guest-syscall transfer updates every environment's
                // table with the rights *its* view grants the new owner
                // (an R-only view yields read-only arena pages).
                self.cpu
                    .clock_mut()
                    .charge_vtx_transfer_pages(range.page_len());
                for (env, info) in &self.envs {
                    let rights = info
                        .view
                        .get(to)
                        .copied()
                        .unwrap_or(Access::NONE)
                        .intersection(Access::RW);
                    let table = vm
                        .table_mut(*env)
                        .expect("every environment has an installed table");
                    if rights.is_none() {
                        table.unmap_range(range);
                    } else {
                        table.map_range(range, rights, 0);
                    }
                }
                Ok(())
            }
            HwState::Proc { sandbox, .. } => {
                // The supervisor ships the page contents over the pipe
                // (one message per 4-page unit) and rewrites each
                // child's image with the rights *its* view grants.
                self.cpu
                    .clock_mut()
                    .charge_proc_transfer_pages(range.page_len());
                for (env, info) in &self.envs {
                    let rights = info
                        .view
                        .get(to)
                        .copied()
                        .unwrap_or(Access::NONE)
                        .intersection(Access::RW);
                    let table = sandbox
                        .table_mut(*env)
                        .expect("every environment has an installed image");
                    if rights.is_none() {
                        table.unmap_range(range);
                    } else {
                        table.map_range(range, rights, 0);
                    }
                }
                Ok(())
            }
        }
    }

    /// Demand-binds `package`'s meta-package to a hardware key (LB_MPK
    /// with key virtualization). Trusted code calls this before touching
    /// a package whose binding may have been evicted — the moral
    /// equivalent of libmpk's `pkey_sync` on a `PROT_NONE` fault. The
    /// current environment's working set is pinned, so the bind can
    /// never evict something the running code needs. A no-op when the
    /// meta is already resident (it just refreshes its LRU stamp) or on
    /// other backends.
    ///
    /// # Errors
    ///
    /// * [`Fault::UnknownPackage`] for unregistered names;
    /// * [`Fault::Init`] for `litterbox.super`, which is never bound;
    /// * [`Fault::Transient`] when the eviction sweep's `pkey_mprotect`
    ///   is injected to fail (the old binding stays intact).
    pub fn bind_package(&mut self, package: &str) -> Result<(), Fault> {
        if !self.packages.contains_key(package) {
            return Err(self.trace_fault(Fault::UnknownPackage(package.to_owned())));
        }
        if package == LB_SUPER_PKG {
            return Err(self.trace_fault(Fault::Init(format!(
                "{LB_SUPER_PKG} is never bound to a hardware key"
            ))));
        }
        let HwState::Mpk {
            table,
            vkeys,
            vkey_of_meta,
            pkru_of_env,
            pkru_epoch,
            filters,
            front: _,
            cache,
        } = &mut self.hw
        else {
            return Ok(());
        };
        if self.mpk_key_mode == MpkKeyMode::Static {
            return Ok(()); // every meta is permanently resident
        }
        let meta_index = self.clustering.meta_of[package];
        let info = &self.envs[&self.current];
        let super_meta = self.clustering.meta_of.get(LB_SUPER_PKG).copied();
        let mut pinned: Vec<VirtualKey> = self
            .clustering
            .metas
            .iter()
            .filter(|m| Some(m.index) != super_meta)
            .filter(|m| {
                self.current != TRUSTED_ENV && !meta_rights_in_view(m, &info.view).is_none()
            })
            .filter(|m| vkeys.is_bound(vkey_of_meta[m.index]))
            .map(|m| vkey_of_meta[m.index])
            .collect();
        pinned.push(vkey_of_meta[meta_index]);
        if let Err(e) = mpk_bind_many(
            table,
            vkeys,
            vkey_of_meta,
            &self.clustering.metas,
            &self.packages,
            &mut self.cpu,
            &pinned,
            &self.hot_pinned,
            &[meta_index],
            self.coalesce_sweeps,
        ) {
            return Err(self.trace_fault(e));
        }
        // Re-grant under the new bindings so the freshly bound key is
        // actually usable from the current environment.
        if *pkru_epoch != vkeys.epoch() {
            *pkru_of_env = mpk_pkru_map(&self.envs, &self.clustering, vkeys, vkey_of_meta);
            *pkru_epoch = vkeys.epoch();
            filters.clear();
            let filter =
                mpk_compile_filter(self.current, &self.envs, pkru_of_env, self.filter_mode)?;
            filters.insert(self.current, (vkeys.epoch(), filter));
            cache.compiles += 1;
            let pkru = pkru_of_env[&self.current];
            self.cpu.write_pkru(pkru);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Telemetry-guided eviction tuning
    // ------------------------------------------------------------------

    /// Pins `packages`' meta-packages as eviction-averse ("hot"): the
    /// LRU prefers any other victim while one exists. Advisory — when
    /// everything else is hard-pinned by the running working set a hot
    /// meta is still evicted, so pinning can never introduce a failure
    /// the pure LRU would not have. Replaces any previous hot set;
    /// a no-op (beyond validation) on non-MPK backends.
    ///
    /// # Errors
    ///
    /// [`Fault::UnknownPackage`] for unregistered names.
    pub fn pin_hot_packages(&mut self, packages: &[&str]) -> Result<(), Fault> {
        let mut hot = Vec::new();
        for pkg in packages {
            let Some(&meta) = self.clustering.meta_of.get(*pkg) else {
                return Err(self.trace_fault(Fault::UnknownPackage((*pkg).to_owned())));
            };
            if let HwState::Mpk { vkey_of_meta, .. } = &self.hw {
                let v = vkey_of_meta[meta];
                if !hot.contains(&v) {
                    hot.push(v);
                }
            }
        }
        self.hot_pinned = hot;
        Ok(())
    }

    /// Clears the hot set (back to pure LRU eviction).
    pub fn clear_hot_pins(&mut self) {
        self.hot_pinned.clear();
    }

    /// Raw span self-time per package from the attribution ledger.
    /// Multi-package scopes (`"a+b"`) credit each member; the trusted
    /// placeholder scope is skipped.
    fn raw_self_time(&self) -> BTreeMap<String, u64> {
        let mut by_pkg: BTreeMap<String, u64> = BTreeMap::new();
        for (scope, cost) in self.telemetry().attribution() {
            for pkg in scope.package.split('+') {
                if pkg.is_empty() || pkg == "-" {
                    continue;
                }
                *by_pkg.entry(pkg.to_owned()).or_default() += cost.self_ns;
            }
        }
        by_pkg
    }

    /// The top-`k` packages by *effective* span self-time — the raw
    /// attribution ledger minus whatever [`Self::age_hot_signal`] has
    /// decayed away — the telemetry signal behind
    /// [`Self::pin_hot_packages`]. Until the first decay this is exactly
    /// the raw ledger. A package whose signal has fully decayed is no
    /// longer hot and is not ranked at all. Ties break alphabetically so
    /// the pick is deterministic.
    #[must_use]
    pub fn hot_packages_by_self_time(&self, k: usize) -> Vec<String> {
        let mut ranked: Vec<(String, u64)> = self
            .raw_self_time()
            .into_iter()
            .filter_map(|(pkg, raw)| {
                let discount = self.hot_discount.get(&pkg).copied().unwrap_or(0);
                let effective = raw.saturating_sub(discount);
                (effective > 0).then_some((pkg, effective))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked.into_iter().map(|(pkg, _)| pkg).collect()
    }

    /// Ages the pinning signal one half-life: every package's remaining
    /// effective self-time is halved (the attribution ledger itself is
    /// untouched — decay is bookkept as a per-package discount). Calling
    /// this at phase boundaries keeps [`Self::hot_packages_by_self_time`]
    /// tracking the *current* working set instead of the all-time one,
    /// so a package that was hot an hour ago stops outranking the
    /// packages that are hot now.
    pub fn age_hot_signal(&mut self) {
        for (pkg, raw) in self.raw_self_time() {
            let entry = self.hot_discount.entry(pkg).or_insert(0);
            let remaining = raw.saturating_sub(*entry);
            *entry = raw - remaining / 2;
        }
    }

    /// Re-derives the hot set from the aged signal and pins it: the
    /// top-`k` packages by effective self-time replace the previous hot
    /// set wholesale, so a pin whose package went cold is released.
    /// Returns the packages now pinned (possibly fewer than `k`, or
    /// none, when the signal has decayed away).
    ///
    /// # Errors
    ///
    /// [`Fault::UnknownPackage`] if the attribution ledger names a
    /// package the machine does not know (a scope from before a rebuild).
    pub fn refresh_hot_pins(&mut self, k: usize) -> Result<Vec<String>, Fault> {
        let hot = self.hot_packages_by_self_time(k);
        let refs: Vec<&str> = hot.iter().map(String::as_str).collect();
        self.pin_hot_packages(&refs)?;
        Ok(hot)
    }

    /// The virtual keys currently pinned hot (empty on non-MPK backends
    /// and before any [`Self::pin_hot_packages`]).
    #[must_use]
    pub fn hot_pins(&self) -> &[VirtualKey] {
        &self.hot_pinned
    }

    /// Opt-in: charge the victim sweeps of one switch as a single
    /// coalesced `pkey_mprotect` over their combined pages instead of
    /// rounding each victim up separately.
    pub fn set_coalesced_sweeps(&mut self, on: bool) {
        self.coalesce_sweeps = on;
    }

    // ------------------------------------------------------------------
    // Syscall filtering
    // ------------------------------------------------------------------

    /// `FilterSyscall`: permits or rejects a system call under the
    /// current environment's filter (§4.2).
    ///
    /// # Errors
    ///
    /// [`Fault::SyscallDenied`] carrying the record and environment.
    pub fn filter_syscall(&mut self, record: SyscallRecord) -> Result<(), Fault> {
        let allowed = match &mut self.hw {
            HwState::Baseline => true,
            HwState::Mpk { filters, front, .. } => {
                self.cpu.clock_mut().charge_seccomp();
                let (_, filter) = filters
                    .get(front)
                    .expect("the front environment's filter is compiled at switch");
                let allowed = filter.check(record.sysno, &record.args, self.cpu.pkru().bits());
                // Every PKRU-indexed BPF evaluation is a verdict, trusted
                // code included (it pays the filter too, Table 1).
                self.record(Event::SeccompVerdict {
                    category: record.sysno.category().keyword(),
                    allowed,
                });
                allowed
            }
            HwState::Vtx { .. } => {
                // Every guest syscall hypercalls to the host (§5.3).
                self.cpu.clock_mut().charge_vm_exit();
                self.envs[&self.current]
                    .policy
                    .allows(record.sysno, &record.args)
            }
            HwState::Proc { sandbox, filters } => {
                if self.current == TRUSTED_ENV {
                    // The supervisor calls the kernel directly: no
                    // child, no proxy, no per-process filter tax.
                    true
                } else {
                    // An enclosed syscall is proxied to the supervisor
                    // over the socketpair. The request message can be
                    // lost (EPIPE) before the supervisor observes it...
                    // Either failure is only *discovered* after a pipe
                    // traversal (the write completes before EPIPE comes
                    // back; a crash surfaces when the reply read fails),
                    // so a faulted attempt still costs one message.
                    if self.cpu.clock_mut().should_inject(InjectionSite::PipeEpipe) {
                        self.cpu.clock_mut().charge_pipe_msg();
                        return Err(self.trace_fault(Fault::Transient { site: "pipe_epipe" }));
                    }
                    // ...or the child can crash mid-request; the
                    // supervisor reaps it and respawns on the next
                    // switch into the enclosure.
                    if self
                        .cpu
                        .clock_mut()
                        .should_inject(InjectionSite::ChildCrash)
                    {
                        self.cpu.clock_mut().charge_pipe_msg();
                        sandbox.mark_crashed(self.current);
                        return Err(self.trace_fault(Fault::Transient {
                            site: "child_crash",
                        }));
                    }
                    self.cpu.clock_mut().charge_ipc_roundtrip(self.current.0);
                    let filter = filters
                        .get(&self.current)
                        .expect("every environment's per-process filter is compiled at build");
                    // The child's own seccomp program backs the proxy
                    // (PKRU is irrelevant: process identity replaces it).
                    filter.check(record.sysno, &record.args, 0)
                }
            }
        };
        // The FilterSyscall *API event* is only meaningful for enclosed
        // callers: trusted code never consults an enclosure policy, even
        // though it pays the backend's filtering tax above. This keeps
        // `filter_syscalls == enclosed_syscall_entries` exact.
        if self.current != TRUSTED_ENV && self.backend != Backend::Baseline {
            self.record(Event::FilterSyscall {
                sysno: record.sysno.nr(),
                allowed,
            });
        }
        if allowed {
            Ok(())
        } else if let FilterMode::ReturnErrno(errno) = self.filter_mode {
            // Return-errno mode: the denial is delivered as a failed
            // syscall (the BPF program's ERRNO verdict), not an abort.
            Err(self.trace_fault(Fault::Errno(errno)))
        } else {
            let fault = Fault::SyscallDenied {
                record,
                env: self.current,
                env_name: self.env_name(self.current).to_owned(),
            };
            Err(self.trace_fault(fault))
        }
    }

    /// The verdict `record` would receive under the current
    /// environment's filter, without charging the crossing. This is the
    /// per-entry check behind the batched gateway: the batch pays one
    /// charged evaluation per (environment, batch), then every entry is
    /// checked against the same compiled program/policy for free.
    #[must_use]
    pub(crate) fn batch_entry_allowed(&self, record: &SyscallRecord) -> bool {
        match &self.hw {
            HwState::Baseline => true,
            HwState::Mpk { filters, front, .. } => {
                let (_, filter) = filters
                    .get(front)
                    .expect("the front environment's filter is compiled at switch");
                filter.check(record.sysno, &record.args, self.cpu.pkru().bits())
            }
            HwState::Vtx { .. } => self.envs[&self.current]
                .policy
                .allows(record.sysno, &record.args),
            HwState::Proc { filters, .. } => filters
                .get(&self.current)
                .expect("every environment's per-process filter is compiled at build")
                .check(record.sysno, &record.args, 0),
        }
    }

    // ------------------------------------------------------------------
    // Checked memory access
    // ------------------------------------------------------------------

    fn check_access(&self, addr: Addr, len: u64, needed: Access) -> Result<(), Fault> {
        match &self.hw {
            HwState::Baseline => Ok(()),
            HwState::Mpk { table, .. } => self
                .cpu
                .check_mpk(table, addr, len, needed)
                .map_err(Fault::Memory),
            HwState::Vtx { vm } => vm.check(addr, len, needed).map_err(Fault::Memory),
            HwState::Proc { sandbox, .. } => {
                sandbox.check(addr, len, needed).map_err(Fault::Memory)
            }
        }
    }

    /// Checked read of `len` bytes at `addr` under the current view.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] on a view violation or unbacked memory.
    pub fn load(&self, addr: Addr, len: u64) -> Result<Vec<u8>, Fault> {
        self.check_access(addr, len, Access::R)?;
        self.space.read_vec(addr, len).map_err(Fault::Memory)
    }

    /// Checked read of a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] on a view violation or unbacked memory.
    pub fn load_u64(&self, addr: Addr) -> Result<u64, Fault> {
        self.check_access(addr, 8, Access::R)?;
        self.space.read_u64(addr).map_err(Fault::Memory)
    }

    /// Checked write at `addr` under the current view.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] on a view violation or unbacked memory.
    pub fn store(&mut self, addr: Addr, data: &[u8]) -> Result<(), Fault> {
        self.check_access(addr, data.len() as u64, Access::W)?;
        self.space.write(addr, data).map_err(Fault::Memory)
    }

    /// Checked write of a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] on a view violation or unbacked memory.
    pub fn store_u64(&mut self, addr: Addr, value: u64) -> Result<(), Fault> {
        self.check_access(addr, 8, Access::W)?;
        self.space.write_u64(addr, value).map_err(Fault::Memory)
    }

    /// Checked fill of `len` bytes.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] on a view violation or unbacked memory.
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), Fault> {
        self.check_access(addr, len, Access::W)?;
        self.space.fill(addr, len, byte).map_err(Fault::Memory)
    }

    /// Checks that the current view allows *invoking* functions of
    /// `package` (the `X` right of `RWX`, §2.2). Language runtimes call
    /// this at every cross-package call.
    ///
    /// # Errors
    ///
    /// [`Fault::ExecDenied`] when the right is missing,
    /// [`Fault::UnknownPackage`] for unknown names.
    pub fn check_invoke(&self, package: &str) -> Result<(), Fault> {
        if !self.packages.contains_key(package) {
            return Err(Fault::UnknownPackage(package.to_owned()));
        }
        if self.backend == Backend::Baseline {
            return Ok(());
        }
        let rights = self.view_rights(package);
        if rights.contains(Access::X) {
            Ok(())
        } else {
            Err(Fault::ExecDenied {
                package: package.to_owned(),
                env_name: self.env_name(self.current).to_owned(),
            })
        }
    }
}

// ----------------------------------------------------------------------
// LB_MPK key-virtualization helpers. Free functions (not methods) so the
// `switch_hw` match can hold `&mut self.hw`'s fields while they borrow
// the machine's other fields disjointly.
// ----------------------------------------------------------------------

/// Rights `meta` has under `view` (members share a signature, so the
/// first member's entry speaks for all).
fn meta_rights_in_view(meta: &MetaPackage, view: &ViewMap) -> Access {
    meta.members
        .first()
        .and_then(|m| view.get(m).copied())
        .unwrap_or(Access::NONE)
}

/// The PKRU value `view` induces under the current bindings: data rights
/// on every *resident* meta's hardware key, access-disable everywhere
/// else. Parked metas need no PKRU bit at all — their pages are
/// non-present.
fn mpk_pkru_for(
    view: &ViewMap,
    clustering: &Clustering,
    vkeys: &VirtualKeyTable,
    vkey_of_meta: &[VirtualKey],
) -> Pkru {
    let mut pkru = Pkru::deny_all();
    for meta in &clustering.metas {
        if let Some(hkey) = vkeys.binding(vkey_of_meta[meta.index]) {
            let rights = meta_rights_in_view(meta, view).intersection(Access::RW);
            pkru.set_key_rights(hkey, rights);
        }
    }
    pkru
}

/// Recomputes every environment's PKRU image under the current
/// bindings. Depends only on views and bindings — not on which
/// environment is in front — so a single recompute per epoch serves
/// every subsequent switch (the PKRU half of the switch fast-path
/// cache).
fn mpk_pkru_map(
    envs: &HashMap<EnvId, EnvInfo>,
    clustering: &Clustering,
    vkeys: &VirtualKeyTable,
    vkey_of_meta: &[VirtualKey],
) -> HashMap<EnvId, Pkru> {
    envs.iter()
        .map(|(env, info)| {
            (
                *env,
                mpk_pkru_for(&info.view, clustering, vkeys, vkey_of_meta),
            )
        })
        .collect()
}

/// Compiles the PKRU-indexed seccomp filter for `front` from
/// precomputed PKRU images. `front`'s rule is compiled first: when
/// parked metas transiently collide two environments onto the same PKRU
/// value, the first matching BPF rule — the running environment's —
/// wins. (Environments whose *full* rights signatures collide are
/// rejected at `Init` unless their policies agree, so the collision can
/// only be transient and the precedence is always sound.)
fn mpk_compile_filter(
    front: EnvId,
    envs: &HashMap<EnvId, EnvInfo>,
    pkru_of_env: &HashMap<EnvId, Pkru>,
    filter_mode: FilterMode,
) -> Result<SeccompFilter, Fault> {
    let mut env_ids: Vec<EnvId> = envs.keys().copied().collect();
    env_ids.sort();
    if let Some(pos) = env_ids.iter().position(|e| *e == front) {
        env_ids.remove(pos);
        env_ids.insert(0, front);
    }
    let mut rules: Vec<SeccompRule> = Vec::new();
    let mut seen: HashSet<u32> = HashSet::new();
    for env in env_ids {
        let info = &envs[&env];
        let pkru = pkru_of_env[&env];
        if seen.insert(pkru.bits()) {
            rules.push(SeccompRule {
                pkru: pkru.bits(),
                policy: info.policy.clone(),
            });
        }
    }
    SeccompFilter::compile_with_mode(&rules, filter_mode)
        .map_err(|e| Fault::Init(format!("seccomp compilation failed: {e}")))
}

/// Parks every section of `meta`: pages become non-present (libmpk's
/// `PROT_NONE` sweep) and unreachable by *every* environment until the
/// meta is bound again. Returns the page count for cost accounting.
fn park_meta(
    table: &mut PageTable,
    packages: &BTreeMap<String, PackageInfo>,
    meta: &MetaPackage,
) -> u64 {
    let mut pages = 0;
    for member in &meta.members {
        let Some(info) = packages.get(member) else {
            continue;
        };
        for section in &info.sections {
            table
                .set_present(section.range(), false)
                .expect("the shared table maps every package section");
            pages += section.range().page_len();
        }
    }
    pages
}

/// Unparks `meta` under its fresh hardware key: pages become present
/// again and are re-tagged `hkey`. Returns the page count swept.
fn unpark_meta(
    table: &mut PageTable,
    packages: &BTreeMap<String, PackageInfo>,
    meta: &MetaPackage,
    hkey: ProtectionKey,
) -> u64 {
    let mut pages = 0;
    for member in &meta.members {
        let Some(info) = packages.get(member) else {
            continue;
        };
        for section in &info.sections {
            table
                .set_present(section.range(), true)
                .expect("the shared table maps every package section");
            table
                .retag_range(section.range(), hkey)
                .expect("the shared table maps every package section");
            pages += section.range().page_len();
        }
    }
    pages
}

/// Binds `meta_index`'s virtual key, evicting the least-recently-used
/// binding outside `pinned` when no hardware key is free. `soft` pins
/// are advisory (telemetry-marked hot metas): the LRU skips them while
/// any other victim exists, but falls back to them rather than failing.
/// The eviction sweep is a `pkey_mprotect` and can be injected to fail;
/// the check fires *before* any mutation, so a failed sweep leaves the
/// victim's binding (and the live PKRU) intact. Before the sweep, any
/// live PKRU grant on the recycled key is revoked — the running
/// environment must never retain rights on a key about to tag someone
/// else's pages.
#[allow(clippy::too_many_arguments)]
fn mpk_bind_with_eviction(
    table: &mut PageTable,
    vkeys: &mut VirtualKeyTable,
    vkey_of_meta: &[VirtualKey],
    metas: &[MetaPackage],
    packages: &BTreeMap<String, PackageInfo>,
    cpu: &mut Cpu,
    pinned: &[VirtualKey],
    soft: &[VirtualKey],
    meta_index: usize,
) -> Result<(), Fault> {
    let v = vkey_of_meta[meta_index];
    if vkeys.is_bound(v) {
        vkeys.touch(v);
        return Ok(());
    }
    if vkeys.free_hkeys() == 0 {
        let victim = pick_victim(vkeys, pinned, soft)?;
        if cpu.clock_mut().should_inject(InjectionSite::PkeyMprotect) {
            return Err(Fault::Transient {
                site: "pkey_mprotect",
            });
        }
        let victim_hkey = vkeys.binding(victim).expect("candidate is bound");
        let live = cpu.pkru();
        if !live.key_rights(victim_hkey).is_none() {
            let mut interim = live;
            interim.set_key_rights(victim_hkey, Access::NONE);
            cpu.write_pkru(interim);
        }
        let victim_meta = vkey_of_meta
            .iter()
            .position(|vk| *vk == victim)
            .expect("every bound virtual key belongs to a meta-package");
        let pages = park_meta(table, packages, &metas[victim_meta]);
        cpu.clock_mut()
            .charge_key_evict_pages(victim.0, victim_hkey, pages);
        vkeys.unbind(victim);
    }
    let hkey = vkeys
        .bind(v)
        .expect("a hardware key is free after the eviction");
    let pages = unpark_meta(table, packages, &metas[meta_index], hkey);
    cpu.clock_mut().charge_key_bind_pages(v.0, hkey, pages);
    Ok(())
}

/// The LRU victim outside `pinned`, preferring to spare the advisory
/// `soft` (hot) pins but falling back to them rather than failing.
fn pick_victim(
    vkeys: &VirtualKeyTable,
    pinned: &[VirtualKey],
    soft: &[VirtualKey],
) -> Result<VirtualKey, Fault> {
    let mut averse: Vec<VirtualKey> = pinned.to_vec();
    for v in soft.iter().copied() {
        if !averse.contains(&v) {
            averse.push(v);
        }
    }
    vkeys
        .evict_candidate(&averse)
        .or_else(|| vkeys.evict_candidate(pinned))
        .ok_or_else(|| {
            Fault::Init("all 15 hardware keys are pinned by the current working set".into())
        })
}

/// Binds each meta in `to_bind` (the target environment's missing
/// working set). With `coalesce` off this is the classic per-meta
/// bind-with-eviction loop; with it on, the victims the whole set needs
/// are chosen up front, parked together, and charged as one coalesced
/// `pkey_mprotect` sweep over their combined pages
/// ([`Clock::charge_key_evict_batch`]) — strictly fewer rounded-up
/// sweep units for multi-victim switches, identical bindings either
/// way. The injection check fires once, before any mutation, so a
/// failed sweep leaves every victim intact.
#[allow(clippy::too_many_arguments)]
fn mpk_bind_many(
    table: &mut PageTable,
    vkeys: &mut VirtualKeyTable,
    vkey_of_meta: &[VirtualKey],
    metas: &[MetaPackage],
    packages: &BTreeMap<String, PackageInfo>,
    cpu: &mut Cpu,
    pinned: &[VirtualKey],
    soft: &[VirtualKey],
    to_bind: &[usize],
    coalesce: bool,
) -> Result<(), Fault> {
    if !coalesce {
        for &meta_index in to_bind {
            mpk_bind_with_eviction(
                table,
                vkeys,
                vkey_of_meta,
                metas,
                packages,
                cpu,
                pinned,
                soft,
                meta_index,
            )?;
        }
        return Ok(());
    }
    let need: Vec<usize> = to_bind
        .iter()
        .copied()
        .filter(|&m| {
            if vkeys.is_bound(vkey_of_meta[m]) {
                vkeys.touch(vkey_of_meta[m]);
                false
            } else {
                true
            }
        })
        .collect();
    let deficit = need.len().saturating_sub(vkeys.free_hkeys());
    let mut victims: Vec<VirtualKey> = Vec::with_capacity(deficit);
    let mut excluded: Vec<VirtualKey> = pinned.to_vec();
    for _ in 0..deficit {
        let victim = pick_victim(vkeys, &excluded, soft)?;
        excluded.push(victim);
        victims.push(victim);
    }
    if !victims.is_empty() {
        if cpu.clock_mut().should_inject(InjectionSite::PkeyMprotect) {
            return Err(Fault::Transient {
                site: "pkey_mprotect",
            });
        }
        let mut live = cpu.pkru();
        let mut revoked = false;
        for &victim in &victims {
            let hkey = vkeys.binding(victim).expect("candidate is bound");
            if !live.key_rights(hkey).is_none() {
                live.set_key_rights(hkey, Access::NONE);
                revoked = true;
            }
        }
        if revoked {
            cpu.write_pkru(live);
        }
        let mut swept: Vec<(u32, u8, u64)> = Vec::with_capacity(victims.len());
        for &victim in &victims {
            let hkey = vkeys.binding(victim).expect("candidate is bound");
            let victim_meta = vkey_of_meta
                .iter()
                .position(|vk| *vk == victim)
                .expect("every bound virtual key belongs to a meta-package");
            let pages = park_meta(table, packages, &metas[victim_meta]);
            swept.push((victim.0, hkey, pages));
            vkeys.unbind(victim);
        }
        cpu.clock_mut().charge_key_evict_batch(&swept);
    }
    for &meta_index in &need {
        let v = vkey_of_meta[meta_index];
        let hkey = vkeys
            .bind(v)
            .expect("a hardware key is free after the sweep");
        let pages = unpark_meta(table, packages, &metas[meta_index], hkey);
        cpu.clock_mut().charge_key_bind_pages(v.0, hkey, pages);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_kernel::{SysCategory, Sysno};

    use enclosure_kernel::CategorySet;

    /// Builds the Figure 1 program: main → img, libfx; secrets and os
    /// foreign to the `rcl` enclosure, which gets `secrets: R` and no
    /// syscalls.
    fn figure1(backend: Backend) -> (LitterBox, Figure1) {
        let mut lb = LitterBox::new(backend);
        let mut prog = ProgramDesc::new();
        let main = prog.add_package(&mut lb, "main", 1, 1, 1).unwrap();
        let img = prog.add_package(&mut lb, "img", 1, 1, 1).unwrap();
        let libfx = prog.add_package(&mut lb, "libfx", 2, 1, 2).unwrap();
        let secrets = prog.add_package(&mut lb, "secrets", 1, 1, 1).unwrap();
        let os = prog.add_package(&mut lb, "os", 1, 1, 1).unwrap();
        let callsite = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "rcl".into(),
            view: [
                ("img".to_string(), Access::RWX),
                ("libfx".to_string(), Access::RWX),
                ("secrets".to_string(), Access::R),
            ]
            .into_iter()
            .collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        lb.init(prog).unwrap();
        (
            lb,
            Figure1 {
                main,
                img,
                libfx,
                secrets,
                os,
                callsite,
            },
        )
    }

    struct Figure1 {
        main: crate::PackageLayout,
        img: crate::PackageLayout,
        libfx: crate::PackageLayout,
        secrets: crate::PackageLayout,
        os: crate::PackageLayout,
        callsite: Addr,
    }

    #[test]
    fn mpk_enforces_figure1_view() {
        let (mut lb, f) = figure1(Backend::Mpk);
        // Trusted: everything accessible.
        lb.store_u64(f.secrets.data_start(), 7).unwrap();
        assert_eq!(lb.load_u64(f.secrets.data_start()).unwrap(), 7);

        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        // Own packages: RW data.
        lb.store_u64(f.libfx.data_start(), 1).unwrap();
        lb.store_u64(f.img.data_start(), 2).unwrap();
        // secrets: read-only.
        assert_eq!(lb.load_u64(f.secrets.data_start()).unwrap(), 7);
        assert!(matches!(
            lb.store_u64(f.secrets.data_start(), 9),
            Err(Fault::Memory(_))
        ));
        // main and os: unmapped.
        assert!(lb.load_u64(f.main.data_start()).is_err());
        assert!(lb.load_u64(f.os.data_start()).is_err());
        lb.epilog(token).unwrap();
        // Back in trusted: full access again.
        lb.store_u64(f.secrets.data_start(), 9).unwrap();
    }

    #[test]
    fn vtx_enforces_figure1_view() {
        let (mut lb, f) = figure1(Backend::Vtx);
        lb.store_u64(f.secrets.data_start(), 7).unwrap();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        assert_eq!(lb.load_u64(f.secrets.data_start()).unwrap(), 7);
        assert!(lb.store_u64(f.secrets.data_start(), 9).is_err());
        assert!(lb.load_u64(f.os.data_start()).is_err());
        lb.epilog(token).unwrap();
        lb.store_u64(f.os.data_start(), 1).unwrap();
    }

    #[test]
    fn baseline_enforces_nothing() {
        let (mut lb, f) = figure1(Backend::Baseline);
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.store_u64(f.secrets.data_start(), 9).unwrap();
        lb.store_u64(f.os.data_start(), 9).unwrap();
        lb.epilog(token).unwrap();
    }

    #[test]
    fn syscalls_denied_inside_none_filter() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let (mut lb, f) = figure1(backend);
            lb.filter_syscall(SyscallRecord::new(Sysno::Getuid))
                .expect("trusted env allows");
            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            let err = lb
                .filter_syscall(SyscallRecord::new(Sysno::Getuid))
                .unwrap_err();
            assert!(
                matches!(err, Fault::SyscallDenied { .. }),
                "{backend}: {err}"
            );
            lb.epilog(token).unwrap();
            lb.filter_syscall(SyscallRecord::new(Sysno::Getuid))
                .unwrap();
        }
    }

    #[test]
    fn unverified_callsite_faults() {
        let (mut lb, _f) = figure1(Backend::Mpk);
        let err = lb.prolog(EnclosureId(1), Addr(0xbad)).unwrap_err();
        assert!(matches!(err, Fault::UnverifiedCallsite { .. }));
    }

    #[test]
    fn baseline_skips_callsite_verification() {
        let (mut lb, _f) = figure1(Backend::Baseline);
        let token = lb.prolog(EnclosureId(1), Addr(0xbad)).unwrap();
        lb.epilog(token).unwrap();
    }

    #[test]
    fn mpk_switch_costs_match_table1() {
        let (mut lb, f) = figure1(Backend::Mpk);
        let start = lb.now_ns();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        // callsite check (1) + 2 × WRPKRU (40) = 41; the closure call
        // itself (45 ns) is charged by the language frontend.
        assert_eq!(lb.now_ns() - start, 41);
        assert_eq!(lb.stats().switch_pairs, 1);
    }

    #[test]
    fn vtx_switch_costs_match_table1() {
        let (mut lb, f) = figure1(Backend::Vtx);
        let start = lb.now_ns();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        // callsite check (1) + 2 guest syscalls (880) = 881.
        assert_eq!(lb.now_ns() - start, 881);
    }

    #[test]
    fn proc_switch_costs_are_ipc_priced() {
        let (mut lb, f) = figure1(Backend::Proc);
        // The first entry forks the child: callsite check (1) +
        // fork_spawn (250_000) + 2 pipe messages (8_400).
        let start = lb.now_ns();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        assert_eq!(lb.now_ns() - start, 258_401);
        // Warm entries are pure IPC: callsite check (1) + one pipe
        // message each way (8_400) = 8_401 — dearer than MPK's 41 and
        // VT-x's 881, as a process crossing should be.
        let start = lb.now_ns();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        assert_eq!(lb.now_ns() - start, 8_401);
        assert_eq!(lb.stats().switch_pairs, 2);
    }

    #[test]
    fn proc_children_spawn_lazily_and_exactly_once() {
        let (mut lb, f) = figure1(Backend::Proc);
        assert_eq!(lb.proc_spawn_ledger().unwrap().len(), 0, "fork is lazy");
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        let first = lb.proc_spawn_ledger().unwrap().to_vec();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].env, EnvId(1));
        assert!(!first[0].respawn);
        // Re-entry reuses the running child: same ledger, same pid.
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        assert_eq!(lb.proc_spawn_ledger().unwrap(), &first[..]);
        assert_eq!(lb.telemetry().counters().proc_spawns, 1);
        assert_eq!(lb.telemetry().counters().proc_respawns, 0);
    }

    #[test]
    fn proc_child_crash_is_respawned_on_the_next_entry() {
        let (mut lb, f) = figure1(Backend::Proc);
        // Give the enclosure a syscall so the proxy path is reachable.
        lb.enclosures.get_mut(&EnclosureId(1)).unwrap().policy = SysPolicy::all();
        lb.rebuild().unwrap();

        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        let old_pid = lb.proc_spawn_ledger().unwrap()[0].pid;
        lb.clock_mut()
            .arm_injection(enclosure_hw::InjectionPlan::once(InjectionSite::ChildCrash));
        let err = lb.sys_getuid().unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        lb.clock_mut().disarm_injection();
        lb.epilog(token).unwrap();

        // The supervisor respawns on the next switch in, with a fresh
        // pid and a ledger mark; the enclosure is serviceable again.
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        assert!(lb.sys_getuid().is_ok());
        lb.epilog(token).unwrap();
        let ledger = lb.proc_spawn_ledger().unwrap();
        assert_eq!(ledger.len(), 2);
        assert!(ledger[1].respawn);
        assert_ne!(ledger[1].pid, old_pid);
        assert_eq!(lb.telemetry().counters().proc_respawns, 1);
    }

    #[test]
    fn hot_signal_ages_by_half_lives() {
        let (mut lb, f) = figure1(Backend::Mpk);
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.clock_mut().advance(400);
        lb.epilog(token).unwrap();
        // Before any decay the signal is the raw ledger (back-compat).
        let fresh = lb.hot_packages_by_self_time(2);
        assert!(!fresh.is_empty(), "the enclosed call accrued self time");
        // One half-life halves everything uniformly — no reorder.
        lb.age_hot_signal();
        assert_eq!(lb.hot_packages_by_self_time(2), fresh);
        // Enough half-lives extinguish the signal: nothing is hot.
        for _ in 0..12 {
            lb.age_hot_signal();
        }
        assert!(lb.hot_packages_by_self_time(2).is_empty());
        // Refreshing against a dead signal releases every pin.
        lb.pin_hot_packages(&["img"]).unwrap();
        assert_eq!(lb.hot_pins().len(), 1);
        assert!(lb.refresh_hot_pins(2).unwrap().is_empty());
        assert!(lb.hot_pins().is_empty());
    }

    #[test]
    fn proc_incremental_init_keeps_running_children() {
        let (mut lb, f) = figure1(Backend::Proc);
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        let before = lb.proc_spawn_ledger().unwrap().to_vec();

        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "late", 1, 1, 1).unwrap();
        lb.init_incremental(prog).unwrap();

        // The rebuild swapped images and filters but did not kill the
        // child: same ledger, and re-entry does not fork again.
        assert_eq!(lb.proc_spawn_ledger().unwrap(), &before[..]);
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        assert_eq!(lb.proc_spawn_ledger().unwrap().len(), 1);
    }

    #[test]
    fn litterbox_super_is_unreachable_from_enclosures_and_trusted() {
        let (mut lb, f) = figure1(Backend::Mpk);
        let super_range = lb.packages.get(LB_SUPER_PKG).unwrap().sections[0].range();
        // Even trusted user code cannot touch super.
        assert!(lb.load(super_range.start(), 8).is_err());
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        assert!(lb.load(super_range.start(), 8).is_err());
        lb.epilog(token).unwrap();
    }

    #[test]
    fn invoke_checks_the_x_right() {
        let (mut lb, f) = figure1(Backend::Mpk);
        lb.check_invoke("libfx").unwrap();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.check_invoke("libfx").unwrap();
        lb.check_invoke("img").unwrap();
        // secrets is R: data readable, functions not callable.
        assert!(matches!(
            lb.check_invoke("secrets"),
            Err(Fault::ExecDenied { .. })
        ));
        assert!(lb.check_invoke("os").is_err());
        lb.epilog(token).unwrap();
    }

    #[test]
    fn nesting_may_only_restrict() {
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_package(&mut lb, "b", 1, 1, 1).unwrap();
        let cs = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "outer".into(),
            view: [("a".to_string(), Access::RWX)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(2),
            name: "inner-ok".into(),
            view: [("a".to_string(), Access::R)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(3),
            name: "inner-escalates".into(),
            view: [("b".to_string(), Access::RWX)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        lb.init(prog).unwrap();

        let outer = lb.prolog(EnclosureId(1), cs).unwrap();
        let inner = lb.prolog(EnclosureId(2), cs).unwrap();
        lb.epilog(inner).unwrap();
        let err = lb.prolog(EnclosureId(3), cs).unwrap_err();
        assert!(matches!(err, Fault::Escalation { .. }), "{err}");
        lb.epilog(outer).unwrap();
    }

    #[test]
    fn syscall_policy_escalation_is_blocked() {
        let mut lb = LitterBox::new(Backend::Vtx);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        let cs = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "quiet".into(),
            view: [("a".to_string(), Access::RWX)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(2),
            name: "chatty".into(),
            view: [("a".to_string(), Access::RWX)].into_iter().collect(),
            policy: SysPolicy::categories(CategorySet::only(SysCategory::Net)),
            marked: vec![],
        });
        lb.init(prog).unwrap();
        let quiet = lb.prolog(EnclosureId(1), cs).unwrap();
        assert!(matches!(
            lb.prolog(EnclosureId(2), cs),
            Err(Fault::Escalation { .. })
        ));
        lb.epilog(quiet).unwrap();
        // From trusted, chatty is fine.
        let chatty = lb.prolog(EnclosureId(2), cs).unwrap();
        lb.epilog(chatty).unwrap();
    }

    #[test]
    fn transfer_moves_arena_and_rights_follow() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let (mut lb, f) = figure1(backend);
            let span = lb.space_mut().alloc(4 * enclosure_vmem::PAGE_SIZE).unwrap();
            lb.transfer(span, None, "libfx").unwrap();
            assert_eq!(lb.package_at(span.start()), Some("libfx"));

            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            lb.store_u64(span.start(), 11).unwrap(); // libfx is RWX in rcl
            lb.epilog(token).unwrap();

            // Move it to `os` (foreign to rcl): now inaccessible inside.
            lb.transfer(span, Some("libfx"), "os").unwrap();
            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            assert!(lb.load_u64(span.start()).is_err(), "{backend}");
            lb.epilog(token).unwrap();
        }
    }

    #[test]
    fn transfer_costs_match_table1() {
        let (mut lb, _f) = figure1(Backend::Mpk);
        let span = lb.space_mut().alloc(4 * enclosure_vmem::PAGE_SIZE).unwrap();
        let t0 = lb.now_ns();
        lb.transfer(span, None, "libfx").unwrap();
        assert_eq!(lb.now_ns() - t0, 1002);

        let (mut lb, _f) = figure1(Backend::Vtx);
        let span = lb.space_mut().alloc(4 * enclosure_vmem::PAGE_SIZE).unwrap();
        let t0 = lb.now_ns();
        lb.transfer(span, None, "libfx").unwrap();
        assert_eq!(lb.now_ns() - t0, 158);
    }

    #[test]
    fn transfer_validates_ownership() {
        let (mut lb, f) = figure1(Backend::Mpk);
        let span = lb.space_mut().alloc(enclosure_vmem::PAGE_SIZE).unwrap();
        assert!(lb.transfer(span, Some("libfx"), "img").is_err());
        // A range already owned by a package needs `from`.
        assert!(lb.transfer(f.main.data(), None, "img").is_err());
        assert!(lb.transfer(span, None, "ghost").is_err());
    }

    #[test]
    fn init_rejects_duplicates_and_overlaps() {
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        let a = prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_package_desc(PackageDesc {
            name: "b".into(),
            sections: vec![Section::new("b.data", SectionKind::Data, a.data()).unwrap()],
            deps: vec![],
        });
        assert!(matches!(lb.init(prog), Err(Fault::Init(_))));

        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        assert!(matches!(lb.init(prog), Err(Fault::Init(_))));
    }

    #[test]
    fn init_rejects_unknown_view_packages_and_reserved_id() {
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "e".into(),
            view: [("ghost".to_string(), Access::R)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        assert!(matches!(lb.init(prog), Err(Fault::Init(_))));

        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(0),
            name: "bad".into(),
            view: ViewMap::new(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        assert!(matches!(lb.init(prog), Err(Fault::Init(_))));
    }

    #[test]
    fn mpk_rejects_ambiguous_pkru_filters() {
        // Two enclosures with identical views but different syscall
        // filters cannot be distinguished by PKRU-indexed seccomp.
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        for (id, cats) in [
            (1, CategorySet::NONE),
            (2, CategorySet::only(SysCategory::Net)),
        ] {
            prog.add_enclosure(EnclosureDesc {
                id: EnclosureId(id),
                name: format!("e{id}"),
                view: [("a".to_string(), Access::RWX)].into_iter().collect(),
                policy: SysPolicy::categories(cats),
                marked: vec![],
            });
        }
        let err = lb.init(prog).unwrap_err();
        assert!(matches!(err, Fault::Init(msg) if msg.contains("PKRU")));
    }

    #[test]
    fn vtx_accepts_ambiguous_views_with_distinct_filters() {
        // VT-x filters in the guest OS per environment, so the MPK
        // limitation does not apply.
        let mut lb = LitterBox::new(Backend::Vtx);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        let cs = prog.verified_callsite();
        for (id, cats) in [
            (1, CategorySet::NONE),
            (2, CategorySet::only(SysCategory::Proc)),
        ] {
            prog.add_enclosure(EnclosureDesc {
                id: EnclosureId(id),
                name: format!("e{id}"),
                view: [("a".to_string(), Access::RWX)].into_iter().collect(),
                policy: SysPolicy::categories(cats),
                marked: vec![],
            });
        }
        lb.init(prog).unwrap();
        let t = lb.prolog(EnclosureId(2), cs).unwrap();
        lb.filter_syscall(SyscallRecord::new(Sysno::Getuid))
            .unwrap();
        lb.epilog(t).unwrap();
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        assert!(lb
            .filter_syscall(SyscallRecord::new(Sysno::Getuid))
            .is_err());
        lb.epilog(t).unwrap();
    }

    #[test]
    fn execute_swaps_contexts_like_a_scheduler() {
        let (mut lb, f) = figure1(Backend::Mpk);
        // Goroutine A enters the enclosure.
        let _token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        assert_eq!(lb.current_env(), EnvId(1));
        // Scheduler preempts A, resumes goroutine B (trusted).
        let ctx_a = lb.execute(EnvContext::trusted(), f.callsite).unwrap();
        assert_eq!(lb.current_env(), TRUSTED_ENV);
        lb.store_u64(f.os.data_start(), 5).unwrap();
        // Resume A: restrictions return.
        lb.execute(ctx_a, f.callsite).unwrap();
        assert_eq!(lb.current_env(), EnvId(1));
        assert!(lb.store_u64(f.os.data_start(), 6).is_err());
    }

    #[test]
    fn epilog_requires_stack_discipline() {
        let (mut lb, f) = figure1(Backend::Mpk);
        let t1 = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        // Forge nothing: just epilog twice.
        lb.epilog(t1).unwrap();
        let t2 = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(t2).unwrap();
        // Stack now empty; a stale token cannot epilog again.
        let t3 = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        let t4_err = {
            lb.epilog(t3).unwrap();
            // Using a fabricated-out-of-order epilog: prolog twice, then
            // epilog with the outer token first.
            let outer = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            let inner = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            let err = lb.epilog(outer);
            lb.epilog(inner).unwrap();
            err
        };
        assert!(matches!(t4_err, Err(Fault::SwitchMismatch { .. })));
    }

    #[test]
    fn clustering_is_exposed_and_small() {
        let (lb, _f) = figure1(Backend::Mpk);
        // 5 user packages + 2 litterbox packages collapse to a handful of
        // meta-packages.
        assert!(lb.clustering().len() <= 6);
        assert!(lb.clustering().len() >= 3);
    }

    #[test]
    fn init_accounts_delayed_initialization() {
        let (lb, _f) = figure1(Backend::Vtx);
        assert!(lb.init_ns() > 0);
        let (lb_baseline, _f) = figure1(Backend::Baseline);
        assert_eq!(lb_baseline.init_ns(), 0);
    }

    #[test]
    fn environment_descriptions_are_complete() {
        let (lb, _f) = figure1(Backend::Mpk);
        let text = lb.describe_environments();
        assert!(text.contains("'trusted'"));
        assert!(text.contains("'rcl'"));
        assert!(text.contains("secrets:R"));
        assert!(text.contains("pkru:"));
        assert!(lb.seccomp_program().is_some());

        let (lb, _f) = figure1(Backend::Vtx);
        let text = lb.describe_environments();
        assert!(text.contains("page table:"));
        assert!(lb.seccomp_program().is_none());
    }

    #[test]
    fn mpk_init_rejects_wrpkru_in_untrusted_text() {
        // ERIM-style screening (§5.3): a package whose text contains the
        // WRPKRU encoding cannot be loaded under LB_MPK.
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        let layout = prog.add_package(&mut lb, "evil", 1, 1, 1).unwrap();
        lb.space_mut()
            .write(layout.text_start() + 100, &crate::scan::WRPKRU)
            .unwrap();
        let err = lb.init(prog).unwrap_err();
        assert!(matches!(err, Fault::Init(msg) if msg.contains("WRPKRU")));

        // The same program loads fine under LB_VTX (no PKRU to protect).
        let mut lb = LitterBox::new(Backend::Vtx);
        let mut prog = ProgramDesc::new();
        let layout = prog.add_package(&mut lb, "evil", 1, 1, 1).unwrap();
        lb.space_mut()
            .write(layout.text_start() + 100, &crate::scan::WRPKRU)
            .unwrap();
        lb.init(prog).unwrap();
    }

    #[test]
    fn injected_wrpkru_fault_in_prolog_leaves_machine_trusted() {
        use enclosure_hw::InjectionPlan;
        let (mut lb, f) = figure1(Backend::Mpk);
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::Wrpkru));
        let err = lb.prolog(EnclosureId(1), f.callsite).unwrap_err();
        assert!(matches!(err, Fault::Transient { site: "wrpkru" }), "{err}");
        assert_eq!(lb.current_env(), TRUSTED_ENV);
        // Full rights retained, and the next prolog succeeds.
        lb.store_u64(f.secrets.data_start(), 3).unwrap();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
    }

    #[test]
    fn injected_epilog_fault_is_recoverable() {
        use enclosure_hw::InjectionPlan;
        for backend in [Backend::Mpk, Backend::Vtx] {
            let site = if backend == Backend::Mpk {
                InjectionSite::Wrpkru
            } else {
                InjectionSite::Cr3Write
            };
            let (mut lb, f) = figure1(backend);
            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            lb.clock_mut().arm_injection(InjectionPlan::once(site));
            let err = lb.epilog(token).unwrap_err();
            assert!(matches!(err, Fault::Transient { .. }), "{backend}: {err}");
            // Still inside the enclosure: the frame was restored.
            assert_eq!(lb.current_env(), EnvId(1), "{backend}");
            lb.recover_to_trusted();
            assert_eq!(lb.current_env(), TRUSTED_ENV, "{backend}");
            // Ledger balanced and the machine fully usable again.
            let c = lb.telemetry().counters();
            assert_eq!(c.prologs, c.epilogs, "{backend}");
            lb.store_u64(f.secrets.data_start(), 5).unwrap();
            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            lb.epilog(token).unwrap();
        }
    }

    #[test]
    fn recover_to_trusted_is_a_noop_when_trusted() {
        let (mut lb, _f) = figure1(Backend::Mpk);
        let t0 = lb.now_ns();
        let events_before = lb.telemetry().counters().epilogs;
        lb.recover_to_trusted();
        assert_eq!(lb.now_ns(), t0);
        assert_eq!(lb.telemetry().counters().epilogs, events_before);
    }

    #[test]
    fn injected_transfer_fault_preserves_ownership() {
        use enclosure_hw::InjectionPlan;
        let (mut lb, _f) = figure1(Backend::Mpk);
        let span = lb.space_mut().alloc(4 * enclosure_vmem::PAGE_SIZE).unwrap();
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::TransferAlloc));
        let err = lb.transfer(span, None, "libfx").unwrap_err();
        assert!(matches!(
            err,
            Fault::Transient {
                site: "transfer_alloc"
            }
        ));
        assert_eq!(lb.package_at(span.start()), None);
        // Retrying after the transient succeeds.
        lb.transfer(span, None, "libfx").unwrap();
        assert_eq!(lb.package_at(span.start()), Some("libfx"));
    }

    #[test]
    fn injected_init_fault_leaves_machine_reusable() {
        use enclosure_hw::InjectionPlan;
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::InitAlloc));
        let err = lb.init(prog.clone()).unwrap_err();
        assert!(matches!(err, Fault::Transient { site: "init_alloc" }));
        // Nothing was ingested: the same description inits cleanly.
        lb.init(prog).unwrap();
    }

    #[test]
    fn package_at_resolves_owners() {
        let (lb, f) = figure1(Backend::Mpk);
        assert_eq!(lb.package_at(f.libfx.text_start()), Some("libfx"));
        assert_eq!(lb.package_at(f.secrets.data_start()), Some("secrets"));
        assert_eq!(lb.package_at(Addr(0x10)), None);
    }
}
