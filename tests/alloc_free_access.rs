//! A checked access allocates nothing: an allowed or denied `u64` load or
//! store, on every backend, and the interpreter's refcount traffic in
//! both metadata layouts. A thread-local counting allocator measures the
//! calling thread only, so tests running in parallel do not interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use enclosure_pyfront::{Interpreter, MetadataMode, PyModuleDef, PyValue};
use enclosure_repro::core::{App, Enclosure, Policy};
use enclosure_vmem::Access;
use litterbox::Backend;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation (and reallocation) made on the current thread.
struct CountingAlloc;

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations it made on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Allocations the second of two identical calls makes (the first may
/// warm lazily-sized state).
fn steady_allocations<R>(mut f: impl FnMut() -> R) -> (u64, R) {
    let _ = f();
    allocations_in(f)
}

#[test]
fn checked_u64_accesses_allocate_nothing_on_every_backend() {
    for backend in Backend::ALL {
        let mut app = App::builder("alloc")
            .package("main", &["lib", "foreign"])
            .package("lib", &[])
            .package("foreign", &[])
            .build(backend)
            .unwrap();
        let foreign = app.info.data_start("foreign");
        let own = app.info.data_start("lib");
        let (n, r) = steady_allocations(|| app.lb.store_u64(foreign, 7));
        assert!(r.is_ok());
        assert_eq!(n, 0, "{backend}: trusted store");
        let (n, r) = steady_allocations(|| app.lb.load_u64(foreign));
        assert_eq!(r.ok(), Some(7));
        assert_eq!(n, 0, "{backend}: trusted load");

        // Inside an enclosure that may read `foreign` but not write it.
        let policy = Policy::default_policy().grant("foreign", Access::R);
        let mut probe = Enclosure::declare(&mut app, "probe", &["lib"], policy, move |ctx, ()| {
            let load = steady_allocations(|| ctx.lb.load_u64(foreign));
            let store = steady_allocations(|| ctx.lb.store_u64(own, 1));
            let denied = steady_allocations(|| ctx.lb.store_u64(foreign, 1));
            Ok([
                (load.0, load.1.is_ok()),
                (store.0, store.1.is_ok()),
                (denied.0, denied.1.is_ok()),
            ])
        })
        .unwrap();
        let [load, store, denied] = probe.call(&mut app, ()).unwrap();
        assert_eq!(load, (0, true), "{backend}: allowed load");
        assert_eq!(store, (0, true), "{backend}: allowed store");
        // The baseline enforces nothing: there the store is allowed.
        let enforcing = backend != Backend::Baseline;
        assert_eq!(denied, (0, !enforcing), "{backend}: denied store");
    }
}

#[test]
fn refcounting_allocates_nothing_in_either_metadata_mode() {
    for backend in Backend::ALL {
        for mode in [MetadataMode::CoLocated, MetadataMode::Decoupled] {
            let mut py = Interpreter::new(backend, mode);
            py.register_module(PyModuleDef::new("secret"));
            py.register_module(PyModuleDef::new("plotlib"));
            let obj = py.alloc_in("secret", &[1; 64]).unwrap();

            let (n, r) = steady_allocations(|| py.incref(obj).and_then(|()| py.decref(obj)));
            assert!(r.is_ok());
            assert_eq!(n, 0, "{backend} {mode:?}: trusted incref/decref");

            // Enclosed, the secret is read-only: a zero-length read is
            // exactly an incref, a checked load and a decref, and in the
            // co-located layout each refcount write faults and takes the
            // trusted round trip.
            py.register_fn("plotlib.render", move |ctx, _| {
                let (n, r) = steady_allocations(|| ctx.read(obj, 0, 0).map(drop));
                r?;
                Ok(PyValue::Int(i64::try_from(n).expect("small")))
            });
            py.declare_enclosure("plot", "plotlib.render", &[], "secret: R, none")
                .unwrap();
            let before = py.stats().metadata_switches;
            let out = py.call_enclosed("plot", PyValue::None).unwrap();
            assert_eq!(
                out,
                PyValue::Int(0),
                "{backend} {mode:?}: enclosed refcounting"
            );
            let switched = py.stats().metadata_switches > before;
            let expect_switches = mode == MetadataMode::CoLocated && backend != Backend::Baseline;
            assert_eq!(switched, expect_switches, "{backend} {mode:?}");
        }
    }
}
