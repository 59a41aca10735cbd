//! Property-based integration tests over the enforcement invariants:
//! whatever rights a view declares, the machine enforces — no more, no
//! less — on every enforcing backend (LB_MPK, LB_VTX and LB_PROC).

use enclosure_repro::core::{App, Enclosure, Policy};
use enclosure_support::XorShift;
use enclosure_vmem::Access;
use litterbox::Backend;

/// Arbitrary access rights (the four the grammar allows).
fn arb_rights(rng: &mut XorShift) -> Access {
    *rng.choose(&[Access::NONE, Access::R, Access::RW, Access::RWX])
}

enclosure_support::props! {
    /// For any granted rights on a foreign package, reads succeed iff R
    /// was granted and writes iff W was granted — on every enforcing
    /// backend.
    fn view_rights_are_enforced_exactly(rng, cases = 48) {
        let rights = arb_rights(rng);
        for backend in Backend::enforcing() {
            let mut app = App::builder("prop")
                .package("main", &["lib", "foreign"])
                .package("lib", &[])
                .package("foreign", &[])
                .build(backend)
                .unwrap();
            let target = app.info.data_start("foreign");
            app.lb.store_u64(target, 42).unwrap();

            let policy = if rights.is_none() {
                Policy::default_policy()
            } else {
                Policy::default_policy().grant("foreign", rights)
            };
            let mut probe = Enclosure::declare(
                &mut app,
                "probe",
                &["lib"],
                policy,
                move |ctx, ()| {
                    Ok((ctx.lb.load_u64(target).is_ok(), ctx.lb.store_u64(target, 1).is_ok()))
                },
            )
            .unwrap();
            let (read_ok, write_ok) = probe.call(&mut app, ()).unwrap();
            assert_eq!(read_ok, rights.contains(Access::R), "{backend}: read under {rights}");
            assert_eq!(write_ok, rights.contains(Access::W), "{backend}: write under {rights}");
        }
    }

    /// The default policy always denies every syscall; `all` always
    /// permits getuid; and trusted code is never restricted.
    fn syscall_filters_are_total(rng, cases = 48) {
        let allow = rng.next_bool();
        for backend in Backend::enforcing() {
            let mut app = App::builder("prop")
                .package("main", &["lib"])
                .package("lib", &[])
                .build(backend)
                .unwrap();
            let literal = if allow { "all" } else { "none" };
            let mut probe = Enclosure::declare(
                &mut app,
                "probe",
                &["lib"],
                Policy::parse(literal).unwrap(),
                move |ctx, ()| Ok(ctx.lb.sys_getuid().is_ok()),
            )
            .unwrap();
            assert_eq!(probe.call(&mut app, ()).unwrap(), allow, "{backend}");
            assert!(app.lb.sys_getuid().is_ok(), "{backend}: trusted unrestricted");
        }
    }

    /// Nesting is monotone for arbitrary inner/outer rights on a shared
    /// package: the inner switch succeeds iff it does not widen access.
    fn nesting_monotonicity(rng, cases = 48) {
        let outer = arb_rights(rng);
        let inner = arb_rights(rng);
        for backend in Backend::enforcing() {
            // MPK cannot host two enclosures whose *entire* state collides;
            // give each enclosure a distinct anchor package so views differ.
            let mut app = App::builder("prop")
                .package("main", &["lib", "anchor_a", "anchor_b", "shared"])
                .package("lib", &[])
                .package("anchor_a", &[])
                .package("anchor_b", &[])
                .package("shared", &[])
                .build(backend)
                .unwrap();
            let inner_policy = if inner.is_none() {
                Policy::default_policy()
            } else {
                Policy::default_policy().grant("shared", inner)
            };
            let mut inner_enc = Enclosure::declare(
                &mut app,
                "inner",
                &["anchor_b"],
                inner_policy,
                |_ctx, ()| Ok(()),
            )
            .unwrap();
            let outer_policy = if outer.is_none() {
                Policy::default_policy()
                    .grant("anchor_b", Access::RWX)
            } else {
                Policy::default_policy()
                    .grant("anchor_b", Access::RWX)
                    .grant("shared", outer)
            };
            let mut outer_enc = Enclosure::declare(
                &mut app,
                "outer",
                &["anchor_a"],
                outer_policy,
                move |ctx, ()| Ok(inner_enc.call_nested(ctx, ()).is_ok()),
            )
            .unwrap();
            let entered = outer_enc.call(&mut app, ()).unwrap();
            assert_eq!(
                entered,
                inner.is_subset_of(outer),
                "{backend}: inner {inner} within outer {outer}"
            );
        }
    }
}
