//! Serving leaves no client sockets behind. After every
//! `serve_requests` call the load generator has read and closed each of
//! its clients, so the kernel holds only what the server keeps open
//! itself: one listener per call (each call binds a fresh port), plus
//! the wiki's upstream Postgres connection.

use enclosure_apps::fasthttp::{FastHttpApp, FastHttpConfig};
use enclosure_apps::wiki::WikiApp;
use enclosure_kernel::Kernel;
use litterbox::Backend;

const BACKENDS: [Backend; 4] = [Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc];

fn assert_holds(kernel: &Kernel, expected: usize, what: &str) {
    assert_eq!(kernel.open_fds(), expected, "{what}: open fds");
    assert_eq!(kernel.net.socket_count(), expected, "{what}: live sockets");
}

#[test]
fn fasthttp_leaves_only_its_listeners() {
    let reactor = FastHttpConfig {
        async_io: true,
        workers: 4,
        ..FastHttpConfig::default()
    };
    for backend in BACKENDS {
        for cfg in [FastHttpConfig::default(), reactor] {
            let mut app = FastHttpApp::new(backend).unwrap();
            for call in 1..=3 {
                let stats = app.serve_requests(12, cfg).unwrap();
                assert_eq!(stats.served, 12, "{backend} workers={}", cfg.workers);
                assert_holds(
                    app.runtime().lb().kernel(),
                    call,
                    &format!("{backend} workers={} after call {call}", cfg.workers),
                );
            }
        }
    }
}

#[test]
fn wiki_leaves_only_its_listeners_and_upstream() {
    for backend in BACKENDS {
        for async_io in [false, true] {
            let mut app = WikiApp::new(backend).unwrap();
            app.set_async_io(async_io);
            for call in 1..=3 {
                let stats = app.serve_requests(12).unwrap();
                assert_eq!(stats.served, 12, "{backend} async={async_io}");
                assert_holds(
                    app.runtime().lb().kernel(),
                    2 * call,
                    &format!("{backend} async={async_io} after call {call}"),
                );
            }
        }
    }
}
