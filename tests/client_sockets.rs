//! Serving leaves no client sockets behind. After every
//! `serve_requests` call the load generator has read and closed each of
//! its clients, so the kernel holds only what the server keeps open
//! itself: one listener per call (each call binds a fresh port), plus
//! the wiki's upstream Postgres connection.

use enclosure_apps::fasthttp::{FastHttpApp, FastHttpConfig};
use enclosure_apps::wiki::WikiApp;
use enclosure_kernel::Kernel;
use litterbox::{Backend, IoMode};

fn assert_holds(kernel: &Kernel, expected: usize, what: &str) {
    assert_eq!(kernel.open_fds(), expected, "{what}: open fds");
    assert_eq!(kernel.net.socket_count(), expected, "{what}: live sockets");
}

#[test]
fn fasthttp_leaves_only_its_listeners() {
    for backend in Backend::ALL {
        for workers in [1, 4] {
            let mut app = FastHttpApp::new(backend).unwrap();
            let cfg = FastHttpConfig {
                workers,
                ..FastHttpConfig::default()
            };
            for call in 1..=3 {
                // The single server issues immediately; the workers run
                // on the reactor, its policy re-sized every call as the
                // fleet does.
                if workers > 1 {
                    app.set_io_mode(IoMode::Adaptive);
                }
                let stats = app.serve_requests(12, cfg).unwrap();
                assert_eq!(stats.served, 12, "{backend} workers={workers}");
                assert_holds(
                    app.runtime().lb().kernel(),
                    call,
                    &format!("{backend} workers={workers} after call {call}"),
                );
            }
        }
    }
}

#[test]
fn wiki_leaves_only_its_listeners_and_upstream() {
    for backend in Backend::ALL {
        for adaptive in [false, true] {
            let mut app = WikiApp::new(backend).unwrap();
            if adaptive {
                app.set_io_mode(IoMode::Adaptive);
            }
            for call in 1..=3 {
                let stats = app.serve_requests(12).unwrap();
                assert_eq!(stats.served, 12, "{backend} adaptive={adaptive}");
                assert_holds(
                    app.runtime().lb().kernel(),
                    2 * call,
                    &format!("{backend} adaptive={adaptive} after call {call}"),
                );
            }
        }
    }
}
