//! Fleet-level serving properties (ISSUE: fleet subsystem).
//!
//! The fleet's claims, proved end-to-end on real wiki machines:
//!
//! * **histogram algebra** — the merged fleet histogram is exactly the
//!   fold of per-shard histograms, and each shard's histogram is
//!   byte-identical to a single machine replaying the same dispatch
//!   trace (sharding changes *where* requests run, never what they
//!   cost);
//! * **determinism** — two chaos runs with the same seed produce
//!   byte-identical reports;
//! * **containment** — killing one shard mid-run loses zero accepted
//!   requests, leaves every bystander shard's telemetry and latency
//!   byte-identical to the fault-free run, and the victim respawns and
//!   re-serves before the run ends.

use enclosure_apps::wiki::WikiApp;
use enclosure_fleet::{
    check_invariants, FastHttpFleet, FleetConfig, FleetReport, WikiFleet, Workload,
};
use enclosure_telemetry::Histogram;

fn run(cfg: &FleetConfig) -> FleetReport {
    let report = WikiFleet::new(cfg.clone()).unwrap().run().unwrap();
    let violations = check_invariants(cfg, &report);
    assert!(violations.is_empty(), "{violations:?}");
    report
}

enclosure_support::props! {
    /// Merged per-shard histograms == a single machine's histogram for
    /// the same request stream: replaying any shard's dispatch trace
    /// on a fresh single machine reproduces its latency histogram
    /// byte-for-byte, and the report's merged histogram is exactly the
    /// fold of the replays.
    fn shard_merged_histograms_match_single_machine_replays(rng, cases = 3) {
        let shards = rng.range_usize(2, 5);
        let requests = rng.range_u64(200, 700);
        let cfg = FleetConfig::new(shards, requests, rng.next_u64());
        let report = run(&cfg);
        let mut merged = Histogram::new();
        for row in &report.rows {
            // Replayed through the shard's own workload, so the flush
            // policy is re-sized before every batch exactly as it was.
            let mut machine = WikiApp::build(row.backend).unwrap();
            for &n in &row.batch_sizes {
                machine.serve(n).unwrap();
            }
            assert_eq!(
                machine.latency(),
                row.latency,
                "shard {}: replaying {} batches diverged",
                row.id,
                row.batch_sizes.len()
            );
            merged.merge(&machine.latency());
        }
        assert_eq!(merged, report.merged_latency, "fleet tail is the fold");
    }
}

/// Two `--chaos` runs with the same seed — mixed backends, targeted
/// kill, random fleet and machine faults all armed — are
/// byte-identical: same JSON report, same merged telemetry.
#[test]
fn chaos_runs_are_byte_identical_per_seed() {
    let cfg = FleetConfig::new(4, 1_500, 0xF1EE7)
        .mixed_backends()
        .with_chaos();
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    assert_eq!(a.merged_telemetry.counters(), b.merged_telemetry.counters());
    assert_eq!(
        a.merged_telemetry.track_costs(),
        b.merged_telemetry.track_costs()
    );
    assert!(a.crashes > 0, "the targeted kill fired");
    assert_eq!(a.responses(), a.admitted, "zero loss under chaos");
}

/// The `--app=fasthttp` fleet arm: the balancer is generic over its
/// workload, so FastHTTP shards serve the same heavy-tailed session
/// stream through the completion-driven gateway. The dispatch trace is
/// pinned row-by-row so the arm cannot drift silently — any change to
/// admission, routing, or the FastHTTP serve path that moves a single
/// request shows up here.
#[test]
fn fasthttp_fleet_serves_a_pinned_dispatch_trace() {
    let cfg = FleetConfig::new(3, 600, 11);
    let report = FastHttpFleet::new(cfg.clone()).unwrap().run().unwrap();
    let violations = check_invariants(&cfg, &report);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(report.admitted, 600);
    assert_eq!(report.responses(), 600);
    assert_eq!(report.client_ok, 600, "clean arm: every request 200 OK");

    let rows: Vec<(usize, Vec<u64>)> = report
        .rows
        .iter()
        .map(|r| (r.id, r.batch_sizes.clone()))
        .collect();
    let pinned: Vec<(usize, Vec<u64>)> = vec![
        (
            0,
            vec![
                8, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 7,
            ],
        ),
        (
            1,
            vec![
                16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 1,
            ],
        ),
        (2, vec![1, 16, 16, 16, 16, 8]),
    ];
    assert_eq!(rows, pinned, "dispatch trace drifted");
    for row in &report.rows {
        assert_eq!(
            row.latency.count(),
            row.batch_sizes.iter().sum::<u64>(),
            "shard {}: every dispatched request left a latency sample",
            row.id
        );
        assert_eq!(row.state, "healthy");
    }

    // Two identically-seeded runs are byte-identical, same as the wiki
    // arm.
    let again = FastHttpFleet::new(cfg).unwrap().run().unwrap();
    assert_eq!(report.to_json().to_pretty(), again.to_json().to_pretty());
}

/// The `--app=fasthttp --chaos` arm: the reactor workers absorb
/// injected transient errnos (retry in place, else degrade the one
/// request) instead of failing the run, and two same-seed runs stay
/// byte-identical.
#[test]
fn fasthttp_chaos_fleet_completes_deterministically() {
    let cfg = FleetConfig::new(4, 2_000, 0xC4A05).with_chaos();
    let run = || {
        let report = FastHttpFleet::new(cfg.clone()).unwrap().run().unwrap();
        let violations = check_invariants(&cfg, &report);
        assert!(violations.is_empty(), "{violations:?}");
        report
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    assert!(a.crashes > 0, "the targeted kill fired");
    assert_eq!(a.responses(), a.admitted, "zero loss under chaos");
}

/// The containment proof: a surgical mid-run kill of one shard (no
/// other faults armed) loses zero accepted requests, perturbs only the
/// victim and the ring-next shard that absorbed its traffic, and the
/// victim's next generation is adopted back and re-serves before the
/// run ends.
#[test]
fn killing_one_shard_is_contained() {
    let shards = 4;
    let mut surgical = FleetConfig::new(shards, 1_600, 11);
    surgical.chaos = true;
    surgical.targeted_crash = true;
    surgical.fleet_rate_ppm = 0; // only the scheduled kill fires
    surgical.backend_rate_ppm = 0; // no machine-level faults
    let fault = run(&surgical);

    let clean = run(&FleetConfig::new(shards, 1_600, 11));

    // Zero accepted requests lost, in both arms every one served OK.
    assert_eq!(fault.responses(), fault.admitted);
    assert_eq!(fault.client_ok, clean.client_ok);
    assert_eq!(fault.client_degraded + fault.lb_degraded, 0);

    // The victim crashed once, respawned, was adopted back into the
    // routable set, and re-served before the run ended.
    let victim = fault.victim.expect("targeted kill armed");
    let v = &fault.rows[victim];
    assert_eq!((v.crashes, v.respawns, v.generation), (1, 1, 2));
    assert!(v.served_after_respawn > 0, "victim re-served: {v:?}");
    assert_eq!(v.state, "healthy");

    // Bystanders — every shard except the victim and the ring-next
    // peer that absorbed its failovers — are byte-identical to the
    // fault-free run: same dispatch trace, same latency histogram,
    // same telemetry counters and per-track costs.
    let absorber = (victim + 1) % shards;
    let mut bystanders = 0;
    for (f, c) in fault.rows.iter().zip(&clean.rows) {
        if f.id == victim || f.id == absorber {
            continue;
        }
        bystanders += 1;
        assert_eq!(f.batch_sizes, c.batch_sizes, "bystander {}", f.id);
        assert_eq!(f.latency, c.latency, "bystander {}", f.id);
        assert_eq!(
            f.telemetry.counters(),
            c.telemetry.counters(),
            "bystander {}",
            f.id
        );
        assert_eq!(
            f.telemetry.track_costs(),
            c.telemetry.track_costs(),
            "bystander {}",
            f.id
        );
    }
    assert_eq!(bystanders, shards - 2);
}
