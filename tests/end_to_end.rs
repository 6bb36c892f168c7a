//! End-to-end integration: runtime + parcels + coalescing + fabric,
//! asserting the paper's headline effect — coalescing speeds up
//! fine-grained communication by reducing per-message overhead.

use std::time::Duration;

use rpx::{CoalescingParams, LinkModel, Runtime, RuntimeConfig, TransportKind};
use rpx_apps::toy::{run_toy, ToyConfig};

fn cluster_runtime() -> std::sync::Arc<Runtime> {
    Runtime::new(RuntimeConfig {
        localities: 2,
        workers_per_locality: 2,
        transport: TransportKind::Sim(LinkModel {
            send_overhead: Duration::from_micros(20),
            recv_overhead: Duration::from_micros(15),
            per_byte: Duration::from_nanos(1),
            latency: Duration::from_micros(10),
            ..LinkModel::cluster()
        }),
        ..RuntimeConfig::default()
    })
}

fn toy(numparcels: usize, nparcels: usize) -> ToyConfig {
    ToyConfig {
        numparcels,
        phases: 1,
        bidirectional: false,
        coalescing: Some(CoalescingParams::new(nparcels, Duration::from_micros(4000))),
        nparcels_schedule: None,
    }
}

#[test]
fn all_parcels_delivered_and_counted() {
    let rt = cluster_runtime();
    let report = run_toy(&rt, &toy(500, 16)).unwrap();
    assert_eq!(report.parcels_counted, 500);
    // Conservation: parcels-per-message × messages ≈ parcels.
    let recon = report.avg_parcels_per_message * report.messages_counted as f64;
    assert!(
        (recon - 500.0).abs() < 1.0,
        "ppm × messages = {recon}, expected 500"
    );
    rt.shutdown();
}

#[test]
fn coalescing_reduces_message_count_by_design_factor() {
    let rt = cluster_runtime();
    let report = run_toy(&rt, &toy(600, 32)).unwrap();
    // With dense submission and a long wait, nearly every message should
    // carry close to 32 parcels.
    assert!(
        report.avg_parcels_per_message > 8.0,
        "ppm only {:.1}",
        report.avg_parcels_per_message
    );
    assert!(report.messages_counted <= 600 / 8);
    rt.shutdown();
}

#[test]
fn coalescing_speeds_up_fine_grained_traffic() {
    // The paper's headline: identical workload, different coalescing ⇒
    // different runtime, because per-message overhead is amortised.
    let rt1 = cluster_runtime();
    let disabled = run_toy(&rt1, &toy(600, 1)).unwrap();
    rt1.shutdown();

    let rt2 = cluster_runtime();
    let coalesced = run_toy(&rt2, &toy(600, 64)).unwrap();
    rt2.shutdown();

    let speedup = disabled.mean_phase_secs() / coalesced.mean_phase_secs();
    assert!(
        speedup > 1.5,
        "expected coalescing speedup, got {speedup:.2}× \
         (disabled {:.4}s vs coalesced {:.4}s)",
        disabled.mean_phase_secs(),
        coalesced.mean_phase_secs()
    );
}

#[test]
fn network_overhead_metric_tracks_coalescing() {
    // Eq. 4 must be lower with coalescing than without — that is the
    // mechanism behind the paper's correlation plots.
    let rt1 = cluster_runtime();
    let disabled = run_toy(&rt1, &toy(600, 1)).unwrap();
    rt1.shutdown();

    let rt2 = cluster_runtime();
    let coalesced = run_toy(&rt2, &toy(600, 64)).unwrap();
    rt2.shutdown();

    assert!(
        disabled.mean_overhead() > coalesced.mean_overhead(),
        "overhead disabled {:.3} vs coalesced {:.3}",
        disabled.mean_overhead(),
        coalesced.mean_overhead()
    );
    for r in [&disabled, &coalesced] {
        for p in &r.phases {
            assert!((0.0..=1.0).contains(&p.network_overhead));
        }
    }
}

#[test]
fn results_identical_with_and_without_coalescing() {
    // Coalescing is a transport optimisation: application-visible results
    // must be unchanged.
    let rt = cluster_runtime();
    let act = rt.action("e2e::add").register(|(a, b): (i64, i64)| a + b);
    let control = rt
        .enable_coalescing(
            "e2e::add",
            CoalescingParams::new(16, Duration::from_micros(2000)),
        )
        .unwrap();
    let coalesced_sums = rt.run_on(0, {
        let act = act.clone();
        move |ctx| {
            let futures: Vec<_> = (0..200)
                .map(|i| ctx.async_action(&act, 1, (i, i)))
                .collect();
            ctx.wait_all(futures).unwrap()
        }
    });
    rt.disable_coalescing(&control);
    let direct_sums = rt.run_on(0, move |ctx| {
        let futures: Vec<_> = (0..200)
            .map(|i| ctx.async_action(&act, 1, (i, i)))
            .collect();
        ctx.wait_all(futures).unwrap()
    });
    assert_eq!(coalesced_sums, direct_sums);
    assert_eq!(
        coalesced_sums,
        (0..200).map(|i| 2 * i).collect::<Vec<i64>>()
    );
    rt.shutdown();
}

#[test]
fn four_locality_mixed_traffic() {
    // Multiple actions, only one coalesced, all-to-all traffic from four
    // concurrent drivers: everything must be delivered exactly once.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let rt = Runtime::new(RuntimeConfig {
        localities: 4,
        ..RuntimeConfig::small_test()
    });
    let coalesced_hits = Arc::new(AtomicU64::new(0));
    let direct_hits = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&coalesced_hits);
    let coalesced_act = rt.action("mix::coalesced").register(move |v: u64| {
        c.fetch_add(v, Ordering::SeqCst);
    });
    let d = Arc::clone(&direct_hits);
    let direct_act = rt.action("mix::direct").register(move |v: u64| {
        d.fetch_add(v, Ordering::SeqCst);
    });
    let _control = rt
        .enable_coalescing(
            "mix::coalesced",
            CoalescingParams::new(8, Duration::from_micros(1000)),
        )
        .unwrap();

    let mut drivers = Vec::new();
    for loc in 0..4u32 {
        let rt2 = Arc::clone(&rt);
        let ca = coalesced_act.clone();
        let da = direct_act.clone();
        drivers.push(std::thread::spawn(move || {
            rt2.run_on(loc, move |ctx| {
                for peer in ctx.find_remote_localities() {
                    for _ in 0..50 {
                        ctx.apply(&ca, peer, 1);
                        ctx.apply(&da, peer, 1);
                    }
                }
            })
        }));
    }
    for t in drivers {
        t.join().unwrap();
    }
    // Flush queued stragglers and drain.
    rt.shutdown();
    // 4 localities × 3 peers × 50 parcels each.
    assert_eq!(coalesced_hits.load(Ordering::SeqCst), 600);
    assert_eq!(direct_hits.load(Ordering::SeqCst), 600);
}

#[test]
fn wait_quiescent_counts_parcels_held_by_a_coalescer() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    // nparcels far above the traffic and a 20 ms flush interval: all ten
    // parcels sit in the coalescing queue until its flush timer fires, so
    // quiescence must wait for that flush and the deliveries behind it.
    let rt = Runtime::new(RuntimeConfig::small_test());
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let act = rt.action("quiesce::held").register(move |_v: u64| {
        h.fetch_add(1, Ordering::SeqCst);
    });
    let _control = rt
        .enable_coalescing(
            "quiesce::held",
            CoalescingParams::new(1000, Duration::from_millis(20)),
        )
        .unwrap();
    rt.run_on(0, move |ctx| {
        for v in 0..10u64 {
            ctx.apply(&act, 1, v);
        }
    });
    assert!(rt.wait_quiescent(Duration::from_secs(10)), "never settled");
    assert_eq!(
        hits.load(Ordering::SeqCst),
        10,
        "wait_quiescent returned while parcels were still held"
    );
    rt.shutdown();
}
