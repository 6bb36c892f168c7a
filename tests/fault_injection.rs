//! Failure injection: the runtime must degrade gracefully when the wire
//! loses or corrupts messages — drops are counted, decoding never panics,
//! and waiters time out instead of hanging.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpx::{CoalescingParams, CounterValue, Runtime, RuntimeConfig};
use rpx_net::{FaultPlan, ReliabilityConfig};

// The root package needs rpx-net for the fault plan; it comes through the
// workspace dependency graph.

#[test]
fn corrupted_messages_are_dropped_and_counted() {
    let rt = Runtime::new(RuntimeConfig::small_test());
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let act = rt.action("fault::bump").register(move |(): ()| {
        h.fetch_add(1, Ordering::SeqCst);
    });
    // Corrupt every 5th outbound message from locality 0.
    let plan = Arc::new(FaultPlan::corrupt_every(5));
    rt.inject_faults(0, Some(Arc::clone(&plan)));
    rt.run_on(0, move |ctx| {
        for _ in 0..50 {
            ctx.apply(&act, 1, ());
        }
    });
    rt.wait_quiescent(Duration::from_secs(10));
    let delivered = hits.load(Ordering::SeqCst);
    assert_eq!(plan.corrupted(), 10);
    // Corrupted single-parcel messages fail decoding or dispatch; either
    // way they must be dropped, not executed and not fatal.
    // (A flipped byte can land in the args of a unit-argument action and
    // still decode; most corruptions hit framing and are dropped.)
    assert!(delivered >= 40, "delivered {delivered}");
    assert!(delivered <= 50);
    rt.shutdown();
}

#[test]
fn corrupted_coalesced_batches_fail_cleanly() {
    let rt = Runtime::new(RuntimeConfig::small_test());
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let act = rt.action("fault::batch").register(move |_v: u64| {
        h.fetch_add(1, Ordering::SeqCst);
    });
    let _control = rt
        .enable_coalescing(
            "fault::batch",
            CoalescingParams::new(10, Duration::from_micros(500)),
        )
        .unwrap();
    let plan = Arc::new(FaultPlan::corrupt_every(2));
    rt.inject_faults(0, Some(Arc::clone(&plan)));
    rt.run_on(0, move |ctx| {
        for _ in 0..100 {
            ctx.apply(&act, 1, 1u64);
        }
    });
    assert!(rt.wait_quiescent(Duration::from_secs(10)), "never settled");
    // Every second message from locality 0 was corrupted. The frame
    // checksum catches each one, so a corrupted batch is dropped whole and
    // counted once; every other message arrives and each of its parcels
    // runs exactly once. Batch sizes depend on flush timing, so the
    // contract is read from counters rather than from a delivery range.
    let sent = net_counter(&rt, 0, "messages-sent");
    let received = net_counter(&rt, 1, "messages-received");
    let failures = net_counter(&rt, 1, "decode-failures");
    assert!(plan.corrupted() > 0, "the plan never corrupted a frame");
    assert_eq!(received + failures, sent, "a message went unaccounted");
    assert_eq!(failures, plan.corrupted() as i64);
    assert_eq!(
        hits.load(Ordering::SeqCst) as i64,
        parcel_counter(&rt, 1, "received"),
        "handler runs differ from parcels received"
    );
    assert_eq!(parcel_counter(&rt, 0, "sent"), 100);
    rt.shutdown();
}

fn parcel_counter(rt: &Runtime, locality: u32, name: &str) -> i64 {
    match rt.query(locality, &format!("/parcels/count/{name}")) {
        Ok(CounterValue::Int(v)) => v,
        other => panic!("/parcels/count/{name} on locality {locality}: {other:?}"),
    }
}

fn net_counter(rt: &Runtime, locality: u32, name: &str) -> i64 {
    match rt.query(locality, &format!("/network/{name}")) {
        Ok(CounterValue::Int(v)) => v,
        other => panic!("/network/{name} on locality {locality}: {other:?}"),
    }
}

#[test]
fn chaos_with_reliability_delivers_exactly_once() {
    let mut config = RuntimeConfig::small_test();
    config.reliability = Some(ReliabilityConfig {
        rto_initial: Duration::from_millis(1),
        ..Default::default()
    });
    let rt = Runtime::new(config);
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let act = rt.action("fault::chaotic").register(move |(): ()| {
        h.fetch_add(1, Ordering::SeqCst);
    });
    // 5 % drop + 2 % corrupt + duplicates + reordering on the sender's
    // wire: with the reliability sublayer enabled every action must still
    // run exactly once.
    let plan = Arc::new(FaultPlan::chaos());
    rt.inject_faults(0, Some(Arc::clone(&plan)));
    rt.run_on(0, move |ctx| {
        for _ in 0..300 {
            ctx.apply(&act, 1, ());
        }
    });
    assert!(rt.wait_quiescent(Duration::from_secs(30)), "never settled");
    assert_eq!(hits.load(Ordering::SeqCst), 300, "lost or duplicated work");
    assert!(plan.dropped() > 0, "the plan never dropped a frame");
    assert!(
        net_counter(&rt, 0, "retransmits") > 0,
        "drops were never repaired"
    );
    assert!(
        net_counter(&rt, 1, "duplicates-suppressed") > 0,
        "wire duplicates were never suppressed"
    );
    assert_eq!(net_counter(&rt, 0, "delivery-failures"), 0);
    rt.shutdown();
}

#[test]
fn exhausted_retries_surface_as_delivery_failures_not_hangs() {
    let mut config = RuntimeConfig::small_test();
    // A deliberately tiny budget so a fully-dropped wire gives up fast.
    config.reliability = Some(ReliabilityConfig {
        rto_initial: Duration::from_micros(300),
        rto_max: Duration::from_micros(600),
        max_retries: 2,
        ..Default::default()
    });
    let rt = Runtime::new(config);
    let act = rt.action("fault::void").register(|(): ()| {});
    rt.inject_faults(0, Some(Arc::new(FaultPlan::drop_every(1))));
    rt.run_on(0, move |ctx| {
        for _ in 0..5 {
            ctx.apply(&act, 1, ());
        }
    });
    // The retransmit queue must drain by giving up — quiescence, not a
    // hang — and every abandoned message must be counted.
    assert!(
        rt.wait_quiescent(Duration::from_secs(30)),
        "give-up never drained the retransmit queue"
    );
    assert!(
        net_counter(&rt, 0, "delivery-failures") > 0,
        "no delivery failure surfaced"
    );
    rt.shutdown();
}

#[test]
fn dropped_responses_surface_as_timeouts_not_hangs() {
    let rt = Runtime::new(RuntimeConfig::small_test());
    let act = rt.action("fault::echo").register(|x: u64| x);
    // Drop every message leaving locality 1 — requests arrive, responses
    // vanish.
    rt.inject_faults(1, Some(Arc::new(FaultPlan::drop_every(1))));
    let result = rt.run_on(0, move |ctx| {
        ctx.async_action(&act, 1, 7u64)
            .get_timeout(Duration::from_millis(300))
    });
    assert!(result.is_err(), "wait should time out, got {result:?}");
    rt.shutdown();
}

#[test]
fn clearing_the_plan_restores_delivery() {
    let rt = Runtime::new(RuntimeConfig::small_test());
    let act = rt.action("fault::echo2").register(|x: u64| x);
    rt.inject_faults(0, Some(Arc::new(FaultPlan::drop_every(1))));
    let timed_out = rt.run_on(0, {
        let act = act.clone();
        move |ctx| {
            ctx.async_action(&act, 1, 1u64)
                .get_timeout(Duration::from_millis(200))
                .is_err()
        }
    });
    assert!(timed_out);
    rt.inject_faults(0, None);
    let v = rt.run_on(0, move |ctx| {
        ctx.async_action(&act, 1, 42u64)
            .get_timeout(Duration::from_secs(10))
            .unwrap()
    });
    assert_eq!(v, 42);
    rt.shutdown();
}
