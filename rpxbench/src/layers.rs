//! Per-layer figures read from outside the runtime: counter deltas over
//! the measured interval (`Runtime::query`) and the flush timer's
//! accuracy statistics (`Runtime::timer().accuracy()`).

use rpx::{CounterValue, Runtime};

use crate::report::Metrics;

/// Counters summed over every hosted locality.
const SUMMED: &[&str] = &[
    "/threads/count/cumulative",
    "/threads/count/cumulative-spawned",
    "/threads/time/cumulative-work",
    "/threads/background-work",
    "/threads/batched-tasks",
    "/threads/spawn-batches",
    "/threads/wakeups-skipped",
    "/parcels/count/sent",
    "/parcels/count/messages-sent",
    "/network/backpressure-blocked-ns",
    "/network/backpressure-events",
    "/network/backpressure-shed",
    "/network/best-effort-dropped",
    "/network/messages-sent",
    "/network/bytes-sent",
    "/network/event-loop-writev-frames",
    "/network/event-loop-wakeups",
    "/network/event-loop-readv-batches",
    "/network/shm-messages",
    "/network/shm-doorbell-wakeups",
    "/network/retransmits",
    "/network/delivery-failures",
    "/network/decode-failures",
];

/// One reading of the counters and the timer.
#[derive(Debug, Clone)]
pub struct Snapshot {
    values: Vec<f64>,
    coalesced_parcels: f64,
    coalesced_messages: f64,
    /// Idle and task-function nanoseconds summed over localities.
    idle_ns: f64,
    func_ns: f64,
    timer: rpx_util::timer::TimerAccuracy,
}

fn query_f64(rt: &Runtime, locality: u32, path: &str) -> f64 {
    match rt.query(locality, path) {
        Ok(CounterValue::Int(v)) => v as f64,
        Ok(CounterValue::Float(v)) => v,
        _ => 0.0,
    }
}

impl Snapshot {
    /// Read every counter now. `actions` are the coalesced action names
    /// whose `/coalescing/*` counters are summed (continuation results
    /// are coalesced under `rpx::set-lco`).
    pub fn take(rt: &Runtime, actions: &[&str]) -> Snapshot {
        let locs = rt.hosted_localities();
        let sum = |path: &str| locs.iter().map(|&l| query_f64(rt, l, path)).sum::<f64>();
        let coalesced = |kind: &str| {
            actions
                .iter()
                .map(|a| sum(&format!("/coalescing/count/{kind}@{a}")))
                .sum::<f64>()
        };
        Snapshot {
            values: SUMMED.iter().map(|p| sum(p)).collect(),
            coalesced_parcels: coalesced("parcels"),
            coalesced_messages: coalesced("messages"),
            // Only the rate idle / (idle + func) is exported; each
            // locality's idle time follows from it and its func time.
            idle_ns: locs
                .iter()
                .map(|&l| {
                    let rate = query_f64(rt, l, "/threads/idle-rate");
                    let func = query_f64(rt, l, "/threads/time/cumulative");
                    if rate < 1.0 {
                        func * rate / (1.0 - rate)
                    } else {
                        0.0
                    }
                })
                .sum(),
            func_ns: sum("/threads/time/cumulative"),
            timer: rt.timer().accuracy(),
        }
    }

    fn get(&self, path: &str) -> f64 {
        let i = SUMMED
            .iter()
            .position(|p| *p == path)
            .expect("summed counter");
        self.values[i]
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The counter-based per-layer metrics over `[before, after]`: `ops`
/// completed operations, `workers` scheduler workers in total, `wall_s`
/// seconds between the two readings.
pub fn counter_metrics(
    before: &Snapshot,
    after: &Snapshot,
    ops: f64,
    workers: f64,
    wall_s: f64,
    out: &mut Metrics,
) {
    let d = |p: &str| after.get(p) - before.get(p);
    let worker_ns = workers * wall_s * 1e9;
    out.set(
        "threading.tasks_per_op",
        ratio(d("/threads/count/cumulative"), ops),
    );
    out.set(
        "threading.exec_busy_frac",
        ratio(d("/threads/time/cumulative-work"), worker_ns),
    );
    out.set(
        "threading.background_busy_frac",
        ratio(d("/threads/background-work"), worker_ns),
    );
    let (idle, func) = (
        after.idle_ns - before.idle_ns,
        after.func_ns - before.func_ns,
    );
    out.set("threading.idle_rate", ratio(idle, idle + func));
    out.set(
        "threading.tasks_per_spawn_batch",
        ratio(d("/threads/batched-tasks"), d("/threads/spawn-batches")),
    );
    out.set(
        "threading.wakeups_skipped_per_task",
        ratio(
            d("/threads/wakeups-skipped"),
            d("/threads/count/cumulative-spawned"),
        ),
    );
    out.set(
        "parcel.parcels_per_message",
        ratio(d("/parcels/count/sent"), d("/parcels/count/messages-sent")),
    );
    out.set(
        "parcel.admission_blocked_ms",
        d("/network/backpressure-blocked-ns") * 1e-6,
    );
    out.set("parcel.admission_events", d("/network/backpressure-events"));
    out.set(
        "parcel.shed",
        d("/network/backpressure-shed") + d("/network/best-effort-dropped"),
    );
    out.set(
        "parcel.parcels_per_op",
        ratio(d("/parcels/count/sent"), ops),
    );
    let (cp, cm) = (
        after.coalesced_parcels - before.coalesced_parcels,
        after.coalesced_messages - before.coalesced_messages,
    );
    out.set("coalesce.parcels_per_message", ratio(cp, cm));
    out.set("coalesce.messages", cm);
    out.set(
        "net.messages_per_op",
        ratio(d("/network/messages-sent"), ops),
    );
    out.set("net.bytes_per_op", ratio(d("/network/bytes-sent"), ops));
    out.set(
        "net.writev_frames_per_wakeup",
        ratio(
            d("/network/event-loop-writev-frames"),
            d("/network/event-loop-wakeups"),
        ),
    );
    out.set("net.readv_batches", d("/network/event-loop-readv-batches"));
    out.set("net.shm_messages", d("/network/shm-messages"));
    out.set(
        "net.shm_doorbell_wakeups_per_msg",
        ratio(
            d("/network/shm-doorbell-wakeups"),
            d("/network/shm-messages"),
        ),
    );
    out.set("net.retransmits", d("/network/retransmits"));
    out.set("net.delivery_failures", d("/network/delivery-failures"));
    out.set("net.decode_failures", d("/network/decode-failures"));
    let (tb, ta) = (&before.timer, &after.timer);
    let fired = (ta.fired - tb.fired) as f64;
    out.set("timer.fired", fired);
    out.set("timer.cancelled", (ta.cancelled - tb.cancelled) as f64);
    // The timer keeps a running mean over every firing: the interval's
    // mean follows from the two readings.
    out.set(
        "timer.mean_late_us",
        ratio(
            ta.mean_error_us * ta.fired as f64 - tb.mean_error_us * tb.fired as f64,
            fired,
        )
        .max(0.0),
    );
    // One running maximum since boot: when it rose in the interval it is
    // the interval's maximum, otherwise a bound on it.
    out.set(
        "timer.max_late_us",
        if fired > 0.0 { ta.max_error_us } else { 0.0 },
    );
}

/// Failures the transport layer reports, which every workload counts in
/// its failed operations.
pub fn wire_failures(before: &Snapshot, after: &Snapshot) -> u64 {
    let d = |p: &str| after.get(p) - before.get(p);
    (d("/network/delivery-failures") + d("/network/decode-failures")) as u64
}

/// Time `rpx_serialize::to_bytes`/`from_bytes` on a workload's own
/// argument value for 100 ms: sets the mean encode and decode
/// nanoseconds per value and the encoded size, and returns the two
/// means.
pub fn serialize_cost<T: rpx::Wire + PartialEq>(value: &T, out: &mut Metrics) -> (f64, f64) {
    let budget = std::time::Duration::from_millis(100);
    let bytes = rpx_serialize::to_bytes(value);
    out.set("serialize.bytes", bytes.len() as f64);
    let batch = 256;
    let (mut enc_ns, mut dec_ns, mut n) = (0u128, 0u128, 0u64);
    let start = std::time::Instant::now();
    while start.elapsed() < budget {
        let t0 = std::time::Instant::now();
        let encoded: Vec<_> = (0..batch).map(|_| rpx_serialize::to_bytes(value)).collect();
        let t1 = std::time::Instant::now();
        let decoded: Vec<T> = encoded
            .into_iter()
            .map(|b| rpx_serialize::from_bytes(b).expect("round trip"))
            .collect();
        let t2 = std::time::Instant::now();
        assert!(
            decoded.iter().all(|d| d == value),
            "serialize round trip changed the value"
        );
        enc_ns += (t1 - t0).as_nanos();
        dec_ns += (t2 - t1).as_nanos();
        n += batch;
    }
    let (enc, dec) = (enc_ns as f64 / n as f64, dec_ns as f64 / n as f64);
    out.set("serialize.encode_ns", enc);
    out.set("serialize.decode_ns", dec);
    (enc, dec)
}
