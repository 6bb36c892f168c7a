//! `service-skew`: an open-loop service on shm.
//!
//! One generator — the benchmark's main thread, outside every scheduler —
//! hands each request to locality 0 with `Runtime::spawn_on` at its due
//! time; the spawned task sends it with `Ctx::apply` to one of two server
//! localities picked by Zipf(1.2). The schedule alternates a base rate
//! with 10× bursts. Requests are Lossless, the egress backpressure
//! watermark is on and the per-destination adaptive controller steers
//! coalescing.
//!
//! `rpx_apps::run_service` is not reused: it runs its generator inside a
//! scheduler task (with one worker per locality nothing is pumped until
//! the generator returns) and stamps latency at send time, not due time.
//! Here every latency runs from the request's due time, so a stalled
//! generator or runtime shows in the figures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpx::{
    AdaptiveConfig, CoalescingControl, CoalescingParams, DeliveryClass, PerDestController, Runtime,
    RuntimeConfig, TransportKind,
};

use crate::clock::now_ns;
use crate::report::Outcome;
use crate::stats::{mean, percentile, Windowed};
use crate::trace::{Busy, LayerTable, SpanLog, PER_OP_SAMPLE};
use crate::{layers, Args, SetupTimes, SplitMix64};

/// The request action.
pub const ACTION: &str = "bench::req";
/// Boots timed per run for `setup_s` (their median).
pub const SETUP_BOOTS: usize = 5;
/// Server localities (1 and 2; locality 0 is the client).
pub const SERVERS: u32 = 2;
/// Zipf exponent of the destination choice.
pub const ZIPF_S: f64 = 1.2;
/// Requests per second outside bursts (a 500 µs gap, longer than the
/// 200 µs flush interval). At this rate a burst can tip locality 0 into
/// the Lossless admission stall (README.md), and the run shows it.
pub const BASE_RATE: f64 = 2_000.0;
/// Burst rate multiplier.
pub const BURST_FACTOR: f64 = 10.0;
/// Length of the base part of a cycle.
pub const BASE_PERIOD: Duration = Duration::from_millis(60);
/// Length of the burst part of a cycle.
pub const BURST_PERIOD: Duration = Duration::from_millis(20);
/// The p99 limit `max_rate_per_s` is measured against (due time to
/// handler start).
pub const P99_LIMIT_US: f64 = 5_000.0;
/// Length of one steady-rate probe of the max-rate search.
pub const PROBE: Duration = Duration::from_millis(400);
/// Windows a probe's p99 is taken over (the median is compared).
const PROBE_WINDOWS: usize = 8;
/// Highest rate the max-rate search tries.
pub const MAX_PROBE_RATE: f64 = 320_000.0;

/// The generator spins only this close to a due time.
const SPIN_NS: u64 = 15_000;

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Due time relative to the schedule start, ns.
    pub due: u64,
    /// Destination locality.
    pub dest: u32,
    /// Schedule cycle (base + burst) the due time falls in.
    pub cycle: u32,
    /// Whether the due time falls in a burst.
    pub burst: bool,
}

/// Destination sampler: Zipf over the server localities `1..=n`.
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub(crate) fn new(n: u32, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / f64::from(r).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Zipf {
            cdf: weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        }
    }

    pub(crate) fn sample(&self, g: &mut SplitMix64) -> u32 {
        let u = g.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32 + 1
    }
}

/// The base/burst schedule of `seconds` for `seed`: uniform spacing at
/// the phase's rate, destinations by Zipf.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Request> {
    let zipf = Zipf::new(SERVERS, ZIPF_S);
    let mut g = SplitMix64::new(seed, 0x5e41);
    let (base, burst) = (
        BASE_PERIOD.as_nanos() as u64,
        BURST_PERIOD.as_nanos() as u64,
    );
    let cycle_ns = base + burst;
    let end = (seconds * 1e9) as u64;
    let mut out = Vec::new();
    let mut t = 0u64;
    while t < end {
        let cycle = t / cycle_ns;
        let in_burst = t % cycle_ns >= base;
        let rate = if in_burst {
            BASE_RATE * BURST_FACTOR
        } else {
            BASE_RATE
        };
        out.push(Request {
            due: t,
            dest: zipf.sample(&mut g),
            cycle: cycle as u32,
            burst: in_burst,
        });
        t += (1e9 / rate) as u64;
    }
    out
}

/// A steady schedule at `rate` for one max-rate probe.
fn steady(seed: u64, probe: u64, rate: f64) -> Vec<Request> {
    let zipf = Zipf::new(SERVERS, ZIPF_S);
    let mut g = SplitMix64::new(seed, 0x9b0e ^ (probe << 8));
    let gap = (1e9 / rate) as u64;
    let n = (PROBE.as_secs_f64() * rate) as u64;
    (0..n)
        .map(|i| Request {
            due: i * gap,
            dest: zipf.sample(&mut g),
            cycle: 0,
            burst: false,
        })
        .collect()
}

/// Per-request stamps written on scheduler threads.
struct Table {
    dest: Vec<AtomicU64>,
    admit: Vec<AtomicU64>,
    ret: Vec<AtomicU64>,
    hstart: Vec<AtomicU64>,
    hend: Vec<AtomicU64>,
    delivered: Vec<AtomicU64>,
    anomalies: AtomicU64,
}

impl Table {
    fn new(n: usize) -> Arc<Table> {
        let col = || (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Arc::new(Table {
            dest: col(),
            admit: col(),
            ret: col(),
            hstart: col(),
            hend: col(),
            delivered: (0..=SERVERS).map(|_| AtomicU64::new(0)).collect(),
            anomalies: AtomicU64::new(0),
        })
    }

    fn reset(&self, range: std::ops::Range<usize>) {
        for i in range {
            for col in [&self.dest, &self.admit, &self.ret, &self.hstart, &self.hend] {
                col[i].store(0, Ordering::Relaxed);
            }
        }
    }

    fn delivered_total(&self) -> u64 {
        self.delivered
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .sum()
    }

    fn get(col: &[AtomicU64], i: usize) -> u64 {
        col[i].load(Ordering::Relaxed)
    }
}

struct Booted {
    rt: Arc<Runtime>,
    control: CoalescingControl,
    controller: Option<PerDestController>,
    action: rpx::ActionHandle<u64, ()>,
    table: Arc<Table>,
}

fn boot(capacity: usize, setup: &mut SetupTimes) -> Result<Booted, String> {
    let t0 = now_ns();
    let rt = Runtime::try_new(RuntimeConfig {
        localities: SERVERS + 1,
        workers_per_locality: 1,
        transport: TransportKind::Shm(rpx::ShmTuning::default()),
        backpressure_watermark: Some(64),
        invocation_overhead: Duration::ZERO,
        ..RuntimeConfig::default()
    })
    .map_err(|e| format!("boot: {e}"))?;
    let t1 = now_ns();
    let table = Table::new(capacity);
    let tb = Arc::clone(&table);
    let action = rt
        .action(ACTION)
        .delivery(DeliveryClass::Lossless)
        .with_locality()
        .register(move |here: u32, id: u64| {
            let t = now_ns();
            let i = id as usize;
            if i >= tb.hstart.len() || tb.hstart[i].swap(t, Ordering::Relaxed) != 0 {
                tb.anomalies.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if tb.dest[i].load(Ordering::Relaxed) != u64::from(here) {
                tb.anomalies.fetch_add(1, Ordering::Relaxed);
            }
            tb.delivered[here as usize].fetch_add(1, Ordering::Relaxed);
            tb.hend[i].store(now_ns(), Ordering::Relaxed);
        });
    let control = rt
        .enable_coalescing_per_destination(
            ACTION,
            CoalescingParams::new(1, Duration::from_micros(200)),
        )
        .map_err(|e| format!("enable_coalescing_per_destination: {e}"))?;
    let controller = Some(control.start_adaptive_per_dest(
        &rt,
        0,
        AdaptiveConfig {
            window: Duration::from_millis(10),
            warmup_windows: 1,
            ..AdaptiveConfig::default()
        },
    ));
    setup.record(t0, t1, now_ns());
    Ok(Booted {
        rt,
        control,
        controller,
        action,
        table,
    })
}

/// The generator: hand `reqs` (ids from `first`) to locality 0, each at
/// its due time after `start`. Returns each request's handover stamp.
/// With `max_outstanding`, generation stops early once more requests are
/// handed over than have reached a handler by that many: the runtime has
/// fallen behind for good, and stopping bounds the backlog it must drain.
fn generate(
    b: &Booted,
    reqs: &[Request],
    first: usize,
    start: u64,
    max_outstanding: Option<u64>,
    traced: impl Fn(&Request) -> bool,
) -> Vec<u64> {
    tight_timer_slack();
    let delivered0 = b.table.delivered_total();
    let mut handover = Vec::with_capacity(reqs.len());
    for (k, r) in reqs.iter().enumerate() {
        if let Some(limit) = max_outstanding {
            if k % 16 == 0 && k as u64 - (b.table.delivered_total() - delivered0) > limit {
                break;
            }
        }
        let due = start + r.due;
        loop {
            let now = now_ns();
            if now >= due {
                break;
            }
            // Sleep while the due time is far; spin only the last few
            // microseconds, so the generator neither runs late by a
            // sleep's granularity nor takes a core from the runtime.
            let wait = due - now;
            if wait > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(wait - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
        let id = first + k;
        b.table.dest[id].store(u64::from(r.dest), Ordering::Relaxed);
        let (tb, action, dest, trace) = (Arc::clone(&b.table), b.action.clone(), r.dest, traced(r));
        handover.push(now_ns());
        b.rt.spawn_on(0, move |ctx| {
            if trace {
                tb.admit[id].store(now_ns(), Ordering::Relaxed);
                ctx.apply(&action, dest, id as u64);
                tb.ret[id].store(now_ns(), Ordering::Relaxed);
            } else {
                ctx.apply(&action, dest, id as u64);
            }
        });
    }
    handover
}

/// Make this thread's sleeps end on time: Linux lets a sleep overrun by
/// the thread's timer slack (50 µs by default), which would add to every
/// hand-over.
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Wait until every request in `range` is delivered or shed; returns the
/// number still missing at `timeout`, plus the flush call's and the
/// whole drain's duration in ns.
fn drain(
    b: &Booted,
    range: std::ops::Range<usize>,
    shed0: u64,
    timeout: Duration,
) -> (u64, u64, u64) {
    let t0 = now_ns();
    b.control.flush();
    let flushed = now_ns() - t0;
    let deadline = t0 + timeout.as_nanos() as u64;
    loop {
        let missing = range
            .clone()
            .filter(|&i| Table::get(&b.table.hstart, i) == 0)
            .count() as u64;
        let shed = shed_total(b) - shed0;
        if missing <= shed || now_ns() >= deadline {
            return (missing.saturating_sub(shed), flushed, now_ns() - t0);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn shed_total(b: &Booted) -> u64 {
    let stats = b.rt.locality(0).parcel_stats();
    (1..=SERVERS).map(|d| stats.sheds_to(d)).sum()
}

/// One steady-rate probe: does `rate` keep the typical p99 (the median
/// over the probe's windows) under the limit, with every request
/// delivered and the generator never falling behind for good?
fn probe(b: &Booted, seed: u64, index: u64, rate: f64, region: std::ops::Range<usize>) -> bool {
    let reqs = steady(seed, index, rate);
    let reqs = &reqs[..reqs.len().min(region.len())];
    b.table.reset(region.clone());
    let start = now_ns() + 200_000;
    let limit = (2.0 * rate * P99_LIMIT_US * 1e-6).max(64.0) as u64;
    let handed = generate(b, reqs, region.start, start, Some(limit), |_| false).len();
    let shed0 = shed_total(b);
    let (missing, _, _) = drain(
        b,
        region.start..region.start + handed,
        shed0,
        Duration::from_secs(2),
    );
    if handed < reqs.len() || missing > 0 || shed_total(b) > shed0 {
        return false;
    }
    let mut lat = Windowed::default();
    let per_window = (reqs.len() / PROBE_WINDOWS).max(1);
    for (k, r) in reqs.iter().enumerate() {
        if k % per_window == 0 {
            lat.begin_step();
        }
        let hs = Table::get(&b.table.hstart, region.start + k);
        lat.push(hs.saturating_sub(start + r.due) as f64 / 1e3);
    }
    lat.windowed_percentile(0.99, PROBE_WINDOWS) <= P99_LIMIT_US
}

/// The highest steady rate whose p99 stays under [`P99_LIMIT_US`]:
/// double from 2.5k/s until a probe fails, then bisect geometrically.
fn max_rate(b: &Booted, seed: u64, region: std::ops::Range<usize>, budget: Duration) -> f64 {
    let started = std::time::Instant::now();
    let mut index = 0u64;
    let mut run = |rate: f64| {
        index += 1;
        probe(b, seed, index, rate, region.clone())
    };
    let (mut lo, mut hi) = (0.0f64, MAX_PROBE_RATE);
    let mut rate = 2_500.0;
    while rate <= MAX_PROBE_RATE && started.elapsed() < budget {
        if run(rate) {
            lo = rate;
            rate *= 2.0;
        } else {
            hi = rate;
            break;
        }
    }
    if lo == 0.0 {
        return 0.0;
    }
    while hi / lo > 1.03 && started.elapsed() < budget {
        let mid = (lo * hi).sqrt();
        if run(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Run service-skew for `args`.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let warmup = 1.0;
    let search = Duration::from_secs_f64(args.seconds * 0.3);
    let sched = schedule(args.seed, args.seconds * 0.7);
    let warm = schedule(args.seed ^ 0x77, warmup);
    let probe_cap = (MAX_PROBE_RATE * PROBE.as_secs_f64()) as usize;
    let capacity = sched.len() + warm.len() + probe_cap;
    let mut setup = SetupTimes::default();
    let mut b = match boot(capacity, &mut setup) {
        Ok(b) => b,
        Err(e) => {
            outcome.fail(e);
            return outcome;
        }
    };
    let warm_region = sched.len()..sched.len() + warm.len();
    let probe_region = warm_region.end..capacity;

    // Warm up on a schedule of its own.
    let shed0 = shed_total(&b);
    generate(
        &b,
        &warm,
        warm_region.start,
        now_ns() + 100_000,
        None,
        |_| false,
    );
    drain(&b, warm_region, shed0, Duration::from_secs(5));

    // The measured schedule; traced runs trace odd cycles.
    let before = layers::Snapshot::take(&b.rt, &[ACTION]);
    let shed0 = shed_total(&b);
    let shed0_by_dest: Vec<u64> = (0..=SERVERS)
        .map(|d| b.rt.locality(0).parcel_stats().sheds_to(d))
        .collect();
    let start = now_ns() + 200_000;
    let trace = args.trace;
    let handover = generate(&b, &sched, 0, start, None, |r| trace && r.cycle % 2 == 1);
    let (timed_out, flush_ns, drain_ns) = drain(&b, 0..sched.len(), shed0, Duration::from_secs(10));
    let end = now_ns();
    let after = layers::Snapshot::take(&b.rt, &[ACTION]);
    let rss_mb = crate::peak_rss_mb();
    let decisions = b
        .controller
        .as_ref()
        .map(|c| c.decisions())
        .unwrap_or_default();
    let final_nparcels = |d: u32| {
        b.control
            .coalescer(0)
            .map_or(0, |c| c.params_for(d).load().nparcels) as f64
    };
    let (hot, cold) = (final_nparcels(1), final_nparcels(2));
    let shed_by_dest: Vec<u64> = (0..=SERVERS)
        .map(|d| b.rt.locality(0).parcel_stats().sheds_to(d) - shed0_by_dest[d as usize])
        .collect();
    let shed_sched: u64 = shed_by_dest.iter().sum();

    // Then the highest steady rate, after the schedule: a probe past
    // capacity leaves a backlog the schedule must not inherit.
    let max_rate = max_rate(&b, args.seed, probe_region, search);
    if let Some(c) = b.controller.take() {
        c.stop();
    }

    // Checks: each request delivered exactly once at its destination;
    // per destination, issued == delivered + shed.
    let mut issued = vec![0u64; SERVERS as usize + 1];
    for r in &sched {
        issued[r.dest as usize] += 1;
    }
    let anomalies = b.table.anomalies.load(Ordering::Relaxed);
    let lost = sched
        .iter()
        .enumerate()
        .filter(|(i, _)| Table::get(&b.table.hstart, *i) == 0)
        .count() as u64;
    let wire = layers::wire_failures(&before, &after);
    outcome.attempted = sched.len() as u64;
    outcome.failed = lost + anomalies + wire;
    if lost > 0 || timed_out > 0 {
        outcome.fail(format!("{lost} requests never reached a handler ({timed_out} still missing at the drain deadline)"));
    }
    if anomalies > 0 {
        outcome.fail(format!(
            "{anomalies} duplicate, unknown or misrouted deliveries"
        ));
    }
    if shed_sched > 0 {
        outcome.fail(format!("{shed_sched} Lossless requests shed"));
    }
    for d in 1..=SERVERS as usize {
        let delivered_sched = sched
            .iter()
            .enumerate()
            .filter(|(i, r)| r.dest as usize == d && Table::get(&b.table.hstart, *i) != 0)
            .count() as u64;
        if issued[d] != delivered_sched + shed_by_dest[d] {
            outcome.fail(format!(
                "destination {d}: issued {} != delivered {delivered_sched} + shed {}",
                issued[d], shed_by_dest[d]
            ));
        }
    }

    // End to end, from untraced cycles.
    let mut lat_base = Windowed::default();
    let mut lat_burst = Windowed::default();
    let mut lag = Windowed::default();
    let mut cycle_end: Vec<u64> = Vec::new();
    let mut traced_lat = Vec::new();
    let mut untraced_lat = Vec::new();
    let mut last_cycle = u32::MAX;
    for (i, r) in sched.iter().enumerate() {
        let due = start + r.due;
        let hs = Table::get(&b.table.hstart, i);
        let lat = hs.saturating_sub(due) as f64 / 1e3;
        let traced = trace && r.cycle % 2 == 1;
        if r.cycle != last_cycle {
            last_cycle = r.cycle;
            lat_base.begin_step();
            lat_burst.begin_step();
            lag.begin_step();
            cycle_end.push(0);
        }
        let last = cycle_end.last_mut().expect("a cycle");
        *last = (*last).max(hs);
        if traced {
            traced_lat.push(lat);
            continue;
        }
        untraced_lat.push(lat);
        lag.push(handover[i].saturating_sub(due) as f64 / 1e3);
        if r.burst {
            lat_burst.push(lat);
        } else {
            lat_base.push(lat);
        }
    }
    let cycle_ns = (BASE_PERIOD + BURST_PERIOD).as_nanos() as u64;
    let step_ms: Vec<f64> = cycle_end
        .iter()
        .enumerate()
        .filter(|(c, _)| !(trace && c % 2 == 1))
        .map(|(c, &e)| e.saturating_sub(start + c as u64 * cycle_ns) as f64 / 1e6)
        .collect();
    let delivered = sched.len() as u64 - lost;
    // Percentiles are taken per window of ten cycles and the windows'
    // median reported.
    let windows = cycle_end.len() / 10;
    let e = &mut outcome.e2e;
    e.set(
        "throughput_per_s",
        delivered as f64 / crate::clock::secs(start, end),
    );
    e.set("step_p50_ms", percentile(&step_ms, 0.5));
    e.set("step_p90_ms", percentile(&step_ms, 0.9));
    e.set(
        "lat_p50_us.base",
        lat_base.windowed_percentile(0.5, windows),
    );
    e.set(
        "lat_p99_us.base",
        lat_base.windowed_percentile(0.99, windows),
    );
    e.set(
        "lat_p50_us.burst",
        lat_burst.windowed_percentile(0.5, windows),
    );
    e.set(
        "lat_p99_us.burst",
        lat_burst.windowed_percentile(0.99, windows),
    );
    e.set("max_rate_per_s", max_rate);
    e.set("gen_lag_p99_us", lag.windowed_percentile(0.99, windows));
    e.set("peak_rss_mb", rss_mb);
    outcome.notes.push(format!(
        "  samples: {} requests ({} base, {} burst untraced), {} cycles; p99 limit {P99_LIMIT_US} us",
        sched.len(),
        lat_base.len(),
        lat_burst.len(),
        cycle_end.len()
    ));

    if trace {
        let l = &mut outcome.layers;
        layers::counter_metrics(
            &before,
            &after,
            sched.len() as f64,
            f64::from(SERVERS + 1),
            crate::clock::secs(start, end),
            l,
        );
        let (encode_ns, decode_ns) = layers::serialize_cost(&(sched.len() as u64 / 2), l);
        // Per-request spans of traced cycles.
        let mut spans = SpanLog::default();
        let mut busy_iv: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SERVERS as usize + 1];
        for (i, r) in sched.iter().enumerate() {
            busy_iv[r.dest as usize]
                .push((Table::get(&b.table.hstart, i), Table::get(&b.table.hend, i)));
        }
        let busy: Vec<Busy> = busy_iv.into_iter().map(Busy::new).collect();
        let (mut admit, mut send, mut transit, mut queued, mut handler, mut e2e, mut gen) =
            (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
        for (i, r) in sched.iter().enumerate() {
            if r.cycle % 2 == 0 {
                continue;
            }
            let (ad, rt_, hs, he) = (
                Table::get(&b.table.admit, i),
                Table::get(&b.table.ret, i),
                Table::get(&b.table.hstart, i),
                Table::get(&b.table.hend, i),
            );
            if ad == 0 || rt_ == 0 || hs == 0 || he == 0 {
                continue;
            }
            let due = start + r.due;
            let covered = busy[r.dest as usize].covered(rt_, hs);
            gen.push(handover[i].saturating_sub(due) as f64 / 1e3);
            admit.push(ad.saturating_sub(handover[i]) as f64 / 1e3);
            send.push(rt_.saturating_sub(ad) as f64);
            queued.push(covered as f64 / 1e3);
            transit.push(hs.saturating_sub(rt_).saturating_sub(covered) as f64 / 1e3);
            handler.push(he.saturating_sub(hs) as f64 / 1e3);
            e2e.push(he.saturating_sub(due) as f64 / 1e3);
            if (i as u64).is_multiple_of(PER_OP_SAMPLE) {
                let root = spans.record("request", due, he, 0, i as u64);
                spans.record("gen_lag", due, handover[i], root, i as u64);
                spans.record("admit", handover[i], ad, root, i as u64);
                spans.record_op(root, 0, ad, rt_, hs, he);
            }
        }
        let d0 = end - drain_ns;
        let drain_span = spans.record("drain", d0, end, 0, 0);
        spans.record("flush", d0, d0 + flush_ns, drain_span, 0);
        l.set("threading.admit_us.p50", percentile(&admit, 0.5));
        l.set("threading.admit_us.p99", percentile(&admit, 0.99));
        l.set("parcel.send_call_ns.p50", percentile(&send, 0.5));
        l.set("parcel.send_call_ns.p99", percentile(&send, 0.99));
        l.set("transit_us.p50", percentile(&transit, 0.5));
        l.set("transit_us.p99", percentile(&transit, 0.99));
        l.set("handler_us", mean(&handler));
        l.set("core.drain_ms", drain_ns as f64 / 1e6);
        l.set("coalesce.flush_call_us", flush_ns as f64 / 1e3);
        for name in ["lco.wait_all_ms", "lco.barrier_ms", "lco.skew_ms"] {
            l.set(name, 0.0);
        }
        l.set("adaptive.decisions", decisions.len() as f64);
        l.set("adaptive.nparcels.hot", hot);
        l.set("adaptive.nparcels.cold", cold);
        let first = decisions
            .iter()
            .map(|d| d.decision.at)
            .min()
            .unwrap_or_default();
        l.set("adaptive.first_decision_ms", first.as_secs_f64() * 1e3);
        l.set(
            "trace.overhead_frac",
            percentile(&traced_lat, 0.5) / percentile(&untraced_lat, 0.5).max(1e-9) - 1.0,
        );
        let mut table = LayerTable::default();
        let ops = admit.len() as u64;
        let (enc, dec) = (encode_ns / 1e3, decode_ns / 1e3);
        table.row("generator", "due to hand-over", ops, mean(&gen));
        table.row("rpx-threading", "spawn_on to task start", ops, mean(&admit));
        table.row(
            "rpx-parcel",
            "send call - encode",
            ops,
            mean(&send) / 1e3 - enc,
        );
        table.row("rpx-serialize", "encode + decode", ops, enc + dec);
        table.row(
            "rpx-threading",
            "queued behind spans at dest",
            ops,
            mean(&queued),
        );
        table.row("handler", "handler body", ops, mean(&handler));
        let e2e_us = mean(&e2e);
        l.set("e2e_us_per_op", e2e_us);
        l.set("residual_us_per_op", e2e_us - table.explained_us());
        let overhead = l.get("trace.overhead_frac").unwrap_or(0.0);
        outcome.notes.push(table.render(e2e_us, overhead));
        outcome.notes.push(format!(
            "  controller: {} decisions, final nparcels hot {} cold {}",
            decisions.len(),
            outcome.layers.get("adaptive.nparcels.hot").unwrap_or(0.0),
            outcome.layers.get("adaptive.nparcels.cold").unwrap_or(0.0)
        ));
        crate::write_spans(&args.workload, &spans, &mut outcome);
    }
    b.rt.shutdown();
    drop(b);
    // More boots for the set-up median, after the memory peak was read.
    for _ in 1..SETUP_BOOTS {
        match boot(capacity, &mut setup) {
            Ok(mut b) => {
                if let Some(c) = b.controller.take() {
                    c.stop();
                }
                b.rt.shutdown();
            }
            Err(e) => outcome.fail(e),
        }
    }
    setup.report(&mut outcome);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_alternates() {
        let a = schedule(5, 0.5);
        let b = schedule(5, 0.5);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.dest == y.dest));
        let c = schedule(6, 0.5);
        assert!(a.iter().zip(&c).any(|(x, y)| x.dest != y.dest));
        let burst = a.iter().filter(|r| r.burst).count();
        let base = a.len() - burst;
        // 20 ms of 20k/s against 60 ms of 2k/s per cycle.
        assert!(burst > 3 * base, "burst {burst} base {base}");
        let hot = a.iter().filter(|r| r.dest == 1).count();
        assert!(hot > a.len() / 2, "Zipf head gets most requests");
    }
}
