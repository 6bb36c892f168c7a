//! `skew-adaptive`: Zipf-skewed one-way requests as a closed loop on shm,
//! with per-destination adaptive coalescing and egress admission control
//! on.
//!
//! Three localities on shm with two workers each and one blocked caller
//! on locality 0. Each step the caller sends `N` Lossless `apply`
//! requests to locality 1 or 2, picked by Zipf(1.2), flushes the
//! coalescers, and the step ends once every request was handled. The
//! per-destination controller steers locality 0's `nparcels` for each
//! server, and the backpressure watermark holds the sender whenever one
//! server's egress backlog reaches it.
//!
//! The egress pump runs only on a worker whose task queue is empty, so
//! locality 0 has a second worker to pump while the sender is held, and
//! the requests are one-way, so the servers' workers, busy with handler
//! tasks, send nothing that admission could hold. With one worker, or
//! with replies, a held sender waits out the full block time for a pump
//! that cannot run (`service-skew` shows that case).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpx::{
    AdaptiveConfig, CoalescingControl, CoalescingParams, DeliveryClass, PerDestController, Runtime,
    RuntimeConfig, TransportKind,
};
use rpx_adaptive::Ladder;

use crate::clock::now_ns;
use crate::closed_loop::{self, Acc, Callers, SendFn, SenderOut, Stamps, StepExtra};
use crate::report::Outcome;
use crate::service::Zipf;
use crate::{layers, Args, SetupTimes, SplitMix64};

/// The request action.
pub const ACTION: &str = "bench::skew";
/// Boots timed per run for `setup_s` (their median). Each shm boot keeps
/// its rings (about 40 MB for three localities), which bounds the count.
pub const SETUP_BOOTS: usize = 7;
/// Server localities (1 and 2; locality 0 is the client).
pub const SERVERS: u32 = 2;
/// Zipf exponent of the destination choice.
pub const ZIPF_S: f64 = 1.2;
/// Requests per step.
pub const N: usize = 16384;
/// Egress entries per destination at which admission control engages.
pub const WATERMARK: usize = 16;
/// Workers per locality.
pub const WORKERS: usize = 2;
/// The `nparcels` rungs the controller climbs, starting from the first.
/// On the full ladder the hill climber holds anything from 8 to 256 for
/// most of a run, depending on its first windows, and throughput follows
/// it (README.md), so no run-to-run bound could hold; on these two rungs
/// it moves little.
pub const LADDER: [usize; 2] = [128, 256];

/// The argument of request `id` bound for `dest`: the handler checks
/// that it runs at `dest`.
pub fn argument(id: usize, dest: u32) -> u64 {
    id as u64 * 4 + u64::from(dest)
}

/// Destinations of one step's requests, seeded.
pub fn destinations(seed: u64, step: u64) -> Vec<u32> {
    let zipf = Zipf::new(SERVERS, ZIPF_S);
    let mut g = SplitMix64::new(seed, 0x5ca1 ^ (step << 16));
    (0..N).map(|_| zipf.sample(&mut g)).collect()
}

struct Booted {
    rt: Arc<Runtime>,
    control: CoalescingControl,
    controller: PerDestController,
    /// When the controller started (its decisions are stamped from it).
    controller_t0: u64,
    action: rpx::ActionHandle<u64, ()>,
    stamps: Arc<Stamps>,
    /// Requests handled, and handled at a locality they were not sent to.
    handled: Arc<AtomicU64>,
    misrouted: Arc<AtomicU64>,
}

fn boot(setup: &mut SetupTimes) -> Result<Booted, String> {
    let t0 = now_ns();
    let rt = Runtime::try_new(RuntimeConfig {
        localities: SERVERS + 1,
        workers_per_locality: WORKERS,
        transport: TransportKind::Shm(rpx::ShmTuning::default()),
        backpressure_watermark: Some(WATERMARK),
        invocation_overhead: Duration::ZERO,
        ..RuntimeConfig::default()
    })
    .map_err(|e| format!("boot: {e}"))?;
    let t1 = now_ns();
    let stamps = Stamps::new(N);
    let handled = Arc::new(AtomicU64::new(0));
    let misrouted = Arc::new(AtomicU64::new(0));
    let (st, done, mis) = (
        Arc::clone(&stamps),
        Arc::clone(&handled),
        Arc::clone(&misrouted),
    );
    let action = rt
        .action(ACTION)
        .delivery(DeliveryClass::Lossless)
        .with_locality()
        .register(move |here: u32, arg: u64| {
            let id = (arg / 4) as usize;
            st.begin(id);
            if arg % 4 != u64::from(here) {
                mis.fetch_add(1, Ordering::Relaxed);
            }
            done.fetch_add(1, Ordering::Relaxed);
            st.finish(id);
        });
    let control = rt
        .enable_coalescing_per_destination(
            ACTION,
            CoalescingParams::new(LADDER[0], Duration::from_micros(1000)),
        )
        .map_err(|e| format!("enable_coalescing_per_destination: {e}"))?;
    let controller_t0 = now_ns();
    let controller = control.start_adaptive_per_dest(
        &rt,
        0,
        AdaptiveConfig {
            window: Duration::from_millis(10),
            warmup_windows: 1,
            ladder: Ladder::new(LADDER.to_vec()),
            ..AdaptiveConfig::default()
        },
    );
    setup.record(t0, t1, now_ns());
    Ok(Booted {
        rt,
        control,
        controller,
        controller_t0,
        action,
        stamps,
        handled,
        misrouted,
    })
}

fn send_fn(action: rpx::ActionHandle<u64, ()>, seed: u64) -> SendFn {
    Arc::new(move |ctx, plan| {
        let dests = destinations(seed, plan.step);
        let mut out = SenderOut::new(ctx.locality(), N, plan.traced);
        for (id, &dest) in dests.iter().enumerate() {
            out.ids.push(id);
            out.dests.push(dest);
            out.issue.push(now_ns());
            ctx.apply(&action, dest, argument(id, dest));
            if plan.traced {
                out.ret.push(now_ns());
            }
        }
        // One-way: nothing to wait for here; the step waits for
        // quiescence.
        out.sent = now_ns();
        out.waited = out.sent;
        out.end = out.sent;
        out
    })
}

/// Run skew-adaptive for `args`.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup = SetupTimes::default();
    let b = match boot(&mut setup) {
        Ok(b) => b,
        Err(e) => {
            outcome.fail(e);
            return outcome;
        }
    };
    let callers = Callers::new(&b.rt, &[0], send_fn(b.action.clone(), args.seed));
    let mut acc = Acc::new(Arc::clone(&b.stamps), N, 1, 1_000_000);
    let actions = [ACTION, "rpx::set-lco"];
    let (before, after, wall) =
        closed_loop::drive(&b.rt, &actions, &mut acc, 1.0, args, &mut outcome, |plan| {
            let handled0 = b.handled.load(Ordering::Relaxed);
            let t0 = now_ns();
            let outs = callers.step(plan);
            let d0 = now_ns();
            b.control.flush();
            let f1 = now_ns();
            // The step ends when every request was handled. Not
            // `wait_quiescent`: it does not see a batch the flush timer
            // has taken from a coalescing queue but not yet handed to
            // egress, and can return before that batch is sent.
            let deadline = f1 + 10_000_000_000;
            while b.handled.load(Ordering::Relaxed) - handled0 < N as u64 && now_ns() < deadline {
                std::thread::sleep(Duration::from_micros(50));
            }
            let t1 = now_ns();
            let mut outs = outs;
            // Counted as failures by the step check.
            outs[0].wrong += b.misrouted.swap(0, Ordering::Relaxed);
            (
                t0,
                t1,
                outs,
                StepExtra {
                    drain: Some((d0, f1, t1)),
                },
            )
        });
    let measured_end = now_ns();
    drop(callers);
    let decisions = b.controller.stop();
    outcome.attempted = acc.attempted;
    outcome.failed = acc.failed + layers::wire_failures(&before, &after);

    acc.e2e(&mut outcome.e2e);
    if args.trace {
        let l = &mut outcome.layers;
        layers::counter_metrics(
            &before,
            &after,
            acc.measured_ops() as f64,
            f64::from(SERVERS + 1) * WORKERS as f64,
            wall,
            l,
        );
        let (encode_ns, decode_ns) = layers::serialize_cost(&(N as u64 / 2), l);
        let table = acc.layers(encode_ns, decode_ns, l);
        // Decisions made in the measured interval; the final nparcels of
        // each server is its last decision (or the first rung if none).
        let measured_start = measured_end - (wall * 1e9) as u64;
        let at = |d: &rpx::DestDecision| b.controller_t0 + d.decision.at.as_nanos() as u64;
        let last = |dest: u32| {
            decisions
                .iter()
                .rev()
                .find(|d| d.dest == dest)
                .map_or(LADDER[0], |d| d.decision.nparcels) as f64
        };
        l.set(
            "adaptive.decisions",
            decisions.iter().filter(|d| at(d) >= measured_start).count() as f64,
        );
        l.set("adaptive.nparcels.hot", last(1));
        l.set("adaptive.nparcels.cold", last(2));
        let first = decisions
            .iter()
            .map(|d| d.decision.at)
            .min()
            .unwrap_or_default();
        l.set("adaptive.first_decision_ms", first.as_secs_f64() * 1e3);
        let overhead = l.get("trace.overhead_frac").unwrap_or(0.0);
        let e2e = l.get("e2e_us_per_op").unwrap_or(0.0);
        outcome.notes.push(table.render(e2e, overhead));
        outcome.notes.push(format!(
            "  controller: {} decisions in the run, final nparcels hot {} cold {}",
            decisions.len(),
            last(1),
            last(2)
        ));
        let mut held: std::collections::BTreeMap<usize, usize> = Default::default();
        for d in decisions.iter().filter(|d| d.dest == 1) {
            *held.entry(d.decision.nparcels).or_default() += 1;
        }
        outcome.notes.push(format!(
            "  hot destination, decisions per nparcels: {held:?}"
        ));
        crate::write_spans(&args.workload, &acc.spans, &mut outcome);
    }
    outcome.notes.push(acc.notes());
    b.rt.shutdown();
    drop((b.rt, b.control, b.action, b.stamps));
    // More boots for the set-up median, after the memory peak was read.
    for _ in 1..SETUP_BOOTS {
        match boot(&mut setup) {
            Ok(b) => {
                b.controller.stop();
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
    fn destinations_are_seeded_and_skewed() {
        let a = destinations(5, 3);
        assert_eq!(a, destinations(5, 3));
        assert_ne!(a, destinations(6, 3));
        let hot = a.iter().filter(|&&d| d == 1).count();
        assert!(a.iter().all(|&d| d == 1 || d == 2));
        assert!(hot > N * 6 / 10 && hot < N * 8 / 10, "{hot}");
    }
}
