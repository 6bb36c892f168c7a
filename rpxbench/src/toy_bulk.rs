//! `toy-bulk`: Listing 1 of the paper as a closed loop on shm.
//!
//! Two localities with one worker each; two blocked caller threads. Each
//! step both callers issue `n` `async_action` round trips of one
//! `Complex64` to the other locality, `wait_all`, and the step ends once
//! the coalescers are flushed and the runtime is quiescent. Coalescing is
//! static at `nparcels` 64.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpx::{CoalescingControl, CoalescingParams, Complex64, Runtime, RuntimeConfig, TransportKind};

use crate::clock::now_ns;
use crate::closed_loop::{self, Acc, Callers, SendFn, SenderOut, Stamps, StepExtra};
use crate::report::Outcome;
use crate::{layers, Args, SetupTimes};

/// The value every future must carry (Listing 1).
pub const EXPECTED: Complex64 = Complex64 {
    re: 13.3,
    im: -23.8,
};
/// The coalesced action.
pub const ACTION: &str = "bench::toy";
/// Boots timed per run for `setup_s` (their median). Each shm boot
/// allocates (and keeps) about 25 MB of rings, which bounds the count.
pub const SETUP_BOOTS: usize = 9;

/// Round trips per caller per step.
pub const N: usize = 4096;
/// Parcels per coalesced message (static).
pub const NPARCELS: usize = 64;

fn params() -> CoalescingParams {
    CoalescingParams::new(NPARCELS, Duration::from_micros(1000))
}

/// Knobs of a toy-bulk run that the benchmark keeps fixed and the
/// sensitivity check varies.
#[derive(Debug, Clone)]
pub struct ToyBulk {
    /// Extra busy time in every handler body (0 in the benchmark).
    pub extra_handler_cost: Duration,
    /// Warm-up before measuring, seconds.
    pub warmup: f64,
}

impl Default for ToyBulk {
    fn default() -> Self {
        ToyBulk {
            extra_handler_cost: Duration::ZERO,
            warmup: 1.0,
        }
    }
}

struct Booted {
    rt: Arc<Runtime>,
    control: CoalescingControl,
    stamps: Arc<Stamps>,
    calls: Arc<AtomicU64>,
    action: rpx::ActionHandle<Complex64, Complex64>,
}

fn argument(seed: u64) -> f64 {
    (seed % 1_000_003) as f64 + 0.25
}

fn boot(cfg: &ToyBulk, seed: u64, setup: &mut SetupTimes) -> Result<Booted, String> {
    let t0 = now_ns();
    let rt = Runtime::try_new(RuntimeConfig {
        localities: 2,
        workers_per_locality: 1,
        transport: TransportKind::Shm(rpx::ShmTuning::default()),
        invocation_overhead: Duration::ZERO,
        ..RuntimeConfig::default()
    })
    .map_err(|e| format!("boot: {e}"))?;
    let t1 = now_ns();
    let stamps = Stamps::new(2 * N);
    let calls = Arc::new(AtomicU64::new(0));
    let (st, c, extra, re) = (
        Arc::clone(&stamps),
        Arc::clone(&calls),
        cfg.extra_handler_cost,
        argument(seed),
    );
    let action = rt.action(ACTION).register(move |z: Complex64| {
        let id = z.im as usize;
        st.begin(id);
        crate::spin_for(extra);
        c.fetch_add(1, Ordering::Relaxed);
        let out = if z.re == re {
            EXPECTED
        } else {
            Complex64::new(f64::NAN, f64::NAN)
        };
        st.finish(id);
        out
    });
    let control = rt
        .enable_coalescing(ACTION, params())
        .map_err(|e| format!("enable_coalescing: {e}"))?;
    setup.record(t0, t1, now_ns());
    Ok(Booted {
        rt,
        control,
        stamps,
        calls,
        action,
    })
}

fn send_fn(b: &Booted, seed: u64) -> SendFn {
    let n = N;
    let (action, re) = (b.action.clone(), argument(seed));
    Arc::new(move |ctx, plan| {
        let me = ctx.locality();
        let dest = 1 - me;
        let mut out = SenderOut::new(me, n, plan.traced);
        let mut futures = Vec::with_capacity(n);
        for i in 0..n {
            let id = me as usize * n + i;
            out.ids.push(id);
            out.dests.push(dest);
            out.issue.push(now_ns());
            futures.push(ctx.async_action(&action, dest, Complex64::new(re, id as f64)));
            if plan.traced {
                out.ret.push(now_ns());
            }
        }
        out.sent = now_ns();
        match ctx.wait_all(futures) {
            Ok(values) => out.wrong = values.iter().filter(|v| **v != EXPECTED).count() as u64,
            Err(_) => out.failed = n as u64,
        }
        out.waited = now_ns();
        out.end = out.waited;
        out
    })
}

/// Run toy-bulk for `args`, with `cfg` as its shape.
pub fn run_with(args: &Args, cfg: &ToyBulk) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup = SetupTimes::default();
    let b = match boot(cfg, args.seed, &mut setup) {
        Ok(b) => b,
        Err(e) => {
            outcome.fail(e);
            return outcome;
        }
    };
    let callers = Callers::new(&b.rt, &[0, 1], send_fn(&b, args.seed));
    let mut acc = Acc::new(Arc::clone(&b.stamps), 2 * N, 2, 1_000_000);
    let actions = [ACTION, "rpx::set-lco"];
    let (before, after, wall) = closed_loop::drive(
        &b.rt,
        &actions,
        &mut acc,
        cfg.warmup,
        args,
        &mut outcome,
        |plan| {
            let calls0 = b.calls.load(Ordering::Relaxed);
            let t0 = now_ns();
            let outs = callers.step(plan);
            let d0 = now_ns();
            b.control.flush();
            let f1 = now_ns();
            if !b.rt.wait_quiescent(Duration::from_secs(10)) {
                eprintln!("toy-bulk: step {} did not quiesce", plan.step);
            }
            let t1 = now_ns();
            let calls = b.calls.load(Ordering::Relaxed) - calls0;
            let mut outs = outs;
            if calls != 2 * N as u64 {
                // Counted as failures by the step check below.
                outs[0].wrong += (2 * N as u64).abs_diff(calls);
            }
            (
                t0,
                t1,
                outs,
                StepExtra {
                    drain: Some((d0, f1, t1)),
                },
            )
        },
    );
    drop(callers);
    outcome.attempted = acc.attempted;
    outcome.failed = acc.failed + layers::wire_failures(&before, &after);

    acc.e2e(&mut outcome.e2e);
    if args.trace {
        layers::counter_metrics(
            &before,
            &after,
            acc.measured_ops() as f64,
            2.0,
            wall,
            &mut outcome.layers,
        );
        let arg = Complex64::new(argument(args.seed), 1.0);
        let (encode_ns, decode_ns) = layers::serialize_cost(&arg, &mut outcome.layers);
        let table = acc.layers(encode_ns, decode_ns, &mut outcome.layers);
        crate::no_controller(&mut outcome.layers);
        let overhead = outcome.layers.get("trace.overhead_frac").unwrap_or(0.0);
        let e2e = outcome.layers.get("e2e_us_per_op").unwrap_or(0.0);
        outcome.notes.push(table.render(e2e, overhead));
        crate::write_spans(&args.workload, &acc.spans, &mut outcome);
    }
    outcome.notes.push(acc.notes());
    b.rt.shutdown();
    // More boots for the set-up median, after the memory peak was read.
    for _ in 1..SETUP_BOOTS {
        match boot(cfg, args.seed, &mut setup) {
            Ok(b) => b.rt.shutdown(),
            Err(e) => outcome.fail(e),
        }
    }
    setup.report(&mut outcome);
    outcome
}

/// Run toy-bulk at the benchmark's shape.
pub fn run(args: &Args) -> Outcome {
    run_with(args, &ToyBulk::default())
}
