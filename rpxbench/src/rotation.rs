//! `rotation-tcp`: the Parquet BSP rotation as a closed loop on TCP.
//!
//! Three localities on TCP loopback with one worker each and one blocked
//! caller thread per locality. Each iteration sends `8·Nc²` rows of `Nc`
//! `Complex64` all to all (each locality its third, round robin over its
//! peers), waits for every acknowledgement and meets the others at a
//! barrier. No compute spin: the step is communication only.

use std::sync::Arc;
use std::time::Duration;

use rpx::{Barrier, CoalescingParams, Complex64, Runtime, RuntimeConfig, TransportKind};

use crate::clock::now_ns;
use crate::closed_loop::{self, Acc, Callers, SendFn, SenderOut, Stamps, StepExtra};
use crate::report::Outcome;
use crate::{layers, Args, SetupTimes, SplitMix64};

/// The coalesced action.
pub const ACTION: &str = "bench::rotate";
/// Boots timed per run for `setup_s` (their median). A TCP boot takes
/// well under a millisecond, so many are cheap and steady the median.
pub const SETUP_BOOTS: usize = 400;
/// Localities.
pub const LOCALITIES: u32 = 3;
/// Parcels per coalesced message.
pub const NPARCELS: usize = 4;
/// Row length (24 × 16 B = 384 B rows).
pub const NC: usize = 24;

/// Rows each locality sends per iteration.
pub fn rows_per_locality() -> usize {
    8 * NC * NC / LOCALITIES as usize
}

/// The seeded offset of one row: element `k` is `a + k`, so the row's
/// real sum is `NC·a + NC(NC−1)/2` in closed form (exact in `f64`).
pub fn row_offset(seed: u64, locality: u32, step: u64, i: usize) -> f64 {
    let mut g = SplitMix64::new(seed, (step << 24) ^ ((locality as u64) << 20) ^ i as u64);
    (g.next_u64() % 4096) as f64
}

/// The closed-form real sum of a row with offset `a`.
pub fn row_sum(a: f64) -> f64 {
    NC as f64 * a + (NC * (NC - 1) / 2) as f64
}

struct Booted {
    rt: Arc<Runtime>,
    action: rpx::ActionHandle<Vec<Complex64>, f64>,
    stamps: Arc<Stamps>,
}

fn boot(setup: &mut SetupTimes) -> Result<Booted, String> {
    let t0 = now_ns();
    let rt = Runtime::try_new(RuntimeConfig {
        localities: LOCALITIES,
        workers_per_locality: 1,
        transport: TransportKind::TcpLoopback,
        invocation_overhead: Duration::ZERO,
        ..RuntimeConfig::default()
    })
    .map_err(|e| format!("boot: {e}"))?;
    let t1 = now_ns();
    let stamps = Stamps::new(LOCALITIES as usize * rows_per_locality());
    let st = Arc::clone(&stamps);
    let action = rt.action(ACTION).register(move |row: Vec<Complex64>| {
        let id = row.first().map_or(usize::MAX, |c| c.im as usize);
        st.begin(id);
        let sum = if row.len() == NC && row.iter().all(|c| c.im as usize == id) {
            row.iter().map(|c| c.re).sum::<f64>()
        } else {
            f64::NAN
        };
        st.finish(id);
        sum
    });
    rt.enable_coalescing(
        ACTION,
        CoalescingParams::new(NPARCELS, Duration::from_micros(4000)),
    )
    .map_err(|e| format!("enable_coalescing: {e}"))?;
    setup.record(t0, t1, now_ns());
    Ok(Booted { rt, action, stamps })
}

fn send_fn(
    action: rpx::ActionHandle<Vec<Complex64>, f64>,
    barrier: Arc<Barrier>,
    seed: u64,
) -> SendFn {
    let n = rows_per_locality();
    Arc::new(move |ctx, plan| {
        let me = ctx.locality();
        let peers = ctx.find_remote_localities();
        let mut out = SenderOut::new(me, n, plan.traced);
        let mut futures = Vec::with_capacity(n);
        let mut expected = Vec::with_capacity(n);
        for i in 0..n {
            let id = me as usize * n + i;
            let dest = peers[i % peers.len()];
            let a = row_offset(seed, me, plan.step, i);
            let row: Vec<Complex64> = (0..NC)
                .map(|k| Complex64::new(a + k as f64, id as f64))
                .collect();
            expected.push(row_sum(a));
            out.ids.push(id);
            out.dests.push(dest);
            out.issue.push(now_ns());
            futures.push(ctx.async_action(&action, dest, row));
            if plan.traced {
                out.ret.push(now_ns());
            }
        }
        out.sent = now_ns();
        match ctx.wait_all(futures) {
            Ok(sums) => {
                out.wrong = sums.iter().zip(&expected).filter(|(s, e)| s != e).count() as u64;
            }
            Err(_) => out.failed = n as u64,
        }
        out.waited = now_ns();
        barrier.arrive_and_wait_with(|| ctx.pump());
        out.end = now_ns();
        out
    })
}

/// Run rotation-tcp for `args`.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup = SetupTimes::default();
    let Booted { rt, action, stamps } = match boot(&mut setup) {
        Ok(b) => b,
        Err(e) => {
            outcome.fail(e);
            return outcome;
        }
    };
    let barrier = Arc::new(Barrier::new(LOCALITIES as usize));
    let callers = Callers::new(&rt, &[0, 1, 2], send_fn(action, barrier, args.seed));
    let mut acc = Acc::new(
        Arc::clone(&stamps),
        LOCALITIES as usize * rows_per_locality(),
        2,
        500_000,
    );
    let actions = [ACTION, "rpx::set-lco"];
    let (before, after, wall) =
        closed_loop::drive(&rt, &actions, &mut acc, 1.0, args, &mut outcome, |plan| {
            let t0 = now_ns();
            let outs = callers.step(plan);
            (t0, now_ns(), outs, StepExtra::default())
        });
    drop(callers);
    outcome.attempted = acc.attempted;
    outcome.failed = acc.failed + layers::wire_failures(&before, &after);

    acc.e2e(&mut outcome.e2e);
    if args.trace {
        let workers = f64::from(LOCALITIES);
        layers::counter_metrics(
            &before,
            &after,
            acc.measured_ops() as f64,
            workers,
            wall,
            &mut outcome.layers,
        );
        let row: Vec<Complex64> = (0..NC).map(|k| Complex64::new(k as f64, 7.0)).collect();
        let (encode_ns, decode_ns) = layers::serialize_cost(&row, &mut outcome.layers);
        let table = acc.layers(encode_ns, decode_ns, &mut outcome.layers);
        crate::no_controller(&mut outcome.layers);
        let overhead = outcome.layers.get("trace.overhead_frac").unwrap_or(0.0);
        let e2e = outcome.layers.get("e2e_us_per_op").unwrap_or(0.0);
        outcome.notes.push(table.render(e2e, overhead));
        crate::write_spans(&args.workload, &acc.spans, &mut outcome);
    }
    outcome.notes.push(acc.notes());
    rt.shutdown();
    // More boots for the set-up median, after the memory peak was read.
    for _ in 1..SETUP_BOOTS {
        match boot(&mut setup) {
            Ok(b) => b.rt.shutdown(),
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
    fn closed_form_matches_the_row() {
        let a = row_offset(7, 1, 3, 11);
        let direct: f64 = (0..NC).map(|k| a + k as f64).sum();
        assert_eq!(direct, row_sum(a));
        assert_eq!(rows_per_locality() * LOCALITIES as usize, 8 * NC * NC);
    }
}
