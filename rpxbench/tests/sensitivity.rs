//! The benchmark must see a cost added to one layer, and put it in that
//! layer: a fixed extra cost in every toy-bulk handler body has to move
//! `throughput_per_s` past its bound, and show up in `handler_us` rather
//! than in the cross-layer `transit_us`.

use std::time::Duration;

use rpxbench::toy_bulk::{self, ToyBulk};
use rpxbench::{catalog, Args};

fn run(extra: Duration) -> rpxbench::report::Outcome {
    let args = Args {
        workload: "toy-bulk".into(),
        seed: 3,
        seconds: 2.0,
        trace: true,
    };
    let cfg = ToyBulk {
        extra_handler_cost: extra,
        warmup: 0.3,
    };
    let out = toy_bulk::run_with(&args, &cfg);
    assert!(out.correct(), "checks failed: {:?}", out.check_failures);
    out
}

#[test]
fn extra_handler_cost_moves_throughput_and_lands_in_handler_time() {
    let extra = Duration::from_micros(5);
    let base = run(Duration::ZERO);
    let slow = run(extra);
    let get = |o: &rpxbench::report::Outcome, name: &str| {
        o.e2e.get(name).or_else(|| o.layers.get(name)).expect(name)
    };

    for name in ["throughput_per_s", "handler_us", "transit_us.p50"] {
        eprintln!("{name}: {:.3} -> {:.3}", get(&base, name), get(&slow, name));
    }
    let bound = catalog::bound_of("throughput_per_s").unwrap();
    let (tp0, tp1) = (
        get(&base, "throughput_per_s"),
        get(&slow, "throughput_per_s"),
    );
    assert!(
        tp1 < tp0 * (1.0 - bound),
        "throughput {tp0:.0}/s -> {tp1:.0}/s did not move past the {bound} bound"
    );

    let extra_us = extra.as_secs_f64() * 1e6;
    let (h0, h1) = (get(&base, "handler_us"), get(&slow, "handler_us"));
    assert!(
        h1 - h0 >= 0.9 * extra_us,
        "handler_us {h0:.3} -> {h1:.3} does not hold the added {extra_us} us"
    );

    // Requests queued behind slower handler bodies wait longer, but that
    // wait is handler time at the destination, which transit excludes.
    // Charged to transit it would add about half a step's extra handler
    // time, n/2 * extra, to the median.
    let queued_us = toy_bulk::N as f64 / 2.0 * extra_us;
    let (t0, t1) = (get(&base, "transit_us.p50"), get(&slow, "transit_us.p50"));
    assert!(
        t1 - t0 < 0.25 * queued_us,
        "transit_us.p50 {t0:.1} -> {t1:.1} absorbed the handler cost (queued {queued_us:.0} us)"
    );
}
