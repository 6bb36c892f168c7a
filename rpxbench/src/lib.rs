//! End-to-end and per-layer benchmark of the RPX runtime.
//!
//! Four workloads run through the public `rpx` API on real transports
//! (shared-memory rings and TCP loopback, never the simulated fabric):
//!
//! * `toy-bulk` — closed loop, Listing 1 of the paper: bulk round trips
//!   of one `Complex64` between two localities on shm.
//! * `rotation-tcp` — closed loop, the Parquet BSP rotation: 384-byte
//!   rows all-to-all between three localities on TCP, barrier per
//!   iteration.
//! * `skew-adaptive` — closed loop: Zipf-skewed round trips from one
//!   locality to two on shm, with the per-destination controller and the
//!   egress backpressure watermark on.
//! * `service-skew` — open loop: an external generator thread hands
//!   Zipf-skewed requests to locality 0 on a base/burst schedule.
//!
//! The layers are measured from outside: spans around the benchmark's
//! own calls into `rpx`, counter deltas read with `Runtime::query`, the
//! flush timer's accuracy statistics, and the per-destination
//! controller's decision log. See `README.md` for every metric.

pub mod catalog;
pub mod clock;
pub mod closed_loop;
pub mod layers;
pub mod report;
pub mod rotation;
pub mod service;
pub mod skew_adaptive;
pub mod stats;
pub mod toy_bulk;
pub mod trace;

use std::time::Duration;

use report::{Metrics, Outcome};

/// Command-line arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see [`catalog::WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// `false`: untraced run, end-to-end metrics. `true`: traced and
    /// untraced steps mixed on one runtime, per-layer metrics.
    pub trace: bool,
}

/// Busy-wait for `d` (the handler cost knob of the sensitivity check).
pub fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = std::time::Instant::now() + d;
    while std::time::Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Peak resident set size of this process in MiB: `ru_maxrss` of
/// `getrusage`, the kernel's `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on Linux: two `timeval`s, then 14 longs, the
    /// first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a writable struct of the size and layout the
    // call fills for RUSAGE_SELF.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.longs[0] as f64 / 1024.0
    } else {
        0.0
    }
}

/// SplitMix64: the benchmark's seeded input generator (inputs depend on
/// the seed only, never on the runtime).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Set-up times of the boots a run makes.
#[derive(Debug, Default)]
pub struct SetupTimes {
    boot_ms: Vec<f64>,
    register_ms: Vec<f64>,
    total_s: Vec<f64>,
}

impl SetupTimes {
    /// One boot: `Runtime::try_new` started at `t0` and returned at
    /// `booted`; registration, coalescing and controller start were done
    /// at `ready`, when the first op could be issued.
    pub fn record(&mut self, t0: u64, booted: u64, ready: u64) {
        self.boot_ms.push((booted - t0) as f64 / 1e6);
        self.register_ms.push((ready - booted) as f64 / 1e6);
        self.total_s.push((ready - t0) as f64 / 1e9);
    }

    /// Report the medians: `setup_s` end to end, `core.boot_ms` and
    /// `core.register_ms` per layer.
    pub fn report(&self, outcome: &mut Outcome) {
        outcome.e2e.set("setup_s", stats::median(&self.total_s));
        outcome
            .layers
            .set("core.boot_ms", stats::median(&self.boot_ms));
        outcome
            .layers
            .set("core.register_ms", stats::median(&self.register_ms));
    }
}

/// The adaptive-controller metrics of a workload that runs no
/// controller: nothing decided.
pub fn no_controller(m: &mut Metrics) {
    for name in [
        "adaptive.decisions",
        "adaptive.nparcels.hot",
        "adaptive.nparcels.cold",
        "adaptive.first_decision_ms",
    ] {
        m.set(name, 0.0);
    }
}

/// Where traced runs write their span record.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.csv"))
}

/// Write the span record and note where it went.
pub fn write_spans(workload: &str, spans: &trace::SpanLog, outcome: &mut Outcome) {
    let path = trace_path(workload);
    match spans.write_csv(&path) {
        Ok(()) => outcome.notes.push(format!(
            "  spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => outcome.notes.push(format!("  spans: not written ({e})")),
    }
}
