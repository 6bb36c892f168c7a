//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`--catalog`), and a
//! test keeps the two identical.

/// A workload and why it exists.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on which layers it stresses.
    pub why: &'static str,
}

/// The workloads `BENCHMARK.json` lists: the ones steady enough to gate
/// a change.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "toy-bulk",
        why:
            "closed loop, Listing 1 on shm: tiny args at nparcels 64, so per-parcel software cost \
              (AGAS, LCO, coalescer, encode, ingress spawn) dominates and timer/controller sit idle",
    },
    Workload {
        name: "rotation-tcp",
        why: "closed loop, Parquet BSP on 3-locality TCP: 384 B rows at nparcels 4 make serialize \
              and event-loop syscalls heavy; the barrier lets the slowest locality set step time",
    },
    Workload {
        name: "skew-adaptive",
        why: "closed loop, Zipf 1.2 one-way Lossless requests from 1 shm locality to 2: the \
              per-destination controller steers nparcels and the egress watermark holds the sender",
    },
];

/// Workloads the command runs but `BENCHMARK.json` does not list,
/// because their end-to-end figures are not steady enough to gate on
/// (README.md gives the measurements).
pub const UNGATED: &[Workload] = &[Workload {
    name: "service-skew",
    why: "open loop with its own generator thread, Zipf 1.2 to 2 shm servers, 10x bursts, \
          Lossless, watermark and per-destination controller on; exercises bypass, timer, \
          controller and admission",
}];

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, reported by untraced runs.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics. Every workload reports every one; README.md
/// gives the definition on each workload.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_per_s", "1/s", Better::Higher, 0.25),
    e2e("step_p50_ms", "ms", Better::Lower, 0.25),
    e2e("step_p90_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.1),
];

/// End-to-end metrics of the open-loop schedule, reported by
/// `service-skew` only and therefore not in `BENCHMARK.json` (no listed
/// workload has an open-loop schedule): `(name, unit)`.
pub const OPEN_LOOP: &[(&str, &str)] = &[
    ("lat_p50_us.base", "us"),
    ("lat_p99_us.base", "us"),
    ("lat_p50_us.burst", "us"),
    ("lat_p99_us.burst", "us"),
    ("max_rate_per_s", "1/s"),
    ("gen_lag_p99_us", "us"),
];

/// Whether a per-layer count repeats exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeat {
    /// Fixed by the seed and the workload's shape (parcels, serialize
    /// bytes): a claim may rest on it.
    Exact,
    /// Depends on timing (coalesced message counts, wakeups, timer
    /// firings): compare distributions, never single values.
    Timing,
}

/// A per-layer metric, reported by traced runs.
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Repeatability for a seed.
    pub repeat: Repeat,
}

const fn pl(name: &'static str, unit: &'static str, better: Better, repeat: Repeat) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        repeat,
    }
}

use Better::{Higher as H, Lower as L};
use Repeat::{Exact as X, Timing as T};

/// The per-layer metrics, grouped by workspace crate.
pub const PER_LAYER: &[PerLayer] = &[
    // rpx (core)
    pl("core.boot_ms", "ms", L, T),
    pl("core.register_ms", "ms", L, T),
    pl("core.drain_ms", "ms", L, T),
    // rpx-threading
    pl("threading.admit_us.p50", "us", L, T),
    pl("threading.admit_us.p99", "us", L, T),
    pl("threading.tasks_per_op", "1/op", L, T),
    pl("threading.exec_busy_frac", "frac", L, T),
    pl("threading.background_busy_frac", "frac", L, T),
    pl("threading.idle_rate", "frac", H, T),
    pl("threading.tasks_per_spawn_batch", "1/batch", H, T),
    pl("threading.wakeups_skipped_per_task", "1/task", H, T),
    // rpx-parcel
    pl("parcel.send_call_ns.p50", "ns", L, T),
    pl("parcel.send_call_ns.p99", "ns", L, T),
    pl("parcel.parcels_per_message", "1/msg", H, T),
    pl("parcel.admission_blocked_ms", "ms", L, T),
    pl("parcel.admission_events", "count", L, T),
    pl("parcel.shed", "count", L, X),
    pl("parcel.parcels_per_op", "1/op", H, X),
    // rpx-coalesce
    pl("coalesce.parcels_per_message", "1/msg", H, T),
    pl("coalesce.messages", "count", L, T),
    pl("coalesce.flush_call_us", "us", L, T),
    // cross-layer transit, send-call return to handler start
    pl("transit_us.p50", "us", L, T),
    pl("transit_us.p99", "us", L, T),
    // rpx-net
    pl("net.messages_per_op", "1/op", L, T),
    pl("net.bytes_per_op", "B/op", L, T),
    pl("net.writev_frames_per_wakeup", "1/wakeup", H, T),
    pl("net.readv_batches", "count", L, T),
    pl("net.shm_messages", "count", L, T),
    pl("net.shm_doorbell_wakeups_per_msg", "1/msg", L, T),
    pl("net.retransmits", "count", L, X),
    pl("net.delivery_failures", "count", L, X),
    pl("net.decode_failures", "count", L, X),
    // rpx-serialize
    pl("serialize.encode_ns", "ns", L, T),
    pl("serialize.decode_ns", "ns", L, T),
    pl("serialize.bytes", "B", L, X),
    // rpx-lco
    pl("lco.wait_all_ms", "ms", L, T),
    pl("lco.barrier_ms", "ms", L, T),
    pl("lco.skew_ms", "ms", L, T),
    // rpx-util timer
    pl("timer.fired", "count", L, T),
    pl("timer.cancelled", "count", L, T),
    pl("timer.mean_late_us", "us", L, T),
    pl("timer.max_late_us", "us", L, T),
    // rpx-adaptive
    pl("adaptive.decisions", "count", L, T),
    pl("adaptive.nparcels.hot", "count", H, T),
    pl("adaptive.nparcels.cold", "count", L, T),
    pl("adaptive.first_decision_ms", "ms", L, T),
    // the benchmark's own handler bodies, kept out of the residual
    pl("handler_us", "us", L, T),
    // the split itself
    pl("e2e_us_per_op", "us", L, T),
    pl("residual_us_per_op", "us", L, T),
    pl("trace.overhead_frac", "frac", L, T),
];

/// The unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(OPEN_LOOP.iter().copied())
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// The bound of an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound)
}

/// Run length the benchmark is measured at.
pub const RUN_SECONDS: u32 = 35;

/// The `BENCHMARK.json` document for these tables.
pub fn benchmark_json() -> String {
    let q = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [{}],\n",
        [
            "cargo",
            "run",
            "--quiet",
            "--offline",
            "--release",
            "--manifest-path",
            "rpxbench/Cargo.toml",
            "--",
        ]
        .iter()
        .map(|s| q(s))
        .collect::<Vec<_>>()
        .join(", ")
    ));
    out.push_str("  \"paths\": [\"rpxbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    q(m.name),
                    q(m.unit),
                    q(m.better.as_str()),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    q(m.name),
                    q(m.unit),
                    q(m.better.as_str())
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in WORKLOADS.iter().chain(UNGATED) {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.why);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(OPEN_LOOP.iter().copied())
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `rpxbench --catalog`"
        );
    }
}
