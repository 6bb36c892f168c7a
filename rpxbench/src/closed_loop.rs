//! The closed-loop harness shared by `toy-bulk` and `rotation-tcp`.
//!
//! One blocked caller thread per sending locality drives it with
//! `Runtime::run_on`; each step the callers issue their ops, wait for
//! every result and return their stamps. The harness turns the stamps of
//! every step into the end-to-end and per-layer figures.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use rpx::{Ctx, Runtime};

use crate::clock::now_ns;
use crate::report::{Metrics, Outcome};
use crate::stats::{mean, median, percentile};
use crate::trace::{Busy, LayerTable, SpanLog};

/// What one step asks of the callers.
#[derive(Debug, Clone, Copy)]
pub struct StepPlan {
    /// Step index (0-based, warm-up steps included).
    pub step: u64,
    /// Whether this step records send-call returns and handler ends.
    pub traced: bool,
}

/// One caller's stamps for one step.
#[derive(Debug, Default)]
pub struct SenderOut {
    /// Locality the caller drove.
    pub locality: u32,
    /// Taken on the caller thread just before `run_on`.
    pub handover: u64,
    /// First instruction of the driver closure.
    pub start: u64,
    /// Per op, in issue order: the op's global id within the step.
    pub ids: Vec<usize>,
    /// Per op: destination locality.
    pub dests: Vec<u32>,
    /// Per op: stamp before the send call.
    pub issue: Vec<u64>,
    /// Per op: stamp after the send call returned (traced steps).
    pub ret: Vec<u64>,
    /// After the last send call.
    pub sent: u64,
    /// After `wait_all` returned.
    pub waited: u64,
    /// After the step's barrier (equal to `waited` without one).
    pub end: u64,
    /// Results that did not match the expected value.
    pub wrong: u64,
    /// Ops whose future failed or timed out.
    pub failed: u64,
}

impl SenderOut {
    /// Fresh stamps for `n` ops on `locality`.
    pub fn new(locality: u32, n: usize, traced: bool) -> SenderOut {
        SenderOut {
            locality,
            start: now_ns(),
            ids: Vec::with_capacity(n),
            dests: Vec::with_capacity(n),
            issue: Vec::with_capacity(n),
            ret: if traced {
                Vec::with_capacity(n)
            } else {
                Vec::new()
            },
            ..SenderOut::default()
        }
    }
}

/// The step body a caller runs inside `run_on`.
pub type SendFn = Arc<dyn Fn(&Ctx, StepPlan) -> SenderOut + Send + Sync>;

/// Handler-side stamps, indexed by op id within a step.
pub struct Stamps {
    start: Vec<AtomicU64>,
    end: Vec<AtomicU64>,
    traced: AtomicBool,
    duplicates: AtomicU64,
    unknown: AtomicU64,
}

impl Stamps {
    /// A table for `ops` ops per step.
    pub fn new(ops: usize) -> Arc<Stamps> {
        Arc::new(Stamps {
            start: (0..ops).map(|_| AtomicU64::new(0)).collect(),
            end: (0..ops).map(|_| AtomicU64::new(0)).collect(),
            traced: AtomicBool::new(false),
            duplicates: AtomicU64::new(0),
            unknown: AtomicU64::new(0),
        })
    }

    /// Stamp a handler's first instruction for op `id`.
    pub fn begin(&self, id: usize) {
        match self.start.get(id) {
            Some(slot) => {
                if slot.swap(now_ns(), Ordering::Relaxed) != 0 {
                    self.duplicates.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.unknown.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Stamp a handler's last instruction (traced steps only).
    pub fn finish(&self, id: usize) {
        if self.traced.load(Ordering::Relaxed) {
            if let Some(slot) = self.end.get(id) {
                slot.store(now_ns(), Ordering::Relaxed);
            }
        }
    }

    fn reset(&self, traced: bool) {
        for s in self.start.iter().chain(&self.end) {
            s.store(0, Ordering::Relaxed);
        }
        self.traced.store(traced, Ordering::Relaxed);
    }
}

/// Long-lived blocked caller threads, one per sending locality.
pub struct Callers {
    cmds: Vec<mpsc::Sender<Option<StepPlan>>>,
    results: mpsc::Receiver<SenderOut>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Callers {
    /// One caller per locality in `localities`, each running `send`.
    pub fn new(rt: &Arc<Runtime>, localities: &[u32], send: SendFn) -> Callers {
        let (res_tx, results) = mpsc::channel();
        let mut cmds = Vec::new();
        let mut threads = Vec::new();
        for &loc in localities {
            let (tx, rx) = mpsc::channel::<Option<StepPlan>>();
            let (rt, send, res_tx) = (Arc::clone(rt), Arc::clone(&send), res_tx.clone());
            threads.push(
                std::thread::Builder::new()
                    .name(format!("caller{loc}"))
                    .spawn(move || {
                        while let Ok(Some(plan)) = rx.recv() {
                            let handover = now_ns();
                            let send = Arc::clone(&send);
                            let mut out = rt.run_on(loc, move |ctx| send(ctx, plan));
                            out.handover = handover;
                            if res_tx.send(out).is_err() {
                                return;
                            }
                        }
                    })
                    .expect("spawn caller"),
            );
            cmds.push(tx);
        }
        Callers {
            cmds,
            results,
            threads,
        }
    }

    /// Run one step on every caller; outputs sorted by locality.
    pub fn step(&self, plan: StepPlan) -> Vec<SenderOut> {
        for c in &self.cmds {
            c.send(Some(plan)).expect("caller alive");
        }
        let mut outs: Vec<SenderOut> = (0..self.cmds.len())
            .map(|_| self.results.recv().expect("caller result"))
            .collect();
        outs.sort_by_key(|o| o.locality);
        outs
    }
}

impl Drop for Callers {
    fn drop(&mut self) {
        for c in &self.cmds {
            let _ = c.send(None);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Extra step-level stamps a workload takes outside the callers.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepExtra {
    /// `(start, flush returned, end)` of the post-step drain, if any.
    pub drain: Option<(u64, u64, u64)>,
}

/// Steps per window of the end-to-end figures: a spell of host noise
/// moves the windows it falls in, not the run's median over windows.
/// A hundred steps leave ten beyond each window's p90.
pub const WINDOW_STEPS: usize = 100;

/// Everything accumulated over the measured steps.
pub struct Acc {
    stamps: Arc<Stamps>,
    ops_per_step: usize,
    parcels_per_op: u64,
    rss_after_ops: u64,
    rss_mb: Option<f64>,
    measured_ops: u64,
    untraced_step_ns: Vec<f64>,
    traced_step_ns: Vec<f64>,
    traced_handover_us: Vec<f64>,
    send_call_ns: Vec<f64>,
    transit_self_us: Vec<f64>,
    dest_busy_us: Vec<f64>,
    handler_us: Vec<f64>,
    e2e_us: Vec<f64>,
    wait_all_ms: Vec<f64>,
    barrier_ms: Vec<f64>,
    skew_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    flush_us: Vec<f64>,
    /// Ops attempted over the warm-up and measured steps.
    pub attempted: u64,
    /// Ops lost, wrong or failed.
    pub failed: u64,
    /// Span record.
    pub spans: SpanLog,
}

impl Acc {
    /// An accumulator for steps of `ops_per_step` ops of
    /// `parcels_per_op` parcels each (2 for a round trip: the request and
    /// the continuation carrying its result back). Peak memory is read
    /// once `rss_after_ops` ops are measured, so it does not grow with
    /// throughput.
    pub fn new(
        stamps: Arc<Stamps>,
        ops_per_step: usize,
        parcels_per_op: u64,
        rss_after_ops: u64,
    ) -> Acc {
        Acc {
            stamps,
            ops_per_step,
            parcels_per_op,
            rss_after_ops,
            rss_mb: None,
            measured_ops: 0,
            untraced_step_ns: Vec::new(),
            traced_step_ns: Vec::new(),
            traced_handover_us: Vec::new(),
            send_call_ns: Vec::new(),
            transit_self_us: Vec::new(),
            dest_busy_us: Vec::new(),
            handler_us: Vec::new(),
            e2e_us: Vec::new(),
            wait_all_ms: Vec::new(),
            barrier_ms: Vec::new(),
            skew_ms: Vec::new(),
            drain_ms: Vec::new(),
            flush_us: Vec::new(),
            attempted: 0,
            failed: 0,
            spans: SpanLog::default(),
        }
    }

    /// Check one step's outputs, warm-up steps included: every op
    /// reached its handler once with the right result.
    pub fn check(&mut self, plan: StepPlan, outs: &[SenderOut], outcome: &mut Outcome) {
        self.attempted += self.ops_per_step as u64;
        let stamps = &self.stamps;
        let hstart = |id: usize| stamps.start[id].load(Ordering::Relaxed);
        let mut failed = 0u64;
        for o in outs {
            failed += o.wrong + o.failed;
            failed += o.ids.iter().filter(|&&id| hstart(id) == 0).count() as u64;
        }
        failed += stamps.duplicates.swap(0, Ordering::Relaxed)
            + stamps.unknown.swap(0, Ordering::Relaxed);
        if failed > 0 {
            outcome.fail(format!(
                "step {}: {failed} ops lost, duplicated or wrong",
                plan.step
            ));
        }
        self.failed += failed;
    }

    /// Check and absorb one measured step: `t0..t1` is its wall interval.
    pub fn absorb(
        &mut self,
        plan: StepPlan,
        t0: u64,
        t1: u64,
        outs: &[SenderOut],
        extra: StepExtra,
        outcome: &mut Outcome,
    ) {
        self.check(plan, outs, outcome);
        self.measured_ops += self.ops_per_step as u64;
        if self.rss_mb.is_none() && self.measured_ops >= self.rss_after_ops {
            self.rss_mb = Some(crate::peak_rss_mb());
        }
        let stamps = Arc::clone(&self.stamps);
        let hstart = |id: usize| stamps.start[id].load(Ordering::Relaxed);
        let hend = |id: usize| stamps.end[id].load(Ordering::Relaxed);

        let step_ns = (t1 - t0) as f64;
        if !plan.traced {
            self.untraced_step_ns.push(step_ns);
            return;
        }

        self.traced_step_ns.push(step_ns);
        self.traced_handover_us.extend(
            outs.iter()
                .map(|o| o.start.saturating_sub(o.handover) as f64 / 1e3),
        );
        let step_span = self.spans.record("step", t0, t1, 0, 0);
        for o in outs {
            self.spans
                .record("handover", o.handover, o.start, step_span, 0);
            self.spans
                .record("send_phase", o.start, o.sent, step_span, 0);
            self.spans
                .record("wait_all", o.sent, o.waited, step_span, 0);
            if o.end > o.waited {
                self.spans.record("barrier", o.waited, o.end, step_span, 0);
            }
            self.wait_all_ms
                .push(o.waited.saturating_sub(o.sent) as f64 / 1e6);
            self.barrier_ms
                .push(o.end.saturating_sub(o.waited) as f64 / 1e6);
        }
        if let (Some(max), Some(min)) = (
            outs.iter().map(|o| o.sent).max(),
            outs.iter().map(|o| o.sent).min(),
        ) {
            self.skew_ms.push((max - min) as f64 / 1e6);
        }
        if let Some((d0, f1, d1)) = extra.drain {
            let drain = self.spans.record("drain", d0, d1, step_span, 0);
            self.spans.record("flush", d0, f1, drain, 0);
            self.drain_ms.push((d1 - d0) as f64 / 1e6);
            self.flush_us.push((f1 - d0) as f64 / 1e3);
        }

        // Per destination, the time its single worker spent in the
        // benchmark's own spans: handler bodies and its caller's sends.
        let mut busy_by_loc: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
        for o in outs {
            let own = busy_by_loc.entry(o.locality).or_default();
            own.extend(o.issue.iter().copied().zip(o.ret.iter().copied()));
            for (&id, &dest) in o.ids.iter().zip(&o.dests) {
                busy_by_loc
                    .entry(dest)
                    .or_default()
                    .push((hstart(id), hend(id)));
            }
        }
        let busy: std::collections::HashMap<u32, Busy> = busy_by_loc
            .into_iter()
            .map(|(loc, iv)| (loc, Busy::new(iv)))
            .collect();
        for o in outs {
            for (k, &id) in o.ids.iter().enumerate() {
                let (issue, ret) = (o.issue[k], o.ret[k]);
                let (hs, he) = (hstart(id), hend(id));
                if hs == 0 || he == 0 {
                    continue;
                }
                let covered = busy.get(&o.dests[k]).map_or(0, |b| b.covered(ret, hs));
                self.send_call_ns.push(ret.saturating_sub(issue) as f64);
                self.dest_busy_us.push(covered as f64 / 1e3);
                self.transit_self_us
                    .push(hs.saturating_sub(ret).saturating_sub(covered) as f64 / 1e3);
                self.handler_us.push(he.saturating_sub(hs) as f64 / 1e3);
                self.e2e_us.push(he.saturating_sub(issue) as f64 / 1e3);
                self.spans
                    .record_op(step_span, id as u64, issue, ret, hs, he);
            }
        }
    }

    /// Fill the end-to-end metrics from the untraced steps; `setup_s`
    /// comes from the workload's boots.
    /// Each figure is taken per window of [`WINDOW_STEPS`] consecutive
    /// untraced steps and the windows' median reported.
    pub fn e2e(&self, out: &mut Metrics) {
        let step_ms: Vec<f64> = self.untraced_step_ns.iter().map(|ns| ns / 1e6).collect();
        let windows: Vec<&[f64]> = if step_ms.len() >= WINDOW_STEPS {
            step_ms.chunks_exact(WINDOW_STEPS).collect()
        } else {
            vec![&step_ms[..]]
        };
        let per_window =
            |f: &dyn Fn(&[f64]) -> f64| median(&windows.iter().map(|w| f(w)).collect::<Vec<_>>());
        let parcels_per_step = self.ops_per_step as f64 * self.parcels_per_op as f64;
        out.set(
            "throughput_per_s",
            per_window(&|w| parcels_per_step * w.len() as f64 / (w.iter().sum::<f64>() / 1e3)),
        );
        out.set("step_p50_ms", per_window(&|w| percentile(w, 0.5)));
        out.set("step_p90_ms", per_window(&|w| percentile(w, 0.9)));
        out.set(
            "peak_rss_mb",
            self.rss_mb.unwrap_or_else(crate::peak_rss_mb),
        );
    }

    /// Fill the span-based per-layer metrics and return the split table.
    pub fn layers(&self, serialize_ns: f64, decode_ns: f64, out: &mut Metrics) -> LayerTable {
        out.set(
            "threading.admit_us.p50",
            percentile(&self.traced_handover_us, 0.5),
        );
        out.set(
            "threading.admit_us.p99",
            percentile(&self.traced_handover_us, 0.99),
        );
        out.set(
            "parcel.send_call_ns.p50",
            percentile(&self.send_call_ns, 0.5),
        );
        out.set(
            "parcel.send_call_ns.p99",
            percentile(&self.send_call_ns, 0.99),
        );
        out.set("transit_us.p50", percentile(&self.transit_self_us, 0.5));
        out.set("transit_us.p99", percentile(&self.transit_self_us, 0.99));
        out.set("handler_us", mean(&self.handler_us));
        out.set("lco.wait_all_ms", mean(&self.wait_all_ms));
        out.set("lco.barrier_ms", mean(&self.barrier_ms));
        out.set("lco.skew_ms", mean(&self.skew_ms));
        out.set("core.drain_ms", mean(&self.drain_ms));
        out.set("coalesce.flush_call_us", mean(&self.flush_us));
        let overhead = mean(&self.traced_step_ns) / mean(&self.untraced_step_ns).max(1.0) - 1.0;
        out.set("trace.overhead_frac", overhead);

        let ops = self.send_call_ns.len() as u64;
        let e2e = mean(&self.e2e_us);
        let mut table = LayerTable::default();
        let send_us = mean(&self.send_call_ns) / 1e3;
        let encode_us = serialize_ns / 1e3;
        table.row("rpx-parcel", "send call - encode", ops, send_us - encode_us);
        table.row(
            "rpx-serialize",
            "encode + decode",
            ops,
            encode_us + decode_ns / 1e3,
        );
        table.row(
            "rpx-threading",
            "queued behind spans at dest",
            ops,
            mean(&self.dest_busy_us),
        );
        table.row("handler", "handler body", ops, mean(&self.handler_us));
        out.set("e2e_us_per_op", e2e);
        out.set("residual_us_per_op", e2e - table.explained_us());
        table
    }

    /// Ops of the measured steps.
    pub fn measured_ops(&self) -> u64 {
        self.measured_ops
    }

    /// Notes on sample counts for the human table.
    pub fn notes(&self) -> String {
        format!(
            "  samples: {} untraced steps, {} traced steps, {} spans",
            self.untraced_step_ns.len(),
            self.traced_step_ns.len(),
            self.spans.len()
        )
    }
}

/// Run steps until `seconds` of measurement have passed after `warmup`
/// seconds: `step(plan)` runs one step and returns its wall interval,
/// caller outputs and extra stamps. Traced runs trace every fourth step
/// and leave the others untraced, so the tracing overhead is measured on
/// the same runtime while the per-op record stays small.
/// Returns the counter snapshot pair bracketing the measured steps.
pub fn drive<F>(
    rt: &Runtime,
    actions: &[&str],
    acc: &mut Acc,
    warmup: f64,
    args: &crate::Args,
    outcome: &mut Outcome,
    mut step: F,
) -> (crate::layers::Snapshot, crate::layers::Snapshot, f64)
where
    F: FnMut(StepPlan) -> (u64, u64, Vec<SenderOut>, StepExtra),
{
    let mut index = 0u64;
    let warm_end = now_ns() + (warmup * 1e9) as u64;
    while now_ns() < warm_end {
        let plan = StepPlan {
            step: index,
            traced: false,
        };
        acc.stamps.reset(false);
        let (_, _, outs, _) = step(plan);
        acc.check(plan, &outs, outcome);
        index += 1;
    }
    let before = crate::layers::Snapshot::take(rt, actions);
    let m0 = now_ns();
    let end = m0 + (args.seconds * 1e9) as u64;
    let mut measured = 0u64;
    while now_ns() < end || measured < 2 {
        let plan = StepPlan {
            step: index,
            traced: args.trace && measured % 4 == 3,
        };
        acc.stamps.reset(plan.traced);
        let (t0, t1, outs, extra) = step(plan);
        acc.absorb(plan, t0, t1, &outs, extra, outcome);
        index += 1;
        measured += 1;
    }
    let m1 = now_ns();
    let after = crate::layers::Snapshot::take(rt, actions);
    (before, after, crate::clock::secs(m0, m1))
}
