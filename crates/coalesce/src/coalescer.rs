//! The per-action coalescer plugged into the parcel port.
//!
//! One [`Coalescer`] serves one coalesced action: it fans parcels out to
//! per-destination [`CoalescingQueue`]s (coalescing only combines parcels
//! "bound to the same destination") and implements the parcel port's
//! [`ParcelInterceptor`] interface — the RPX analogue of flagging an
//! action with `HPX_ACTION_USES_MESSAGE_COALESCING`.
//!
//! Two parameter-sharing modes exist:
//!
//! * **Global** (the paper's setup, and the default): every destination
//!   queue reads one shared [`ParamsHandle`] and records into one shared
//!   [`CoalescingCounters`] — one knob per action.
//! * **Per-destination** ([`Coalescer::per_destination`]): each
//!   destination owns a private [`ParamsHandle`] (seeded from the shared
//!   action-level handle) and private [`CoalescingCounters`] that forward
//!   to the action-level aggregate. A per-destination adaptive controller
//!   (`rpx-adaptive`) can then steer a hot peer and a cold peer to
//!   different operating points simultaneously.
//!
//! Destination state lives in a [`SlotTable`] indexed by locality id.
//! `submit` borrows its destination's slot with one atomic load — no
//! lock, no hash, no refcount change; only the first parcel to a new
//! destination takes the table's writer mutex to create the state.

use std::sync::Arc;

use rpx_counters::CounterRegistry;
use rpx_parcel::{Parcel, ParcelInterceptor, SendPath};
use rpx_util::sync::SlotTable;
use rpx_util::TimerService;

use crate::counters::CoalescingCounters;
use crate::params::{CoalescingParams, ParamsHandle};
use crate::queue::{CoalescingQueue, FlushPolicy};

/// Everything one destination owns: its queue plus the parameter handle
/// and counters the queue reads (shared with the action in global mode,
/// private in per-destination mode).
struct DestState {
    params: ParamsHandle,
    counters: Arc<CoalescingCounters>,
    queue: Arc<CoalescingQueue>,
}

/// The coalescing plug-in for one action.
pub struct Coalescer {
    action_name: String,
    params: ParamsHandle,
    policy: FlushPolicy,
    per_destination: bool,
    timer: Arc<TimerService>,
    path: Arc<dyn SendPath>,
    counters: Arc<CoalescingCounters>,
    /// Per-destination state indexed by locality id; created on first
    /// use and never replaced.
    dests: SlotTable<DestState>,
}

impl Coalescer {
    /// Create a coalescer for `action_name` emitting through `path`.
    pub fn new(
        action_name: &str,
        params: CoalescingParams,
        timer: Arc<TimerService>,
        path: Arc<dyn SendPath>,
    ) -> Arc<Self> {
        Self::with_handle(action_name, ParamsHandle::new(params), timer, path)
    }

    /// Create a coalescer sharing an existing parameter handle (used when
    /// several localities' coalescers are steered by one global knob, as
    /// in the paper's parameter sweeps).
    pub fn with_handle(
        action_name: &str,
        params: ParamsHandle,
        timer: Arc<TimerService>,
        path: Arc<dyn SendPath>,
    ) -> Arc<Self> {
        Self::with_handle_policy(action_name, params, FlushPolicy::Append, timer, path)
    }

    /// Create a coalescer with an explicit per-destination flush policy.
    ///
    /// [`FlushPolicy::Mailbox`] is what
    /// [`DeliveryClass::Coalesce`](rpx_parcel::DeliveryClass::Coalesce)
    /// actions install: one newest-wins slot per destination.
    pub fn with_handle_policy(
        action_name: &str,
        params: ParamsHandle,
        policy: FlushPolicy,
        timer: Arc<TimerService>,
        path: Arc<dyn SendPath>,
    ) -> Arc<Self> {
        Self::build(action_name, params, policy, false, timer, path)
    }

    /// Create a coalescer in **per-destination** mode: every destination
    /// gets a private parameter handle seeded from the current value of
    /// `params` plus private counters forwarding to the action-level
    /// aggregate, so each (action, destination) pair can be steered
    /// independently.
    pub fn per_destination(
        action_name: &str,
        params: ParamsHandle,
        policy: FlushPolicy,
        timer: Arc<TimerService>,
        path: Arc<dyn SendPath>,
    ) -> Arc<Self> {
        Self::build(action_name, params, policy, true, timer, path)
    }

    fn build(
        action_name: &str,
        params: ParamsHandle,
        policy: FlushPolicy,
        per_destination: bool,
        timer: Arc<TimerService>,
        path: Arc<dyn SendPath>,
    ) -> Arc<Self> {
        Arc::new(Coalescer {
            action_name: action_name.to_string(),
            params,
            policy,
            per_destination,
            timer,
            path,
            counters: CoalescingCounters::new(),
            dests: SlotTable::new(),
        })
    }

    /// The action this coalescer serves.
    pub fn action_name(&self) -> &str {
        &self.action_name
    }

    /// The flush policy this coalescer's queues use.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// The live-tunable parameter handle (shared with the adaptive
    /// controller).
    pub fn params(&self) -> &ParamsHandle {
        &self.params
    }

    /// The per-action counters (the aggregate across all destinations).
    pub fn counters(&self) -> &Arc<CoalescingCounters> {
        &self.counters
    }

    /// Whether each destination owns private parameters.
    pub fn is_per_destination(&self) -> bool {
        self.per_destination
    }

    /// The parameter handle steering parcels bound for `dst`, creating
    /// the destination state on first use.
    ///
    /// In global mode this is the shared action-level handle; in
    /// per-destination mode it is `dst`'s private handle.
    pub fn params_for(&self, dst: u32) -> ParamsHandle {
        self.dest_for(dst).params.clone()
    }

    /// The counters recording parcels bound for `dst`, creating the
    /// destination state on first use.
    ///
    /// In global mode this is the action-level aggregate; in
    /// per-destination mode it is `dst`'s private set (which forwards to
    /// the aggregate).
    pub fn counters_for(&self, dst: u32) -> Arc<CoalescingCounters> {
        Arc::clone(&self.dest_for(dst).counters)
    }

    /// Destinations this coalescer has seen traffic for (or had state
    /// created for via [`Coalescer::params_for`]), in ascending order.
    pub fn destinations(&self) -> Vec<u32> {
        let mut dsts = Vec::new();
        self.dests.for_each(|dst, _| dsts.push(dst as u32));
        dsts
    }

    /// Register this action's `/coalescing/*` counters in `registry`.
    pub fn register_counters(&self, registry: &CounterRegistry) {
        self.counters.register(registry, &self.action_name);
    }

    /// Parcels held across all destinations: buffered in a queue, or
    /// taken by a flush and not yet handed to the send path.
    pub fn pending(&self) -> usize {
        let mut n = 0;
        self.dests.for_each(|_, d| n += d.queue.pending());
        n
    }

    fn dest_for(&self, dst: u32) -> &DestState {
        self.dests.get_or_insert_with(dst as usize, || {
            let (params, counters) = if self.per_destination {
                (
                    ParamsHandle::new(self.params.load()),
                    CoalescingCounters::with_parent(Arc::clone(&self.counters)),
                )
            } else {
                (self.params.clone(), Arc::clone(&self.counters))
            };
            let queue = CoalescingQueue::with_policy(
                dst,
                params.clone(),
                self.policy,
                Arc::clone(&self.timer),
                Arc::clone(&self.path),
                Arc::clone(&counters),
            );
            Arc::new(DestState {
                params,
                counters,
                queue,
            })
        })
    }
}

impl ParcelInterceptor for Coalescer {
    fn submit(&self, parcel: Parcel) {
        self.dest_for(parcel.dest_locality).queue.submit(parcel);
    }

    fn flush(&self) {
        self.dests.for_each(|_, d| d.queue.flush());
    }

    fn pending(&self) -> usize {
        Coalescer::pending(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use parking_lot::Mutex;
    use rpx_agas::Gid;
    use rpx_parcel::{ActionId, ParcelBatch};
    use std::time::Duration;

    struct MockPath {
        batches: Mutex<Vec<(u32, Vec<Parcel>)>>,
    }
    impl SendPath for MockPath {
        fn emit(&self, dst: u32, batch: ParcelBatch) {
            self.batches.lock().push((dst, batch.into_vec()));
        }
    }

    fn parcel(id: u64, dst: u32) -> Parcel {
        Parcel {
            id,
            src_locality: 0,
            dest_locality: dst,
            dest_object: Gid::INVALID,
            action: ActionId(0),
            args: Bytes::new(),
            continuation: Gid::INVALID,
        }
    }

    fn coalescer(params: CoalescingParams) -> (Arc<Coalescer>, Arc<MockPath>, Arc<TimerService>) {
        let path = Arc::new(MockPath {
            batches: Mutex::new(Vec::new()),
        });
        let timer = Arc::new(TimerService::new("coalescer-test"));
        let c = Coalescer::new("act", params, Arc::clone(&timer), path.clone() as _);
        (c, path, timer)
    }

    #[test]
    fn destinations_coalesce_independently() {
        let (c, path, _t) = coalescer(CoalescingParams::new(3, Duration::from_secs(10)));
        // Interleave two destinations; each must fill its own queue.
        for i in 0..3 {
            c.submit(parcel(i, 1));
            c.submit(parcel(100 + i, 2));
        }
        let batches = path.batches.lock();
        assert_eq!(batches.len(), 2);
        for (dst, batch) in batches.iter() {
            assert_eq!(batch.len(), 3);
            assert!(batch.iter().all(|p| p.dest_locality == *dst));
        }
    }

    #[test]
    fn flush_drains_every_destination() {
        let (c, path, _t) = coalescer(CoalescingParams::new(100, Duration::from_secs(10)));
        c.submit(parcel(1, 0));
        c.submit(parcel(2, 1));
        c.submit(parcel(3, 2));
        assert_eq!(c.pending(), 3);
        c.flush();
        assert_eq!(c.pending(), 0);
        assert_eq!(path.batches.lock().len(), 3);
    }

    #[test]
    fn shared_params_apply_to_all_queues() {
        let (c, path, _t) = coalescer(CoalescingParams::new(100, Duration::from_secs(10)));
        c.submit(parcel(1, 1));
        c.submit(parcel(2, 2));
        c.params().set_nparcels(2);
        c.submit(parcel(3, 1));
        c.submit(parcel(4, 2));
        assert_eq!(path.batches.lock().len(), 2, "both queues flushed at 2");
    }

    #[test]
    fn counters_aggregate_across_destinations() {
        let (c, _path, _t) = coalescer(CoalescingParams::new(2, Duration::from_secs(10)));
        for dst in 0..4 {
            c.submit(parcel(dst as u64 * 2, dst));
            c.submit(parcel(dst as u64 * 2 + 1, dst));
        }
        assert_eq!(c.counters().parcels.get(), 8);
        assert_eq!(c.counters().messages.get(), 4);
        assert_eq!(c.counters().parcels_per_message.ratio(), 2.0);
    }

    #[test]
    fn counter_registration_uses_action_name() {
        let (c, _path, _t) = coalescer(CoalescingParams::default());
        let reg = CounterRegistry::new(0);
        c.register_counters(&reg);
        assert!(reg.query("/coalescing/count/parcels@act").is_ok());
        assert_eq!(c.action_name(), "act");
    }

    #[test]
    fn mailbox_policy_applies_per_destination() {
        let path = Arc::new(MockPath {
            batches: Mutex::new(Vec::new()),
        });
        let timer = Arc::new(TimerService::new("coalescer-mailbox"));
        let c = Coalescer::with_handle_policy(
            "sync",
            ParamsHandle::new(CoalescingParams::new(100, Duration::from_secs(10))),
            crate::queue::FlushPolicy::Mailbox,
            Arc::clone(&timer),
            path.clone() as _,
        );
        assert_eq!(c.policy(), crate::queue::FlushPolicy::Mailbox);
        // Ten updates to each of two destinations: one slot each.
        for i in 0..10 {
            c.submit(parcel(i, 1));
            c.submit(parcel(100 + i, 2));
        }
        assert_eq!(c.pending(), 2);
        c.flush();
        let batches = path.batches.lock();
        assert_eq!(batches.len(), 2);
        for (dst, batch) in batches.iter() {
            assert_eq!(batch.len(), 1);
            let expect = if *dst == 1 { 9 } else { 109 };
            assert_eq!(batch[0].id, expect, "newest value for dst {dst}");
        }
    }

    #[test]
    fn per_destination_params_are_independent() {
        let path = Arc::new(MockPath {
            batches: Mutex::new(Vec::new()),
        });
        let timer = Arc::new(TimerService::new("coalescer-perdest"));
        let c = Coalescer::per_destination(
            "act",
            ParamsHandle::new(CoalescingParams::new(100, Duration::from_secs(10))),
            FlushPolicy::Append,
            Arc::clone(&timer),
            path.clone() as _,
        );
        assert!(c.is_per_destination());
        // Seeded from the shared handle...
        assert_eq!(c.params_for(1).load().nparcels, 100);
        // ...but tuning dst 1 leaves dst 2 alone.
        c.params_for(1).set_nparcels(2);
        assert_eq!(c.params_for(1).load().nparcels, 2);
        assert_eq!(c.params_for(2).load().nparcels, 100);
        c.submit(parcel(1, 1));
        c.submit(parcel(2, 1));
        c.submit(parcel(3, 2));
        c.submit(parcel(4, 2));
        let batches = path.batches.lock();
        assert_eq!(batches.len(), 1, "only dst 1 hit its threshold");
        assert_eq!(batches[0].0, 1);
        let mut dests = c.destinations();
        dests.sort_unstable();
        assert_eq!(dests, vec![1, 2]);
    }

    #[test]
    fn per_destination_counters_split_and_aggregate() {
        let path = Arc::new(MockPath {
            batches: Mutex::new(Vec::new()),
        });
        let timer = Arc::new(TimerService::new("coalescer-perdest-counters"));
        let c = Coalescer::per_destination(
            "act",
            ParamsHandle::new(CoalescingParams::new(2, Duration::from_secs(10))),
            FlushPolicy::Append,
            Arc::clone(&timer),
            path.clone() as _,
        );
        for i in 0..6 {
            c.submit(parcel(i, 1));
        }
        for i in 0..2 {
            c.submit(parcel(100 + i, 2));
        }
        assert_eq!(c.counters_for(1).parcels.get(), 6);
        assert_eq!(c.counters_for(2).parcels.get(), 2);
        assert_eq!(c.counters_for(1).messages.get(), 3);
        // The action-level aggregate still matches the paper's counters.
        assert_eq!(c.counters().parcels.get(), 8);
        assert_eq!(c.counters().messages.get(), 4);
    }

    #[test]
    fn global_mode_params_for_returns_shared_handle() {
        let (c, _path, _t) = coalescer(CoalescingParams::new(10, Duration::from_secs(10)));
        assert!(!c.is_per_destination());
        c.params_for(3).set_nparcels(5);
        assert_eq!(c.params().load().nparcels, 5, "global handle is shared");
        assert_eq!(c.params_for(7).load().nparcels, 5);
    }

    #[test]
    fn racing_first_submits_create_one_destination() {
        let path = Arc::new(MockPath {
            batches: Mutex::new(Vec::new()),
        });
        let timer = Arc::new(TimerService::new("coalescer-first-race"));
        let c = Coalescer::per_destination(
            "act",
            ParamsHandle::new(CoalescingParams::new(1000, Duration::from_secs(10))),
            FlushPolicy::Append,
            Arc::clone(&timer),
            path.clone() as _,
        );
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (c, start) = (&c, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..50 {
                        c.submit(parcel(t * 1000 + i, 5));
                    }
                });
            }
        });
        assert_eq!(c.destinations(), vec![5]);
        // One queue and one counter set: a second, raced-in queue would
        // strand its parcels where neither of these sees them.
        assert_eq!(c.pending(), 400);
        assert_eq!(c.counters_for(5).parcels.get(), 400);
        c.flush();
        assert_eq!(c.pending(), 0);
        let batches = path.batches.lock();
        assert_eq!(batches.len(), 1, "one queue flushed once");
        let mut seen = std::collections::HashSet::new();
        for p in &batches[0].1 {
            assert!(seen.insert(p.id), "parcel {} twice", p.id);
        }
        assert_eq!(seen.len(), 400);
    }

    #[test]
    fn pending_counts_a_batch_until_the_send_path_has_it() {
        // A send path that reports the coalescer's pending count while
        // the batch is being handed over.
        struct Probe {
            coalescer: Mutex<Option<Arc<Coalescer>>>,
            seen: Mutex<Vec<usize>>,
        }
        impl SendPath for Probe {
            fn emit(&self, _dst: u32, batch: ParcelBatch) {
                let c = self.coalescer.lock().clone().expect("wired");
                self.seen.lock().push(c.pending());
                drop(batch);
            }
        }
        let probe = Arc::new(Probe {
            coalescer: Mutex::new(None),
            seen: Mutex::new(Vec::new()),
        });
        let timer = Arc::new(TimerService::new("coalescer-pending"));
        let c = Coalescer::new(
            "act",
            CoalescingParams::new(100, Duration::from_secs(10)),
            Arc::clone(&timer),
            probe.clone() as _,
        );
        *probe.coalescer.lock() = Some(Arc::clone(&c));
        for i in 0..3 {
            c.submit(parcel(i, 1));
        }
        assert_eq!(ParcelInterceptor::pending(&*c), 3);
        c.flush();
        assert_eq!(*probe.seen.lock(), vec![3], "in-emit batch counted");
        assert_eq!(c.pending(), 0, "settled after the emit");
        probe.coalescer.lock().take();
    }

    #[test]
    fn concurrent_multi_destination_conservation() {
        let (c, path, _t) = coalescer(CoalescingParams::new(4, Duration::from_millis(2)));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..250u64 {
                        c.submit(parcel(t * 1000 + i, (i % 3) as u32));
                    }
                });
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        let batches = path.batches.lock();
        let mut seen = std::collections::HashSet::new();
        for (dst, batch) in batches.iter() {
            for p in batch {
                assert_eq!(p.dest_locality, *dst, "batch mixes destinations");
                assert!(seen.insert(p.id));
            }
        }
        assert_eq!(seen.len(), 1000);
    }
}
