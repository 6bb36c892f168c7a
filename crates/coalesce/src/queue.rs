//! The per-destination coalescing queue — Algorithm 1 of the paper.
//!
//! ```text
//! procedure Coalescing Message Handler
//!     nparcels ← number of parcels to coalesce in a message
//!     interval ← wait time in microseconds
//!     s       ← state of arriving parcel
//!     tslp    ← time since last parcel
//!     if tslp > interval then
//!         send parcel                    (sparse-traffic bypass)
//!     switch s do
//!         case First:
//!             Start Flush timer
//!             Queue Parcel
//!         case ¬First ∧ ¬Last:
//!             Queue Parcel
//!         case Last (QueueFull):
//!             Stop Flush timer
//!             Flush queued parcels
//! ```
//!
//! A queue exists per (action, destination) pair; parameters and counters
//! are shared across the destinations of one action.
//!
//! The submit path is allocation-free in steady state: buffers are drawn
//! from a per-queue [`BufferPool`] pre-sized to `nparcels`, flushed batches
//! travel as [`ParcelBatch`] and return their backing `Vec` to the pool
//! when the transport drops them, and counter updates and timestamping
//! happen outside the state lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use rpx_parcel::{BufferPool, Parcel, ParcelBatch, SendPath};
use rpx_util::time::dur_to_ns;
use rpx_util::{TimerHandle, TimerService};

use crate::counters::CoalescingCounters;
use crate::params::ParamsHandle;

/// How buffered parcels accumulate between flushes.
///
/// [`Append`](FlushPolicy::Append) is the paper's Algorithm 1: every
/// submitted parcel is kept and shipped. [`Mailbox`](FlushPolicy::Mailbox)
/// is the value-replacing variant behind `DeliveryClass::Coalesce`
/// (defined in `rpx-net`, selected by the registration builder): the
/// queue holds at most one parcel per destination, a newer submission
/// *replaces* the occupant, and each flush emits a single parcel — so N
/// state updates inside one interval cost one wire record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Keep every parcel; flush on queue-full, byte cap, or timer.
    #[default]
    Append,
    /// Newest-wins slot of one parcel; flush on timer (or sparse bypass).
    /// `nparcels`/`max_bytes` never trigger — the slot cannot fill.
    Mailbox,
}

struct State {
    buffer: Vec<Parcel>,
    bytes: usize,
    last_arrival: Option<Instant>,
    /// Bumped on every flush; a timer callback carrying a stale epoch is
    /// ignored (it raced with a queue-full flush).
    epoch: u64,
    timer: Option<TimerHandle>,
}

/// A coalescing queue for one destination locality.
pub struct CoalescingQueue {
    dst: u32,
    params: ParamsHandle,
    policy: FlushPolicy,
    timer_service: Arc<TimerService>,
    path: Arc<dyn SendPath>,
    counters: Arc<CoalescingCounters>,
    /// Recycles flushed buffers: a batch emitted downstream returns its
    /// `Vec<Parcel>` here on drop, and the next fill re-uses it.
    pool: Arc<BufferPool>,
    state: Mutex<State>,
    /// Parcels a flush has taken out of `state.buffer` and not yet handed
    /// to the send path: raised under the state lock, lowered after the
    /// emit, so [`CoalescingQueue::pending`] never misses a batch between
    /// the two.
    in_emit: AtomicUsize,
}

impl CoalescingQueue {
    /// Create an [`FlushPolicy::Append`] queue for destination `dst`.
    pub fn new(
        dst: u32,
        params: ParamsHandle,
        timer_service: Arc<TimerService>,
        path: Arc<dyn SendPath>,
        counters: Arc<CoalescingCounters>,
    ) -> Arc<Self> {
        Self::with_policy(
            dst,
            params,
            FlushPolicy::Append,
            timer_service,
            path,
            counters,
        )
    }

    /// Create a queue for destination `dst` with an explicit flush policy.
    pub fn with_policy(
        dst: u32,
        params: ParamsHandle,
        policy: FlushPolicy,
        timer_service: Arc<TimerService>,
        path: Arc<dyn SendPath>,
        counters: Arc<CoalescingCounters>,
    ) -> Arc<Self> {
        Arc::new(CoalescingQueue {
            dst,
            params,
            policy,
            timer_service,
            path,
            counters,
            pool: BufferPool::new(),
            state: Mutex::new(State {
                buffer: Vec::new(),
                bytes: 0,
                last_arrival: None,
                epoch: 0,
                timer: None,
            }),
            in_emit: AtomicUsize::new(0),
        })
    }

    /// The destination this queue serves.
    pub fn destination(&self) -> u32 {
        self.dst
    }

    /// Parcels currently held: buffered, or flushed and still on their
    /// way to the send path.
    pub fn pending(&self) -> usize {
        let st = self.state.lock();
        st.buffer.len() + self.in_emit.load(Ordering::Acquire)
    }

    /// Spare recycled buffers currently pooled (observability/tests).
    pub fn spare_buffers(&self) -> usize {
        self.pool.spares()
    }

    /// Submit one parcel (Algorithm 1; under [`FlushPolicy::Mailbox`] the
    /// queue-parcel step becomes replace-the-occupant).
    pub fn submit(self: &Arc<Self>, parcel: Parcel) {
        debug_assert_eq!(parcel.dest_locality, self.dst);
        let params = self.params.load();
        // Timestamp before taking the lock; the gap error this introduces
        // under contention is bounded by the lock hold time.
        let now = Instant::now();
        // At most two batches leave one submit: what was already buffered
        // (first slot) and the arriving parcel when it bypasses (second).
        let mut flushed: Option<Vec<Parcel>> = None;
        let mut bypass: Option<ParcelBatch> = None;
        let mut replaced = false;
        let gap: Option<Duration>;
        {
            let mut st = self.state.lock();
            gap = st.last_arrival.map(|t| now.saturating_duration_since(t));
            st.last_arrival = Some(now);

            let sparse = gap.is_some_and(|g| g > params.interval);
            if params.is_disabled() || sparse {
                // Coalescing off (nparcels = 1) or sparse bypass: anything
                // still buffered goes first (parameters may have just been
                // lowered), then the arriving parcel ships immediately as
                // an inline batch — no buffer, no pool traffic.
                flushed = self.flush_locked(&mut st);
                bypass = Some(ParcelBatch::single(parcel));
            } else if self.policy == FlushPolicy::Mailbox && !st.buffer.is_empty() {
                // Mailbox newest-wins: the arriving value supersedes the
                // occupant in place. The armed timer keeps running — the
                // slot flushes on the first parcel's deadline, not the
                // last one's, so a steady stream still drains.
                st.bytes = parcel.wire_size();
                st.buffer[0] = parcel;
                replaced = true;
            } else {
                st.bytes += parcel.wire_size();
                if st.buffer.capacity() == 0 {
                    // case First after a flush: draw a recycled buffer
                    // pre-sized to nparcels so pushes never reallocate.
                    let cap = match self.policy {
                        FlushPolicy::Append => params.nparcels,
                        FlushPolicy::Mailbox => 1,
                    };
                    st.buffer = self.pool.take(cap);
                }
                st.buffer.push(parcel);
                if st.buffer.len() == 1 {
                    // case First: start the flush timer.
                    let epoch = st.epoch;
                    let weak = Arc::downgrade(self);
                    st.timer = Some(self.timer_service.arm_after(params.interval, move || {
                        if let Some(queue) = weak.upgrade() {
                            queue.timer_flush(epoch);
                        }
                    }));
                }
                if self.policy == FlushPolicy::Append
                    && (st.buffer.len() >= params.nparcels || st.bytes >= params.max_bytes)
                {
                    // case Last: stop the timer and flush. A mailbox never
                    // fills — only the timer (or sparse bypass) drains it.
                    flushed = self.flush_locked(&mut st);
                }
            }
        }
        // Counter recording happens outside the critical section.
        self.counters.record_arrival(gap.map(dur_to_ns));
        if replaced {
            self.path.note_mailbox_replaced();
        }
        if let Some(buf) = flushed {
            self.emit_buf(buf);
        }
        if let Some(batch) = bypass {
            self.counters.record_message(1);
            if self.policy == FlushPolicy::Mailbox {
                self.path.note_mailbox_flushed();
            }
            self.path.emit(self.dst, batch);
        }
    }

    /// Force-flush the queue (phase boundaries, shutdown).
    pub fn flush(&self) {
        let buf = {
            let mut st = self.state.lock();
            self.flush_locked(&mut st)
        };
        if let Some(buf) = buf {
            self.emit_buf(buf);
        }
    }

    /// Take the buffered parcels, cancel the timer, bump the epoch.
    /// Caller records counters and emits (through
    /// [`CoalescingQueue::emit_buf`], which settles `in_emit`) after
    /// releasing the state lock; the replacement buffer is drawn lazily
    /// from the pool on next push.
    fn flush_locked(&self, st: &mut State) -> Option<Vec<Parcel>> {
        if let Some(t) = st.timer.take() {
            t.cancel();
        }
        st.epoch += 1;
        if st.buffer.is_empty() {
            return None;
        }
        st.bytes = 0;
        self.in_emit.fetch_add(st.buffer.len(), Ordering::Relaxed);
        Some(std::mem::take(&mut st.buffer))
    }

    /// Timer-driven flush; ignored if `epoch` is stale.
    fn timer_flush(self: &Arc<Self>, epoch: u64) {
        let buf = {
            let mut st = self.state.lock();
            if st.epoch != epoch {
                return;
            }
            self.flush_locked(&mut st)
        };
        if let Some(buf) = buf {
            self.emit_buf(buf);
        }
    }

    /// Record counters and hand a flushed buffer to the send path.
    fn emit_buf(&self, buf: Vec<Parcel>) {
        let n = buf.len();
        self.counters.record_message(n);
        if self.policy == FlushPolicy::Mailbox {
            self.path.note_mailbox_flushed();
        }
        self.path
            .emit(self.dst, ParcelBatch::from_pool(buf, &self.pool));
        // Release: a reader that sees the count drop also sees the batch
        // in the send path's queue.
        self.in_emit.fetch_sub(n, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CoalescingParams;
    use bytes::Bytes;
    use rpx_agas::Gid;
    use rpx_parcel::ActionId;
    use std::time::Duration;

    pub(crate) struct MockPath {
        pub batches: Mutex<Vec<(u32, Vec<Parcel>)>>,
        pub replaced: std::sync::atomic::AtomicU64,
        pub flushed: std::sync::atomic::AtomicU64,
    }

    impl MockPath {
        pub fn new() -> Arc<Self> {
            Arc::new(MockPath {
                batches: Mutex::new(Vec::new()),
                replaced: std::sync::atomic::AtomicU64::new(0),
                flushed: std::sync::atomic::AtomicU64::new(0),
            })
        }
        fn batch_sizes(&self) -> Vec<usize> {
            self.batches.lock().iter().map(|(_, b)| b.len()).collect()
        }
        fn total_parcels(&self) -> usize {
            self.batches.lock().iter().map(|(_, b)| b.len()).sum()
        }
    }

    impl SendPath for MockPath {
        fn emit(&self, dst: u32, batch: ParcelBatch) {
            // into_vec detaches the buffer from the recycling pool — test
            // capture deliberately trades recycling for ownership.
            self.batches.lock().push((dst, batch.into_vec()));
        }
        fn note_mailbox_replaced(&self) {
            self.replaced
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn note_mailbox_flushed(&self) {
            self.flushed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// A path that consumes and drops batches like a real transport,
    /// returning their buffers to the queue's pool.
    struct DropPath;
    impl SendPath for DropPath {
        fn emit(&self, _dst: u32, batch: ParcelBatch) {
            drop(batch);
        }
    }

    fn parcel(id: u64) -> Parcel {
        Parcel {
            id,
            src_locality: 0,
            dest_locality: 1,
            dest_object: Gid::INVALID,
            action: ActionId(0),
            args: Bytes::from_static(&[0u8; 16]),
            continuation: Gid::INVALID,
        }
    }

    fn queue(
        params: CoalescingParams,
    ) -> (
        Arc<CoalescingQueue>,
        Arc<MockPath>,
        Arc<CoalescingCounters>,
        Arc<TimerService>,
    ) {
        let path = MockPath::new();
        let counters = CoalescingCounters::new();
        let timer = Arc::new(TimerService::new("coalesce-test"));
        let q = CoalescingQueue::new(
            1,
            ParamsHandle::new(params),
            Arc::clone(&timer),
            path.clone() as Arc<dyn SendPath>,
            Arc::clone(&counters),
        );
        (q, path, counters, timer)
    }

    #[test]
    fn queue_full_triggers_flush() {
        let (q, path, counters, _t) = queue(CoalescingParams::new(4, Duration::from_secs(10)));
        for i in 0..8 {
            q.submit(parcel(i));
        }
        assert_eq!(path.batch_sizes(), vec![4, 4]);
        assert_eq!(q.pending(), 0);
        assert_eq!(counters.parcels.get(), 8);
        assert_eq!(counters.messages.get(), 2);
        assert_eq!(counters.parcels_per_message.ratio(), 4.0);
    }

    #[test]
    fn partial_queue_is_flushed_by_timer() {
        let (q, path, _c, _t) = queue(CoalescingParams::new(100, Duration::from_millis(5)));
        q.submit(parcel(1));
        q.submit(parcel(2));
        q.submit(parcel(3));
        assert_eq!(q.pending(), 3);
        assert!(path.batches.lock().is_empty());
        // Wait past the interval: the flush timer must fire.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(path.batch_sizes(), vec![3]);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn nparcels_one_disables_coalescing() {
        let (q, path, counters, _t) = queue(CoalescingParams::new(1, Duration::from_secs(10)));
        for i in 0..5 {
            q.submit(parcel(i));
        }
        assert_eq!(path.batch_sizes(), vec![1, 1, 1, 1, 1]);
        assert_eq!(counters.messages.get(), 5);
        assert_eq!(counters.parcels_per_message.ratio(), 1.0);
    }

    #[test]
    fn sparse_gap_bypasses_queueing() {
        // interval = 1 ms; parcels arriving 10 ms apart must ship
        // immediately (the paper's sparse-traffic rule).
        let (q, path, _c, _t) = queue(CoalescingParams::new(100, Duration::from_millis(1)));
        q.submit(parcel(1)); // first: queued, timer armed
        std::thread::sleep(Duration::from_millis(10));
        // Timer has already flushed parcel 1.
        q.submit(parcel(2)); // gap 10 ms > 1 ms → bypass
        assert_eq!(path.batch_sizes(), vec![1, 1]);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn max_bytes_forces_flush() {
        // Each test parcel is ~56 wire bytes; cap at 120 → flush on the 3rd.
        let (q, path, _c, _t) =
            queue(CoalescingParams::new(1000, Duration::from_secs(10)).with_max_bytes(120));
        q.submit(parcel(1));
        q.submit(parcel(2));
        assert_eq!(q.pending(), 2);
        q.submit(parcel(3));
        assert_eq!(q.pending(), 0);
        assert_eq!(path.batch_sizes(), vec![3]);
    }

    #[test]
    fn explicit_flush_empties_queue() {
        let (q, path, _c, _t) = queue(CoalescingParams::new(100, Duration::from_secs(10)));
        q.submit(parcel(1));
        q.submit(parcel(2));
        q.flush();
        assert_eq!(path.batch_sizes(), vec![2]);
        // Flushing an empty queue emits nothing.
        q.flush();
        assert_eq!(path.batch_sizes(), vec![2]);
    }

    #[test]
    fn timer_does_not_double_flush_after_queue_full() {
        let (q, path, _c, _t) = queue(CoalescingParams::new(2, Duration::from_millis(5)));
        q.submit(parcel(1));
        q.submit(parcel(2)); // fills queue → flush, cancels/invalidates timer
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(path.batch_sizes(), vec![2], "stale timer re-flushed");
    }

    #[test]
    fn params_update_applies_to_next_decision() {
        let (q, path, _c, _t) = queue(CoalescingParams::new(100, Duration::from_secs(10)));
        q.submit(parcel(1));
        q.params.set_nparcels(2);
        q.submit(parcel(2)); // now 2 ≥ nparcels → flush
        assert_eq!(path.batch_sizes(), vec![2]);
    }

    #[test]
    fn arrival_gaps_feed_counters() {
        let (q, _path, counters, _t) = queue(CoalescingParams::new(100, Duration::from_secs(10)));
        q.submit(parcel(1));
        std::thread::sleep(Duration::from_millis(2));
        q.submit(parcel(2));
        assert_eq!(counters.average_arrival.count(), 1);
        assert!(counters.average_arrival.mean() >= 2_000_000.0); // ≥ 2 ms in ns
        assert_eq!(counters.arrival_histogram.count(), 1);
    }

    #[test]
    fn flushed_buffers_are_recycled() {
        // With a transport that drops batches (as the parcel port does once
        // encoded), the queue cycles pooled buffers instead of allocating.
        let counters = CoalescingCounters::new();
        let timer = Arc::new(TimerService::new("recycle-test"));
        let q = CoalescingQueue::new(
            1,
            ParamsHandle::new(CoalescingParams::new(4, Duration::from_secs(10))),
            timer,
            Arc::new(DropPath) as Arc<dyn SendPath>,
            counters,
        );
        for round in 0..10u64 {
            for i in 0..4 {
                q.submit(parcel(round * 4 + i));
            }
            // Each full flush hands its buffer back: exactly one spare,
            // reused by the next round's first push.
            assert_eq!(q.spare_buffers(), 1, "round {round}");
        }
    }

    fn mailbox_queue(
        params: CoalescingParams,
    ) -> (Arc<CoalescingQueue>, Arc<MockPath>, Arc<TimerService>) {
        let path = MockPath::new();
        let timer = Arc::new(TimerService::new("mailbox-test"));
        let q = CoalescingQueue::with_policy(
            1,
            ParamsHandle::new(params),
            FlushPolicy::Mailbox,
            Arc::clone(&timer),
            path.clone() as Arc<dyn SendPath>,
            CoalescingCounters::new(),
        );
        (q, path, timer)
    }

    #[test]
    fn mailbox_newest_wins_single_flush() {
        use std::sync::atomic::Ordering;
        let (q, path, _t) = mailbox_queue(CoalescingParams::new(100, Duration::from_millis(5)));
        for i in 1..=10 {
            q.submit(parcel(i));
        }
        assert_eq!(q.pending(), 1, "slot holds exactly the newest parcel");
        std::thread::sleep(Duration::from_millis(30));
        let batches = path.batches.lock();
        assert_eq!(batches.len(), 1, "ten updates, one wire record");
        assert_eq!(batches[0].1.len(), 1);
        assert_eq!(batches[0].1[0].id, 10, "latest value wins");
        assert_eq!(path.replaced.load(Ordering::Relaxed), 9);
        assert_eq!(path.flushed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn mailbox_never_flushes_on_count_or_bytes() {
        // nparcels = 2 and a tiny byte cap would flush an Append queue on
        // the second submit; a mailbox only drains by timer or flush().
        let (q, path, _t) =
            mailbox_queue(CoalescingParams::new(2, Duration::from_secs(10)).with_max_bytes(1));
        for i in 1..=5 {
            q.submit(parcel(i));
        }
        assert!(path.batches.lock().is_empty());
        q.flush();
        let batches = path.batches.lock();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].1[0].id, 5);
    }

    #[test]
    fn mailbox_sparse_gap_bypasses() {
        use std::sync::atomic::Ordering;
        let (q, path, _t) = mailbox_queue(CoalescingParams::new(100, Duration::from_millis(1)));
        q.submit(parcel(1)); // first: occupies slot, timer armed
        std::thread::sleep(Duration::from_millis(10));
        q.submit(parcel(2)); // gap 10 ms > 1 ms → ships immediately
        assert_eq!(path.batch_sizes(), vec![1, 1]);
        assert_eq!(q.pending(), 0);
        // Both deliveries count as mailbox flushes; nothing was replaced.
        assert_eq!(path.replaced.load(Ordering::Relaxed), 0);
        assert_eq!(path.flushed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn conservation_under_concurrency() {
        let (q, path, counters, _t) = queue(CoalescingParams::new(8, Duration::from_millis(2)));
        let n_threads = 4;
        let per_thread = 500;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per_thread {
                        q.submit(parcel((t * per_thread + i) as u64));
                    }
                });
            }
        });
        // Allow the final timer flush to land.
        std::thread::sleep(Duration::from_millis(30));
        let total = n_threads * per_thread;
        assert_eq!(path.total_parcels(), total);
        assert_eq!(counters.parcels.get() as usize, total);
        // Every parcel id delivered exactly once.
        let mut seen = std::collections::HashSet::new();
        for (_, batch) in path.batches.lock().iter() {
            for p in batch {
                assert!(seen.insert(p.id), "duplicate parcel {}", p.id);
            }
        }
        assert_eq!(seen.len(), total);
        // No batch exceeds nparcels.
        assert!(path.batch_sizes().iter().all(|&s| s <= 8));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::MockPath;
    use super::*;
    use crate::params::CoalescingParams;
    use bytes::Bytes;
    use proptest::prelude::*;
    use rpx_agas::Gid;
    use rpx_parcel::ActionId;
    use std::time::Duration;

    fn parcel(id: u64) -> Parcel {
        Parcel {
            id,
            src_locality: 0,
            dest_locality: 1,
            dest_object: Gid::INVALID,
            action: ActionId(0),
            args: Bytes::from_static(&[0u8; 8]),
            continuation: Gid::INVALID,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Invariant: regardless of nparcels and submission count, every
        /// parcel is emitted exactly once, in order, and no batch exceeds
        /// nparcels.
        #[test]
        fn conservation_and_batch_bounds(nparcels in 1usize..32, count in 0usize..200) {
            let path = MockPath::new();
            let counters = CoalescingCounters::new();
            let timer = Arc::new(TimerService::new("prop"));
            let q = CoalescingQueue::new(
                1,
                ParamsHandle::new(CoalescingParams::new(nparcels, Duration::from_secs(10))),
                timer,
                path.clone() as Arc<dyn SendPath>,
                counters,
            );
            for i in 0..count {
                q.submit(parcel(i as u64));
            }
            q.flush();
            let batches = path.batches.lock();
            let flat: Vec<u64> = batches.iter().flat_map(|(_, b)| b.iter().map(|p| p.id)).collect();
            prop_assert_eq!(flat, (0..count as u64).collect::<Vec<_>>());
            prop_assert!(batches.iter().all(|(_, b)| b.len() <= nparcels.max(1)));
            // With a long interval and dense submissions, all full batches
            // have exactly nparcels (only the final flush may be short).
            if nparcels > 1 && count > 0 {
                for (_, b) in batches.iter().take(count / nparcels) {
                    prop_assert_eq!(b.len(), nparcels);
                }
            }
        }
    }
}
