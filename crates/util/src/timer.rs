//! The deadline timer service.
//!
//! Parcel coalescing needs a *flush timer*: when the first parcel enters a
//! coalescing queue a timer is armed; if the queue does not fill before the
//! timer expires, the queue is flushed anyway (Algorithm 1 of the paper).
//! The paper implements this with Boost's deadline timer running on its own
//! hardware thread and reports an average firing error of ≈33 µs — OS time
//! slicing would give millisecond errors and defeat microsecond-scale wait
//! times.
//!
//! [`TimerService`] reproduces that design: one dedicated thread owns an
//! ordered map of live deadlines and uses a park/spin hybrid wait — parking
//! until shortly before the earliest deadline and spinning the final
//! stretch. Cancelling a timer removes its entry, so the thread only ever
//! parks or spins toward a deadline that can still fire. Every firing
//! records its error into an accuracy histogram, which the `timer_accuracy`
//! bench and `repro timer` harness report against the paper's 33 µs figure.
//!
//! Handshakes (the map and the shutdown flag share one lock; see DESIGN.md):
//! arm wakes the thread only for a new head earlier than the one it parked
//! toward; any change of the head bumps `head_gen`, which ends a spin; drop
//! sets `shutdown` and notifies under the lock, so the wakeup is not lost.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::stats::OnlineStats;
use crate::time::SPIN_THRESHOLD;

/// Callback type executed when a timer fires.
///
/// Callbacks run *on the timer thread* and must be short (the coalescer's
/// callback merely moves a queue into the outbound message path); long
/// callbacks delay subsequent deadlines.
pub type TimerCallback = Box<dyn FnOnce() + Send + 'static>;

/// A timer's place in the queue: its deadline, then its arming order.
type Key = (Instant, u64);

/// Where the timer thread waits, as published under the queue lock.
#[derive(Clone, Copy)]
enum Waiting {
    No,
    Toward(Instant),
    Forever,
}

struct Queue {
    timers: BTreeMap<Key, TimerCallback>,
    waiting: Waiting,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    cond: Condvar,
    /// Bumped under the lock whenever the first key changes or shutdown
    /// starts; the spin stretch leaves when it moves.
    head_gen: AtomicU64,
    next_id: AtomicU64,
    fired: AtomicU64,
    cancelled: AtomicU64,
    spins: AtomicU64,
    accuracy: Mutex<OnlineStats>,
}

/// A handle to a single armed timer; used to cancel it.
///
/// Dropping the handle does *not* cancel the timer (the coalescer keeps
/// flushing on timeout even if the arming code has moved on).
#[derive(Clone)]
pub struct TimerHandle {
    key: Key,
    inner: Weak<Inner>,
}

impl TimerHandle {
    /// Cancel the timer.
    ///
    /// Returns `true` if the timer was still pending (its callback will not
    /// run); `false` if it already fired, was already cancelled, or the
    /// service has shut down.
    pub fn cancel(&self) -> bool {
        let Some(inner) = self.inner.upgrade() else {
            return false;
        };
        let mut q = inner.queue.lock();
        if q.timers.keys().next() == Some(&self.key) {
            inner.head_gen.fetch_add(1, Ordering::Release);
        }
        let Some(callback) = q.timers.remove(&self.key) else {
            return false;
        };
        // Drop the callback after the lock: its captures may own state
        // whose drop arms or cancels a timer.
        drop(q);
        drop(callback);
        inner.cancelled.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Whether this timer is still pending (armed and not yet fired or
    /// cancelled).
    pub fn is_pending(&self) -> bool {
        self.inner
            .upgrade()
            .is_some_and(|inner| inner.queue.lock().timers.contains_key(&self.key))
    }
}

/// Summary statistics about a timer service's firing accuracy.
#[derive(Debug, Clone, Copy)]
pub struct TimerAccuracy {
    /// Number of timers fired.
    pub fired: u64,
    /// Number of timers cancelled before firing.
    pub cancelled: u64,
    /// Number of spin stretches the thread entered toward a deadline.
    pub spins: u64,
    /// Mean absolute firing error in microseconds.
    pub mean_error_us: f64,
    /// Maximum absolute firing error in microseconds.
    pub max_error_us: f64,
    /// Standard deviation of the firing error in microseconds.
    pub stddev_error_us: f64,
}

/// A deadline timer service running on a dedicated thread.
///
/// # Example
/// ```
/// use rpx_util::TimerService;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let svc = TimerService::new("doc-timer");
/// let fired = Arc::new(AtomicBool::new(false));
/// let f2 = fired.clone();
/// svc.arm_after(Duration::from_micros(500), move || {
///     f2.store(true, Ordering::SeqCst);
/// });
/// std::thread::sleep(Duration::from_millis(20));
/// assert!(fired.load(Ordering::SeqCst));
/// ```
pub struct TimerService {
    inner: Arc<Inner>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TimerService {
    /// Spawn a new timer service with its own dedicated thread.
    pub fn new(name: &str) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                timers: BTreeMap::new(),
                waiting: Waiting::No,
                shutdown: false,
            }),
            cond: Condvar::new(),
            head_gen: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            fired: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            spins: AtomicU64::new(0),
            accuracy: Mutex::new(OnlineStats::new()),
        });
        let thread_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name(format!("rpx-timer-{name}"))
            .spawn(move || timer_loop(thread_inner))
            .expect("failed to spawn timer thread");
        TimerService {
            inner,
            thread: Some(thread),
        }
    }

    /// Arm a timer that fires at `deadline`.
    pub fn arm_at(
        &self,
        deadline: Instant,
        callback: impl FnOnce() + Send + 'static,
    ) -> TimerHandle {
        let key = (deadline, self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let wake = {
            let mut q = self.inner.queue.lock();
            let is_head = q.timers.keys().next().is_none_or(|head| key < *head);
            q.timers.insert(key, Box::new(callback));
            if is_head {
                self.inner.head_gen.fetch_add(1, Ordering::Release);
            }
            // A thread that is not parked re-reads the queue on its own; one
            // parked toward an earlier deadline wakes in time for this one.
            is_head
                && match q.waiting {
                    Waiting::No => false,
                    Waiting::Toward(target) => deadline < target,
                    Waiting::Forever => true,
                }
        };
        if wake {
            self.inner.cond.notify_one();
        }
        TimerHandle {
            key,
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Arm a timer that fires after `delay`.
    pub fn arm_after(
        &self,
        delay: Duration,
        callback: impl FnOnce() + Send + 'static,
    ) -> TimerHandle {
        self.arm_at(Instant::now() + delay, callback)
    }

    /// Number of timers currently pending.
    pub fn pending(&self) -> usize {
        self.inner.queue.lock().timers.len()
    }

    /// Firing accuracy statistics accumulated so far.
    pub fn accuracy(&self) -> TimerAccuracy {
        let stats = self.inner.accuracy.lock().clone();
        TimerAccuracy {
            fired: self.inner.fired.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            spins: self.inner.spins.load(Ordering::Relaxed),
            mean_error_us: stats.mean(),
            max_error_us: stats.max().unwrap_or(0.0),
            stddev_error_us: stats.stddev(),
        }
    }
}

impl Drop for TimerService {
    fn drop(&mut self) {
        {
            let mut q = self.inner.queue.lock();
            q.shutdown = true;
            self.inner.head_gen.fetch_add(1, Ordering::Release);
            self.inner.cond.notify_all();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn timer_loop(inner: Arc<Inner>) {
    let mut q = inner.queue.lock();
    loop {
        if q.shutdown {
            return;
        }
        let now = Instant::now();
        let Some(&(deadline, _)) = q.timers.keys().next() else {
            q.waiting = Waiting::Forever;
            inner.cond.wait(&mut q);
            q.waiting = Waiting::No;
            continue;
        };
        if deadline > now {
            if deadline - now > SPIN_THRESHOLD {
                // Park until just before the deadline; an earlier timer
                // armed meanwhile wakes us via the condvar.
                q.waiting = Waiting::Toward(deadline);
                let _ = inner.cond.wait_until(&mut q, deadline - SPIN_THRESHOLD);
                q.waiting = Waiting::No;
                continue;
            }
            // Spin the final stretch outside the lock so arming threads are
            // not blocked; leave early if the head changes.
            let gen = inner.head_gen.load(Ordering::Acquire);
            inner.spins.fetch_add(1, Ordering::Relaxed);
            drop(q);
            while Instant::now() < deadline && inner.head_gen.load(Ordering::Acquire) == gen {
                std::hint::spin_loop();
            }
            q = inner.queue.lock();
            continue;
        }
        // Take every due entry; callbacks run outside the lock.
        let later = q.timers.split_off(&(now, u64::MAX));
        let due = std::mem::replace(&mut q.timers, later);
        drop(q);
        let now = Instant::now();
        for ((deadline, _), callback) in due {
            let err_us = now.saturating_duration_since(deadline).as_secs_f64() * 1e6;
            inner.accuracy.lock().push(err_us);
            inner.fired.fetch_add(1, Ordering::Relaxed);
            callback();
        }
        q = inner.queue.lock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fires_in_order() {
        let svc = TimerService::new("test-order");
        let order = Arc::new(Mutex::new(Vec::new()));
        for (delay_us, tag) in [(3000u64, 3), (1000, 1), (2000, 2)] {
            let order = Arc::clone(&order);
            svc.arm_after(Duration::from_micros(delay_us), move || {
                order.lock().push(tag);
            });
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(*order.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn cancel_prevents_firing() {
        let svc = TimerService::new("test-cancel");
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let handle = svc.arm_after(Duration::from_millis(5), move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert!(handle.is_pending());
        assert!(handle.cancel());
        assert!(!handle.is_pending());
        // Second cancel is a no-op.
        assert!(!handle.cancel());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert_eq!(svc.accuracy().cancelled, 1);
        assert_eq!(svc.accuracy().fired, 0);
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let svc = TimerService::new("test-late-cancel");
        let handle = svc.arm_after(Duration::from_micros(100), || {});
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.cancel());
        assert_eq!(svc.accuracy().fired, 1);
    }

    #[test]
    fn earlier_timer_preempts_parked_wait() {
        let svc = TimerService::new("test-preempt");
        let hits: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let h1 = Arc::clone(&hits);
        svc.arm_after(Duration::from_millis(50), move || h1.lock().push("late"));
        // Arm a much earlier timer while the thread is parked on the 50 ms one.
        std::thread::sleep(Duration::from_millis(2));
        let h2 = Arc::clone(&hits);
        svc.arm_after(Duration::from_millis(1), move || h2.lock().push("early"));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(*hits.lock(), vec!["early"]);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(*hits.lock(), vec!["early", "late"]);
    }

    #[test]
    fn accuracy_is_sub_millisecond_on_average() {
        // The paper reports ≈33 µs mean error; we only assert a loose bound
        // here to stay robust on loaded CI machines. The bench harness
        // reports the precise distribution.
        let svc = TimerService::new("test-accuracy");
        let done = Arc::new(AtomicUsize::new(0));
        let n = 50;
        for i in 0..n {
            let d = Arc::clone(&done);
            svc.arm_after(Duration::from_micros(300 + 137 * i as u64), move || {
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while done.load(Ordering::SeqCst) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), n);
        let acc = svc.accuracy();
        assert_eq!(acc.fired, n as u64);
        assert!(
            acc.mean_error_us < 5_000.0,
            "mean firing error too large: {} µs",
            acc.mean_error_us
        );
    }

    #[test]
    fn pending_count_tracks_state() {
        let svc = TimerService::new("test-pending");
        assert_eq!(svc.pending(), 0);
        let _h1 = svc.arm_after(Duration::from_secs(10), || {});
        let h2 = svc.arm_after(Duration::from_secs(10), || {});
        assert_eq!(svc.pending(), 2);
        h2.cancel();
        assert_eq!(svc.pending(), 1);
    }

    #[test]
    fn drop_joins_cleanly_with_pending_timers() {
        let svc = TimerService::new("test-drop");
        for _ in 0..8 {
            svc.arm_after(Duration::from_secs(60), || {});
        }
        drop(svc); // must not hang
    }

    #[test]
    fn handle_outliving_service_is_inert() {
        let handle = {
            let svc = TimerService::new("test-weak");
            svc.arm_after(Duration::from_secs(60), || {})
        };
        assert!(!handle.is_pending());
        assert!(!handle.cancel());
    }
}
