//! The work-stealing scheduler.
//!
//! N OS worker threads share an injector queue and per-worker deques
//! (crossbeam). Between tasks — and while idle — every worker polls the
//! registered [`BackgroundWork`] items; this is where the parcel subsystem
//! hangs its message pump, mirroring HPX's design of running network
//! progress as *background work* on scheduler threads. All time is
//! accounted per [`crate::stats::ThreadStats`].
//!
//! ## Ingress fast path
//!
//! Three mechanisms keep the parcel→task conversion cheap at high rates:
//!
//! * **Batched spawning** ([`Scheduler::spawn_batch`]): all tasks decoded
//!   from one coalesced message are admitted with a single `pending` add,
//!   a single stats update, and a bounded wakeup sweep — instead of one
//!   of each per parcel.
//! * **Sleeper accounting**: an explicit count of parked workers lets
//!   `spawn`/`spawn_batch`/`notify` skip the condvar syscall entirely
//!   when every worker is already running (the common case under load);
//!   elided wakeups are counted (`/threads/wakeups-skipped`).
//! * **Worker-local submission**: spawns issued *from* a worker thread of
//!   this scheduler push straight into that worker's own queue — which
//!   `find_task` drains ahead of the shared injector — so the pumping
//!   worker never contends on the injector for its own ingress batch.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_deque::{Injector, Steal, Stealer, Worker as WorkerQueue};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::stats::ThreadStats;
use crate::task::Task;

/// Work polled by schedulers between tasks and while idle.
///
/// Implementations must be cheap when there is nothing to do and must
/// tolerate being polled concurrently from several workers.
pub trait BackgroundWork: Send + Sync {
    /// Poll once. Return `true` if any work was performed (the scheduler
    /// then polls again immediately instead of parking).
    fn run(&self) -> bool;

    /// Diagnostic name.
    fn name(&self) -> &str {
        "background"
    }
}

/// Scheduler construction parameters.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Number of OS worker threads.
    pub workers: usize,
    /// Name prefix for worker threads (shows up in debuggers/profilers).
    pub name: String,
    /// How long an idle worker parks before re-polling background work.
    ///
    /// This bounds the latency with which a completely idle scheduler
    /// notices new network traffic; busy schedulers poll continuously.
    pub idle_park: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            name: "rpx".to_string(),
            idle_park: Duration::from_micros(200),
        }
    }
}

thread_local! {
    /// Identity of the scheduler worker running on this thread, if any:
    /// the owning `Inner` (as a type-erased pointer, the identity key)
    /// and that worker's own queue. Set for the lifetime of
    /// `worker_loop`, cleared on exit/unwind by [`WorkerTlsGuard`].
    static CURRENT_WORKER: Cell<(*const (), *const WorkerQueue<Task>)> =
        const { Cell::new((std::ptr::null(), std::ptr::null())) };
}

/// Clears [`CURRENT_WORKER`] when the worker loop exits (including by
/// panic unwind), so the stack-owned queue is never reachable after it
/// is gone.
struct WorkerTlsGuard;

impl Drop for WorkerTlsGuard {
    fn drop(&mut self) {
        CURRENT_WORKER.with(|c| c.set((std::ptr::null(), std::ptr::null())));
    }
}

struct Inner {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    background: RwLock<Arc<Vec<Arc<dyn BackgroundWork>>>>,
    /// Accounting-excluded aux background work (the telemetry sampler):
    /// polled like `background`, but its time is charged to the separate
    /// telemetry account so the Eq. 1–4 integrals stay undistorted by the
    /// act of measuring them.
    aux: RwLock<Arc<Vec<Arc<dyn BackgroundWork>>>>,
    /// Fast-path flag mirroring `!aux.is_empty()`, so the idle loop pays
    /// one relaxed load — not an RwLock read — when telemetry is off.
    has_aux: AtomicBool,
    stats: Arc<ThreadStats>,
    shutdown: AtomicBool,
    /// Tasks spawned but not yet completed (includes currently running).
    ///
    /// Ordering invariant (the reason `SeqCst` is unnecessary): the
    /// increment (`AcqRel`) happens *before* the task is published to a
    /// queue, and the decrement (`AcqRel`, with its Release half) happens
    /// only *after* the task body has run. A [`Scheduler::wait_idle`]
    /// waiter that loads 0 with `Acquire` therefore synchronizes-with
    /// every decrement and observes all completed tasks' effects; it can
    /// never see 0 while a published task has not run. There is no
    /// multi-variable total-order requirement, only these pairings.
    pending: AtomicUsize,
    /// Workers currently parked in `sleep_cv` (maintained under
    /// `sleep_lock`; read lock-free by the wakeup fast path).
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    /// Waiters blocked in `wait_idle`, woken when `pending` hits zero.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    idle_park: Duration,
}

impl Inner {
    /// Wake `wait_idle` waiters after the last pending task completed.
    ///
    /// Taking `idle_lock` orders this notify after any waiter's
    /// pending-recheck: a waiter holding the lock either sees
    /// `pending == 0` or reaches its wait before we can acquire the lock
    /// and notify — the check-then-wait race cannot lose the wakeup.
    fn notify_idle_waiters(&self) {
        let _guard = self.idle_lock.lock();
        self.idle_cv.notify_all();
    }

    /// Wake up to `n` parked workers, skipping the condvar entirely when
    /// nobody is parked.
    ///
    /// The `SeqCst` fence pairs with the `SeqCst` sleeper increment in
    /// `worker_loop` (Dekker pattern): either this load observes the
    /// sleeper (and we notify), or the sleeper's post-increment queue
    /// re-check observes the task published before this fence (and it
    /// does not park). A residual miss against the *background-work*
    /// probe (which is not a queue) is bounded by `idle_park`, exactly as
    /// with the unconditional notify this replaces.
    ///
    /// A sleeper holds `sleep_lock` from its increment until its wait
    /// releases it, so passing through the lock before notifying means
    /// the sleeper has either re-checked the queues after our publish or
    /// is registered on the condvar — which skips the notify only when
    /// nobody waits.
    fn wake_workers(&self, n: usize) {
        fence(Ordering::SeqCst);
        let sleepers = self.sleepers.load(Ordering::Relaxed);
        if sleepers == 0 {
            self.stats.count_wakeup_skipped();
            return;
        }
        drop(self.sleep_lock.lock());
        if n >= sleepers {
            self.sleep_cv.notify_all();
        } else {
            for _ in 0..n {
                self.sleep_cv.notify_one();
            }
        }
    }
}

/// A work-stealing scheduler of lightweight tasks.
pub struct Scheduler {
    inner: Arc<Inner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
}

impl Scheduler {
    /// Spawn a scheduler with the given configuration.
    pub fn new(config: SchedulerConfig) -> Arc<Self> {
        assert!(config.workers > 0, "scheduler needs at least one worker");
        let queues: Vec<WorkerQueue<Task>> = (0..config.workers)
            .map(|_| WorkerQueue::new_fifo())
            .collect();
        let stealers = queues.iter().map(|q| q.stealer()).collect();
        let inner = Arc::new(Inner {
            injector: Injector::new(),
            stealers,
            background: RwLock::new(Arc::new(Vec::new())),
            aux: RwLock::new(Arc::new(Vec::new())),
            has_aux: AtomicBool::new(false),
            stats: Arc::new(ThreadStats::new()),
            shutdown: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            idle_park: config.idle_park,
        });
        let mut threads = Vec::with_capacity(config.workers);
        for (idx, queue) in queues.into_iter().enumerate() {
            let inner = Arc::clone(&inner);
            let name = format!("{}-worker-{idx}", config.name);
            threads.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(inner, queue, idx))
                    .expect("failed to spawn scheduler worker"),
            );
        }
        Arc::new(Scheduler {
            inner,
            threads: Mutex::new(threads),
            workers: config.workers,
        })
    }

    /// Spawn a scheduler with default configuration and `workers` threads.
    pub fn with_workers(workers: usize) -> Arc<Self> {
        Scheduler::new(SchedulerConfig {
            workers,
            ..Default::default()
        })
    }

    /// Schedule a task.
    ///
    /// # Panics
    /// Panics if the scheduler has been shut down.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.spawn_task(Task::new(f));
    }

    /// Schedule an already-boxed task closure without re-boxing it (the
    /// parcel receive path hands over `Box<dyn FnOnce>` directly).
    ///
    /// # Panics
    /// Panics if the scheduler has been shut down.
    pub fn spawn_boxed(&self, f: Box<dyn FnOnce() + Send + 'static>) {
        self.spawn_task(Task::from_boxed(f));
    }

    fn spawn_task(&self, task: Task) {
        assert!(
            !self.inner.shutdown.load(Ordering::SeqCst),
            "spawn on a shut-down scheduler"
        );
        // Rise before publication (see `Inner::pending` invariant).
        self.inner.pending.fetch_add(1, Ordering::AcqRel);
        self.inner.stats.count_spawn();
        self.submit(task);
        self.inner.wake_workers(1);
    }

    /// Schedule a batch of tasks as one admission: a single `pending`
    /// add, a single stats update, and one bounded wakeup sweep for the
    /// whole batch — the receive-side dual of send-side coalescing. From
    /// a worker thread of this scheduler the tasks land in that worker's
    /// own queue (drained ahead of the injector); peers steal any excess.
    ///
    /// # Panics
    /// Panics if the scheduler has been shut down.
    pub fn spawn_batch<I>(&self, tasks: I)
    where
        I: IntoIterator<Item = Box<dyn FnOnce() + Send + 'static>>,
        I::IntoIter: ExactSizeIterator,
    {
        let tasks = tasks.into_iter();
        let n = tasks.len();
        if n == 0 {
            return;
        }
        assert!(
            !self.inner.shutdown.load(Ordering::SeqCst),
            "spawn on a shut-down scheduler"
        );
        // One rise of N before any task is published (see `Inner::pending`
        // invariant); `ExactSizeIterator` makes N known up front.
        self.inner.pending.fetch_add(n, Ordering::AcqRel);
        self.inner.stats.count_spawn_batch(n as u64);
        let mut pushed = 0usize;
        for f in tasks {
            self.submit(Task::from_boxed(f));
            pushed += 1;
        }
        debug_assert_eq!(pushed, n, "ExactSizeIterator lied about its length");
        if pushed < n {
            // Defensive: an iterator that under-delivers must not strand
            // `pending` above zero forever.
            self.inner.pending.fetch_sub(n - pushed, Ordering::AcqRel);
        }
        self.inner.wake_workers(n);
    }

    /// Push one task: into the calling worker's own queue when the caller
    /// is a worker of *this* scheduler, else into the shared injector.
    fn submit(&self, task: Task) {
        let me = Arc::as_ptr(&self.inner) as *const ();
        CURRENT_WORKER.with(|c| {
            let (owner, queue) = c.get();
            if owner == me {
                // SAFETY: `queue` points at the `WorkerQueue` owned by
                // `worker_loop` on *this* thread's stack; it is valid for
                // the loop's whole lifetime and the TLS entry is cleared
                // (WorkerTlsGuard) before the loop returns or unwinds.
                // Only this thread ever pushes through this pointer, and
                // `WorkerQueue::push` takes `&self`.
                unsafe { (*queue).push(task) };
            } else {
                self.inner.injector.push(task);
            }
        });
    }

    /// Register a background work item polled by all workers.
    pub fn add_background(&self, work: Arc<dyn BackgroundWork>) {
        let mut guard = self.inner.background.write();
        let mut list: Vec<Arc<dyn BackgroundWork>> = guard.as_ref().clone();
        list.push(work);
        *guard = Arc::new(list);
        self.inner.sleep_cv.notify_all();
    }

    /// Register *aux* background work: polled exactly like
    /// [`Scheduler::add_background`], but its time is charged to the
    /// accounting-excluded telemetry account instead of the Eq. 3
    /// background account. This is how the counter sampler runs as
    /// background work while leaving the Eq. 1–4 accounting intact.
    pub fn add_aux_background(&self, work: Arc<dyn BackgroundWork>) {
        let mut guard = self.inner.aux.write();
        let mut list: Vec<Arc<dyn BackgroundWork>> = guard.as_ref().clone();
        list.push(work);
        *guard = Arc::new(list);
        self.inner.has_aux.store(true, Ordering::Release);
        self.inner.sleep_cv.notify_all();
    }

    /// Wake all parked workers (e.g. after enqueuing network traffic from
    /// a non-worker thread). A no-op when no worker is parked — skipped
    /// wakeups are counted under `/threads/wakeups-skipped`.
    pub fn notify(&self) {
        self.inner.wake_workers(usize::MAX);
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Tasks spawned but not yet completed.
    pub fn pending_tasks(&self) -> usize {
        // Acquire pairs with the completing decrement's Release half (see
        // `Inner::pending`).
        self.inner.pending.load(Ordering::Acquire)
    }

    /// Workers currently parked waiting for work (diagnostic; racy by
    /// nature).
    pub fn sleepers(&self) -> usize {
        self.inner.sleepers.load(Ordering::Relaxed)
    }

    /// The shared time-accounting stats.
    pub fn stats(&self) -> &Arc<ThreadStats> {
        &self.inner.stats
    }

    /// Steal one pending task and run it inline on the calling thread.
    ///
    /// This is the "help while blocked" primitive: a task waiting on a
    /// future calls this so progress continues even when every worker is
    /// occupied by a blocked waiter (single-worker configurations would
    /// otherwise deadlock). Time is attributed to the caller's existing
    /// account (the outer task's execution time already covers it); only
    /// the task count is recorded. Returns `true` if a task was run.
    ///
    /// Note: the helped task runs on the caller's stack; deeply nested
    /// chains of blocking tasks deepen the stack accordingly.
    pub fn help_one(&self) -> bool {
        let task = 'found: loop {
            match self.inner.injector.steal() {
                Steal::Success(t) => break 'found Some(t),
                Steal::Retry => continue,
                Steal::Empty => {}
            }
            let mut retry = false;
            for stealer in &self.inner.stealers {
                match stealer.steal() {
                    Steal::Success(t) => {
                        self.inner.stats.count_steal();
                        break 'found Some(t);
                    }
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if !retry {
                break 'found None;
            }
        };
        match task {
            Some(task) => {
                task.run();
                self.inner.stats.count_task();
                // Fall after completion (see `Inner::pending` invariant).
                if self.inner.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.inner.notify_idle_waiters();
                }
                true
            }
            None => false,
        }
    }

    /// Block until no tasks are pending, or `timeout` elapses.
    ///
    /// Returns `true` on quiescence. Note background work keeps being
    /// polled by the workers throughout. Waits on a condvar signalled by
    /// the last task completion rather than sleep-polling.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.inner.idle_lock.lock();
        while self.pending_tasks() > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let _ = self.inner.idle_cv.wait_for(&mut guard, deadline - now);
        }
        true
    }

    /// Shut the scheduler down: drain queued tasks, stop workers, join.
    ///
    /// Idempotent. Called automatically on drop.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Unconditional: every parked worker must observe the flag. A
        // worker checks it under `sleep_lock` before parking, so passing
        // through the lock orders this notify after that check.
        drop(self.inner.sleep_lock.lock());
        self.inner.sleep_cv.notify_all();
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn find_task(inner: &Inner, local: &WorkerQueue<Task>, idx: usize) -> Option<Task> {
    if let Some(t) = local.pop() {
        return Some(t);
    }
    loop {
        // Prefer the injector (fresh work), then steal from peers.
        match inner.injector.steal_batch_and_pop(local) {
            Steal::Success(t) => return Some(t),
            Steal::Retry => continue,
            Steal::Empty => {}
        }
        let mut retry = false;
        for (i, stealer) in inner.stealers.iter().enumerate() {
            if i == idx {
                continue;
            }
            match stealer.steal() {
                Steal::Success(t) => {
                    inner.stats.count_steal();
                    return Some(t);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
    }
}

fn run_background(inner: &Inner) -> bool {
    let list = Arc::clone(&inner.background.read());
    let mut did_work = false;
    for work in list.iter() {
        if work.run() {
            did_work = true;
        }
    }
    did_work
}

/// Poll aux background work (the telemetry sampler) and charge its time to
/// the accounting-excluded telemetry account.
///
/// Only polls that actually did work pay for a clock read and a telemetry
/// charge; a dry probe's cost folds into whichever account closes at the
/// next boundary, keeping the idle-loop overhead near zero. The return
/// value deliberately does NOT feed the parking decision: a periodic
/// sampler firing must not keep a worker spinning.
fn run_aux(inner: &Inner, mark: &mut Instant) {
    if !inner.has_aux.load(Ordering::Acquire) {
        return;
    }
    let list = Arc::clone(&inner.aux.read());
    let mut did_work = false;
    for work in list.iter() {
        if work.run() {
            did_work = true;
        }
    }
    if did_work {
        let aux_end = Instant::now();
        inner.stats.add_telemetry(aux_end.duration_since(*mark));
        *mark = aux_end;
    }
}

/// Is there anything queued for this worker to run?
///
/// Checked after the sleeper count rises and before parking; pairs with
/// the fence in [`Inner::wake_workers`] so a task published right before
/// a skipped wakeup is seen here.
fn has_queued_work(inner: &Inner, local: &WorkerQueue<Task>) -> bool {
    !inner.injector.is_empty() || !local.is_empty()
}

fn worker_loop(inner: Arc<Inner>, local: WorkerQueue<Task>, idx: usize) {
    // Publish this worker's identity so same-thread spawns go straight to
    // `local` (see Scheduler::submit). The guard clears it on any exit.
    let _tls_guard = WorkerTlsGuard;
    CURRENT_WORKER.with(|c| {
        c.set((
            Arc::as_ptr(&inner) as *const (),
            &local as *const WorkerQueue<Task>,
        ))
    });
    // Timestamps are amortized: each account boundary reuses the reading
    // that closed the previous account, so a task costs two clock reads
    // (mgmt→exec and exec→mgmt) instead of four.
    let mut mark = Instant::now();
    loop {
        match find_task(&inner, &local, idx) {
            Some(task) => {
                let exec_start = Instant::now();
                inner.stats.add_mgmt(exec_start.duration_since(mark));
                task.run();
                let exec_end = Instant::now();
                inner.stats.add_exec(exec_end.duration_since(exec_start));
                inner.stats.count_task();
                // Fall after completion (see `Inner::pending` invariant).
                if inner.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last task completed; wake wait_idle waiters.
                    inner.notify_idle_waiters();
                }
                mark = exec_end;
            }
            None => {
                let bg_start = Instant::now();
                inner.stats.add_mgmt(bg_start.duration_since(mark));
                let did_work = run_background(&inner);
                inner.stats.count_background_poll();
                let bg_end = Instant::now();
                inner.stats.add_background(bg_end.duration_since(bg_start));
                mark = bg_end;
                run_aux(&inner, &mut mark);
                // Exit check must not depend on background work running
                // dry — a pump that always reports progress would
                // otherwise pin the worker forever.
                if inner.shutdown.load(Ordering::SeqCst) {
                    // Task queues drained and asked to stop.
                    return;
                }
                if !did_work {
                    let mut guard = inner.sleep_lock.lock();
                    // Advertise the sleeper *before* the final queue
                    // probe: the SeqCst RMW pairs with the fence in
                    // `wake_workers` — a producer that skipped its wakeup
                    // published its task before our re-check.
                    inner.sleepers.fetch_add(1, Ordering::SeqCst);
                    if !has_queued_work(&inner, &local) && !inner.shutdown.load(Ordering::SeqCst) {
                        let _ = inner.sleep_cv.wait_for(&mut guard, inner.idle_park);
                    }
                    inner.sleepers.fetch_sub(1, Ordering::Relaxed);
                    drop(guard);
                    let idle_end = Instant::now();
                    inner.stats.add_idle(idle_end.duration_since(mark));
                    mark = idle_end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn scheduler(workers: usize) -> Arc<Scheduler> {
        Scheduler::new(SchedulerConfig {
            workers,
            name: "test".into(),
            idle_park: Duration::from_micros(200),
        })
    }

    #[test]
    fn executes_spawned_tasks() {
        let s = scheduler(2);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 1..=100u64 {
            let sum = Arc::clone(&sum);
            s.spawn(move || {
                sum.fetch_add(i, Ordering::SeqCst);
            });
        }
        assert!(s.wait_idle(Duration::from_secs(5)));
        assert_eq!(sum.load(Ordering::SeqCst), 5050);
        let snap = s.stats().snapshot();
        assert_eq!(snap.tasks_executed, 100);
        assert_eq!(snap.tasks_spawned, 100);
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let s = scheduler(2);
        let count = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&s);
        let c2 = Arc::clone(&count);
        s.spawn(move || {
            for _ in 0..10 {
                let c = Arc::clone(&c2);
                s2.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert!(s.wait_idle(Duration::from_secs(5)));
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn single_worker_also_works() {
        let s = scheduler(1);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let h = Arc::clone(&hits);
            s.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert!(s.wait_idle(Duration::from_secs(5)));
        assert_eq!(hits.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn background_work_is_polled() {
        struct Poller(AtomicU64);
        impl BackgroundWork for Poller {
            fn run(&self) -> bool {
                self.0.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
        let s = scheduler(2);
        let p = Arc::new(Poller(AtomicU64::new(0)));
        s.add_background(p.clone());
        std::thread::sleep(Duration::from_millis(20));
        assert!(p.0.load(Ordering::Relaxed) > 10, "background not polled");
        let snap = s.stats().snapshot();
        assert!(snap.background_polls > 0);
    }

    #[test]
    fn background_time_is_charged() {
        struct Burner;
        impl BackgroundWork for Burner {
            fn run(&self) -> bool {
                rpx_util::busy_charge(Duration::from_micros(50));
                // Report work so workers keep polling without parking.
                true
            }
        }
        let s = scheduler(1);
        s.add_background(Arc::new(Burner));
        std::thread::sleep(Duration::from_millis(30));
        let snap = s.stats().snapshot();
        assert!(
            snap.background_ns > 1_000_000,
            "expected >1 ms of background time, got {} ns",
            snap.background_ns
        );
        // With no tasks executed, network overhead tends to 1.0.
        assert!(snap.network_overhead() > 0.5);
    }

    #[test]
    fn aux_work_is_charged_to_telemetry_not_background() {
        struct AuxBurner;
        impl BackgroundWork for AuxBurner {
            fn run(&self) -> bool {
                rpx_util::busy_charge(Duration::from_micros(50));
                true
            }
        }
        let s = scheduler(1);
        s.add_aux_background(Arc::new(AuxBurner));
        std::thread::sleep(Duration::from_millis(30));
        let snap = s.stats().snapshot();
        assert!(
            snap.telemetry_ns > 1_000_000,
            "expected >1 ms of telemetry time, got {} ns",
            snap.telemetry_ns
        );
        // The aux burner's time must not pollute the Eq. 3 background
        // account: the regular background polls here are all empty.
        assert!(
            snap.background_ns < snap.telemetry_ns / 2,
            "background {} ns vs telemetry {} ns",
            snap.background_ns,
            snap.telemetry_ns
        );
    }

    #[test]
    fn exec_time_dominates_for_busy_tasks() {
        let s = scheduler(2);
        for _ in 0..20 {
            s.spawn(|| {
                rpx_util::busy_charge(Duration::from_micros(200));
            });
        }
        assert!(s.wait_idle(Duration::from_secs(5)));
        let snap = s.stats().snapshot();
        assert!(snap.exec_ns >= 20 * 200_000 / 2, "exec {} ns", snap.exec_ns);
        assert!(snap.network_overhead() < 0.9);
        assert!(snap.task_overhead_ns() >= 0.0);
    }

    #[test]
    fn work_is_distributed_across_workers() {
        // With many parallel blocking tasks, a single worker cannot finish
        // in time; success implies real parallelism.
        let s = scheduler(4);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        for _ in 0..4 {
            let b = Arc::clone(&barrier);
            s.spawn(move || {
                b.wait();
            });
        }
        assert!(
            s.wait_idle(Duration::from_secs(5)),
            "barrier tasks deadlocked: tasks not running in parallel"
        );
    }

    #[test]
    fn shutdown_drains_and_is_idempotent() {
        let s = scheduler(2);
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&count);
            s.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        s.wait_idle(Duration::from_secs(5));
        s.shutdown();
        s.shutdown(); // idempotent
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    #[should_panic(expected = "shut-down")]
    fn spawn_after_shutdown_panics() {
        let s = scheduler(1);
        s.shutdown();
        s.spawn(|| {});
    }

    #[test]
    #[should_panic(expected = "shut-down")]
    fn spawn_batch_after_shutdown_panics() {
        let s = scheduler(1);
        s.shutdown();
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| {})];
        s.spawn_batch(tasks);
    }

    #[test]
    fn wait_idle_times_out() {
        let s = scheduler(1);
        s.spawn(|| std::thread::sleep(Duration::from_millis(200)));
        assert!(!s.wait_idle(Duration::from_millis(10)));
        assert!(s.wait_idle(Duration::from_secs(5)));
    }

    #[test]
    fn wait_idle_returns_promptly_without_polling() {
        // The condvar-based wait must return well under the old 100 µs
        // poll granularity *after* the last task completes — here we just
        // assert correctness plus a sane upper bound on total wait.
        let s = scheduler(2);
        for _ in 0..64 {
            s.spawn(|| {});
        }
        let t0 = Instant::now();
        assert!(s.wait_idle(Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(s.pending_tasks(), 0);
    }

    #[test]
    fn pending_tasks_tracks_in_flight() {
        let s = scheduler(1);
        assert_eq!(s.pending_tasks(), 0);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        s.spawn(move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(s.pending_tasks(), 1);
        gate.store(true, Ordering::SeqCst);
        assert!(s.wait_idle(Duration::from_secs(5)));
        assert_eq!(s.pending_tasks(), 0);
    }

    #[test]
    fn many_tasks_stress() {
        let s = scheduler(4);
        let sum = Arc::new(AtomicU64::new(0));
        let n = 20_000u64;
        for _ in 0..n {
            let sum = Arc::clone(&sum);
            s.spawn(move || {
                sum.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(s.wait_idle(Duration::from_secs(30)));
        assert_eq!(sum.load(Ordering::Relaxed), n);
        assert_eq!(s.stats().snapshot().tasks_executed, n);
    }

    #[test]
    fn spawn_batch_executes_all_tasks_once() {
        let s = scheduler(2);
        let sum = Arc::new(AtomicU64::new(0));
        let batch: Vec<Box<dyn FnOnce() + Send>> = (1..=100u64)
            .map(|i| {
                let sum = Arc::clone(&sum);
                Box::new(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        s.spawn_batch(batch);
        assert!(s.wait_idle(Duration::from_secs(5)));
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        let snap = s.stats().snapshot();
        assert_eq!(snap.tasks_spawned, 100);
        assert_eq!(snap.tasks_executed, 100);
        assert_eq!(snap.spawn_batches, 1);
        assert_eq!(snap.batched_tasks, 100);
    }

    #[test]
    fn spawn_batch_of_nothing_is_a_noop() {
        let s = scheduler(1);
        s.spawn_batch(Vec::new());
        assert_eq!(s.pending_tasks(), 0);
        assert_eq!(s.stats().snapshot().spawn_batches, 0);
    }

    #[test]
    fn worker_local_spawns_run_and_balance() {
        // A task spawning from a worker thread goes to that worker's own
        // queue; everything still executes, and other workers can steal.
        let s = scheduler(2);
        let count = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&s);
        let c2 = Arc::clone(&count);
        s.spawn(move || {
            let batch: Vec<Box<dyn FnOnce() + Send>> = (0..256)
                .map(|_| {
                    let c = Arc::clone(&c2);
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            s2.spawn_batch(batch);
        });
        assert!(s.wait_idle(Duration::from_secs(5)));
        assert_eq!(count.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn spawns_from_foreign_worker_use_injector() {
        // A worker of scheduler A spawning on scheduler B must not treat
        // A's local queue as B's: the task lands in B's injector and runs
        // on B's workers.
        let a = scheduler(1);
        let b = scheduler(1);
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        let b2 = Arc::clone(&b);
        a.spawn(move || {
            let h = Arc::clone(&h);
            b2.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert!(a.wait_idle(Duration::from_secs(5)));
        assert!(b.wait_idle(Duration::from_secs(5)));
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn n_producer_spawn_batch_steal_stress() {
        // Several external producers push batches concurrently while the
        // workers drain and steal; every task must run exactly once.
        let s = scheduler(4);
        let count = Arc::new(AtomicU64::new(0));
        let producers = 4;
        let batches = 50;
        let batch_len = 64u64;
        let handles: Vec<_> = (0..producers)
            .map(|_| {
                let s = Arc::clone(&s);
                let count = Arc::clone(&count);
                std::thread::spawn(move || {
                    for _ in 0..batches {
                        let batch: Vec<Box<dyn FnOnce() + Send>> = (0..batch_len)
                            .map(|_| {
                                let c = Arc::clone(&count);
                                Box::new(move || {
                                    c.fetch_add(1, Ordering::Relaxed);
                                }) as Box<dyn FnOnce() + Send>
                            })
                            .collect();
                        s.spawn_batch(batch);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(s.wait_idle(Duration::from_secs(30)));
        let expected = producers as u64 * batches as u64 * batch_len;
        assert_eq!(count.load(Ordering::Relaxed), expected);
        let snap = s.stats().snapshot();
        assert_eq!(snap.tasks_executed, expected);
        assert_eq!(snap.tasks_spawned, expected);
        assert_eq!(snap.spawn_batches, producers as u64 * batches as u64);
        assert_eq!(snap.batched_tasks, expected);
    }

    #[test]
    fn wakeups_skipped_only_when_no_worker_parked() {
        // Workers parked with a long idle_park: spawning must notify, not
        // skip.
        let s = Scheduler::new(SchedulerConfig {
            workers: 2,
            name: "parked".into(),
            idle_park: Duration::from_secs(5),
        });
        // Let both workers reach the parked state.
        let deadline = Instant::now() + Duration::from_secs(2);
        while s.sleepers() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(s.sleepers(), 2, "workers never parked");
        let skipped_before = s.stats().snapshot().wakeups_skipped;
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        s.spawn(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert!(s.wait_idle(Duration::from_secs(5)));
        assert_eq!(hit.load(Ordering::SeqCst), 1);
        assert_eq!(
            s.stats().snapshot().wakeups_skipped,
            skipped_before,
            "wakeup wrongly skipped while workers were parked"
        );

        // Now occupy every worker with a spinning task: with nobody
        // parked, further spawns and notifies skip the condvar and the
        // skip counter rises.
        let gate = Arc::new(AtomicBool::new(false));
        for _ in 0..2 {
            let g = Arc::clone(&gate);
            s.spawn(move || {
                while !g.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while s.sleepers() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(s.sleepers(), 0, "spinner tasks did not occupy workers");
        let skipped_before = s.stats().snapshot().wakeups_skipped;
        s.notify();
        let h = Arc::clone(&hit);
        s.spawn(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert!(
            s.stats().snapshot().wakeups_skipped >= skipped_before + 2,
            "wakeups not skipped while all workers were busy"
        );
        gate.store(true, Ordering::Relaxed);
        assert!(s.wait_idle(Duration::from_secs(5)));
        assert_eq!(hit.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn pending_counter_spawn_complete_wait_idle_race_stress() {
        // Regression stress for the AcqRel/Acquire relaxation of
        // `pending`: concurrent spawners and a wait_idle observer. Every
        // time wait_idle reports quiescence, all effects of completed
        // tasks must be visible (the Release/Acquire pairing at work),
        // and the counter must end at exactly zero — never negative,
        // never stuck positive.
        let s = scheduler(2);
        for round in 0..200 {
            let sum = Arc::new(AtomicU64::new(0));
            let spawners: Vec<_> = (0..3)
                .map(|_| {
                    let s = Arc::clone(&s);
                    let sum = Arc::clone(&sum);
                    std::thread::spawn(move || {
                        for _ in 0..20 {
                            let sum = Arc::clone(&sum);
                            s.spawn(move || {
                                sum.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    })
                })
                .collect();
            for h in spawners {
                h.join().unwrap();
            }
            assert!(s.wait_idle(Duration::from_secs(10)), "round {round}");
            assert_eq!(sum.load(Ordering::Relaxed), 60, "round {round}");
            assert_eq!(s.pending_tasks(), 0, "round {round}");
        }
    }
}
