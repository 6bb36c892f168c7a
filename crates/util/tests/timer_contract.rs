//! Timer-thread contracts, read from the service's own counters rather than
//! from wall-clock bounds: cancelled timers leave nothing for the thread to
//! wait on, a spin gives way to an earlier deadline, and dropping the
//! service never loses its shutdown wakeup.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rpx_util::TimerService;

/// Upper bound on any wait below; reaching it means the thread hung.
const WATCHDOG: Duration = Duration::from_secs(60);

#[test]
fn cancelled_timers_leave_nothing_behind() {
    let svc = TimerService::new("contract-cancel");
    let handles: Vec<_> = (0..1000)
        .map(|_| svc.arm_after(Duration::from_secs(1), || panic!("cancelled timer fired")))
        .collect();
    assert_eq!(svc.pending(), 1000);
    assert!(handles.iter().all(|h| h.cancel()));
    std::thread::sleep(Duration::from_millis(20));
    let acc = svc.accuracy();
    assert_eq!(svc.pending(), 0);
    assert_eq!((acc.fired, acc.cancelled, acc.spins), (0, 1000, 0));
}

#[test]
fn thread_never_spins_toward_a_cancelled_deadline() {
    let svc = TimerService::new("contract-no-dead-spin");
    // Hold the thread inside a callback (already due, so reached without a
    // spin) while timers due in 1 ms are armed and cancelled.
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    svc.arm_at(Instant::now(), move || {
        entered_tx.send(()).unwrap();
        release_rx.recv().unwrap();
    });
    entered_rx
        .recv_timeout(WATCHDOG)
        .expect("gate timer never fired");
    let handles: Vec<_> = (0..1000)
        .map(|_| svc.arm_after(Duration::from_millis(1), || panic!("cancelled timer fired")))
        .collect();
    assert!(handles.iter().all(|h| h.cancel()));
    release_tx.send(()).unwrap();
    // Past every cancelled deadline: the thread had nothing live to wait on.
    std::thread::sleep(Duration::from_millis(20));
    let acc = svc.accuracy();
    assert_eq!(svc.pending(), 0);
    assert_eq!((acc.fired, acc.cancelled, acc.spins), (1, 1000, 0));
}

#[test]
fn earlier_timer_armed_during_a_spin_fires_first() {
    // Each attempt arms `late`, sleeps into the last 250 µs before it, where
    // the thread spins, and arms an already-due timer there. That timer must
    // run while `late` is still pending; a spin that ran on to `late`'s
    // deadline would take both together. An attempt in which the thread
    // was not yet spinning, or `late` fired first, proves nothing and is
    // retried (sleeping, not polling, keeps this thread off the timer
    // thread's CPU when the box is loaded).
    let svc = TimerService::new("contract-spin-preempt");
    for _ in 0..200 {
        let spins = svc.accuracy().spins;
        let late = svc.arm_after(Duration::from_millis(3), || {});
        std::thread::sleep(Duration::from_micros(2850));
        let spinning = svc.accuracy().spins > spins;
        let (tx, rx) = mpsc::channel();
        let probe = late.clone();
        svc.arm_at(Instant::now(), move || tx.send(probe.is_pending()).unwrap());
        let late_was_pending = rx.recv_timeout(WATCHDOG).expect("due timer never fired");
        let watchdog = Instant::now() + WATCHDOG;
        while late.is_pending() {
            assert!(Instant::now() < watchdog, "late timer never fired");
            std::thread::yield_now();
        }
        if spinning && late_was_pending {
            return;
        }
    }
    panic!("a timer armed during a spin never fired before the later deadline");
}

#[test]
fn drop_never_loses_its_shutdown_wakeup() {
    let (done_tx, done_rx) = mpsc::channel();
    let cycles = Arc::new(Mutex::new(0u32));
    let c = Arc::clone(&cycles);
    std::thread::spawn(move || {
        for _ in 0..1000 {
            let svc = TimerService::new("contract-drop");
            // Cancelling leaves the map empty, so the thread parks untimed.
            assert!(svc.arm_after(Duration::from_millis(5), || {}).cancel());
            drop(svc);
            *c.lock().unwrap() += 1;
        }
        done_tx.send(()).unwrap();
    });
    if done_rx.recv_timeout(WATCHDOG).is_err() {
        panic!(
            "TimerService drop hung after {} cycles",
            cycles.lock().unwrap()
        );
    }
}
