//! Lost-wakeup regression for promise/future handoff.
//!
//! The condvar behind every future skips its notify when no thread is
//! waiting. Two threads hand 10,000 promises back and forth; each wait
//! has a 10 s timeout and the whole exchange runs behind a 60 s
//! watchdog, so a notify skipped while the peer was parked fails the
//! test (timeout) or hangs it (watchdog) instead of passing slowly.

use std::sync::mpsc;
use std::time::Duration;

use rpx_lco::{channel, Promise};

const ROUNDS: u64 = 10_000;
const WAIT: Duration = Duration::from_secs(10);

#[test]
fn ten_thousand_round_promise_handoff_loses_no_wakeup() {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        // Each side sends the promise for the value it expects back.
        let (to_pong, pong_rx) = mpsc::channel::<Promise<u64>>();
        let (to_ping, ping_rx) = mpsc::channel::<Promise<u64>>();
        let pong = std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let (p, f) = channel();
                to_ping.send(p).expect("ping alive");
                let reply = pong_rx.recv().expect("ping alive");
                assert_eq!(f.get_timeout(WAIT), Ok(round), "pong lost a wakeup");
                reply.set(round).expect("set once");
            }
        });
        for round in 0..ROUNDS {
            let (p, f) = channel();
            to_pong.send(p).expect("pong alive");
            let theirs = ping_rx.recv().expect("pong alive");
            theirs.set(round).expect("set once");
            assert_eq!(f.get_timeout(WAIT), Ok(round), "ping lost a wakeup");
        }
        pong.join().expect("pong panicked");
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("handoff hung or panicked");
}
