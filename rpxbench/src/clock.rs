//! One monotonic process clock, in nanoseconds since the first call, so
//! stamps taken on different threads compare directly.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process epoch (never 0 after the first call:
/// 0 marks "not stamped" in the stamp tables).
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64 + 1
}

/// Seconds between two stamps.
pub fn secs(from: u64, to: u64) -> f64 {
    to.saturating_sub(from) as f64 * 1e-9
}
