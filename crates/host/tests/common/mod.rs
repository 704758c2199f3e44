//! Fingerprints of frontend replays: the device fingerprint of the `ftl`
//! tests plus every per-tenant counter, sample vector and the dispatch log.

#![allow(dead_code)]

#[path = "../../../ftl/tests/common/mod.rs"]
mod device;

pub use device::Fnv;
use host::HostFrontend;

/// Fingerprint of a drained frontend: dispatch order, every tenant's
/// counters and latency samples, then the device's stats and mapping.
pub fn frontend(front: &HostFrontend) -> u64 {
    let mut h = Fnv::default();
    h.u64(front.dispatch_log().len() as u64);
    for &k in front.dispatch_log() {
        h.u64(k as u64);
    }
    for t in front.all_stats() {
        h.u64(t.completed);
        h.f64s(t.write_latency.samples_us());
        h.f64s(t.read_latency.samples_us());
        h.f64(t.queue_wait_us);
        h.u64(t.depth_high_water as u64);
        h.u64(t.backpressured);
        h.f64(t.gc_debt_us);
        h.f64(t.gc_window_peak_us);
        h.u64(t.gc_throttled);
    }
    h.device(front.device());
    h.finish()
}
