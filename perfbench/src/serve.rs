//! The `serve_open` load: the arrival-ordered stream offered open-loop at a
//! fixed absolute rate to `HoneySite::serve` (`ServeConfig::default()`:
//! Block overflow, 1 shard) from one generator thread. Request `i` is due
//! at `start + i / rate`; the generator submits it then, or at once if it
//! is already late, so a stall in the service makes later requests late
//! instead of slowing the schedule. Latency is read from the site's own
//! always-on `site_admission_to_verdict_ns` histogram, the product's SLO
//! instrument.
//!
//! The generator polls the clock until each due time, yielding its vCPU
//! to any runnable service thread, rather than sleeping. A sleep
//! overshoots the 33 us gap by about 50 us, which turns the schedule into
//! bursts, and leaves both vCPUs idle between requests: on a 2-vCPU guest
//! the wake-up cost then flips between processes, and per-leg p50 ranged
//! 25-47 us. Polling held it at 22-28 us. A pure spin without yielding
//! held p50 too, but starved the service threads sharing the generator's
//! vCPU and cut the share within 1 ms by a few points.

use crate::common::Setup;
use fp_honeysite::serve::{
    SERVE_COLLECTOR_DEPTH_PEAK, SERVE_INGRESS_DEPTH_PEAK, SERVE_SHARD_DEPTH_PEAK,
};
use fp_honeysite::site::ADMISSION_TO_VERDICT_NS;
use fp_obs::instrument::{bucket_index, bucket_upper_bound};
use fp_obs::{HistogramSnapshot, MetricsRegistry};
use fp_types::ServeConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate: about a third of one shard's closed-loop capacity on a
/// 2-vCPU host, so the latency prices the hand-offs, not a standing queue.
pub const OFFERED_RPS: f64 = 30_000.0;

/// The latency limit of `verdict_within_1ms_pct`.
pub const SLO_NS: u64 = 1_000_000;

/// One serving leg's yield.
#[derive(Default)]
pub struct Leg {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub p999_ns: f64,
    /// Share of token-bearing requests committed, correct, within
    /// [`SLO_NS`] of admission, in percent.
    pub within_slo_pct: f64,
    /// Requests offered.
    pub offered: u64,
    /// Token-bearing requests not committed, committed with wrong
    /// verdicts, or missing a latency sample.
    pub failed: u64,
    /// Per request: how long after its due time the generator submitted
    /// it (open-loop legs only).
    pub late_ns: Vec<u64>,
    /// Per request: time inside `submit`, including any Block wait
    /// (traced legs only).
    pub submit_ns: Vec<u64>,
    pub ingress_peak: i64,
    pub shard_peak: i64,
    pub collector_peak: i64,
    /// Wall time from the first submit until `finish` returned.
    pub elapsed_s: f64,
}

/// Serve the whole stream once. `rate: None` submits back to back (the
/// closed-loop capacity leg); `traced` also times every submit call.
pub fn leg(setup: &Setup, rate: Option<f64>, traced: bool) -> Leg {
    let registry = Arc::new(MetricsRegistry::new());
    let mut service = setup
        .site(Some(registry.clone()))
        .serve(ServeConfig::default());
    let requests = setup.stream.clone();
    let mut out = Leg {
        offered: requests.len() as u64,
        late_ns: Vec::with_capacity(if rate.is_some() { requests.len() } else { 0 }),
        submit_ns: Vec::with_capacity(if traced { requests.len() } else { 0 }),
        ..Leg::default()
    };
    let start = Instant::now();
    for (i, request) in requests.into_iter().enumerate() {
        let mut now = Instant::now();
        if let Some(rate) = rate {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            while now < due {
                std::thread::yield_now();
                now = Instant::now();
            }
            out.late_ns
                .push(now.saturating_duration_since(due).as_nanos() as u64);
        }
        service.submit(request);
        if traced {
            out.submit_ns.push(now.elapsed().as_nanos() as u64);
        }
    }
    let site = service.finish();
    out.elapsed_s = start.elapsed().as_secs_f64();

    let snap = registry.snapshot();
    let latency = snap
        .histogram(ADMISSION_TO_VERDICT_NS)
        .cloned()
        .unwrap_or_default();
    let expected = setup.token_bearing();
    let committed = site.store().len() as u64;
    let wrong = setup.mismatches(site.store());
    let unsampled = committed.saturating_sub(latency.count());
    out.failed = wrong + expected.abs_diff(committed) + unsampled;
    let on_time = (count_at_most(&latency, SLO_NS) - (wrong + unsampled) as f64).max(0.0);
    out.within_slo_pct = 100.0 * on_time / expected as f64;
    out.p50_ns = latency.quantile(0.50) as f64;
    out.p99_ns = latency.quantile(0.99) as f64;
    out.p999_ns = latency.quantile(0.999) as f64;
    out.ingress_peak = snap.gauge(SERVE_INGRESS_DEPTH_PEAK).unwrap_or(0);
    out.shard_peak = snap.gauge(SERVE_SHARD_DEPTH_PEAK).unwrap_or(0);
    out.collector_peak = snap.gauge(SERVE_COLLECTOR_DEPTH_PEAK).unwrap_or(0);
    out
}

/// Samples at or below `limit`, interpolating linearly inside the log2
/// bucket that holds `limit` — the same within-bucket model the
/// histogram's quantiles use.
pub fn count_at_most(h: &HistogramSnapshot, limit: u64) -> f64 {
    let b = bucket_index(limit);
    let below: u64 = h.buckets[..b].iter().sum();
    if b == 0 {
        return h.buckets[0] as f64;
    }
    let lower = bucket_upper_bound(b - 1) + 1;
    let upper = bucket_upper_bound(b);
    let frac = (limit - lower + 1) as f64 / (upper - lower + 1) as f64;
    below as f64 + frac * h.buckets[b] as f64
}
