//! The `replay` load: the arrival-ordered stream offered closed-loop to
//! sequential `ingest_all` and to 2-shard `ingest_stream`. Only the
//! ingest call is timed: the stream copy it consumes is made before the
//! clock starts, and the site is dropped after it stops.

use crate::common::{Setup, SHARDS};
use fp_obs::MetricsRegistry;
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
pub struct ReplayOut {
    /// Requests per second of each sequential pass.
    pub seq_rps: Vec<f64>,
    /// Requests per second of each 2-shard stream pass.
    pub stream_rps: Vec<f64>,
    /// Requests offered over all passes.
    pub attempted: u64,
    /// Records whose verdicts differ from the sequential reference.
    pub failed: u64,
}

/// One sequential pass; returns its requests per second. With a registry
/// the site records its always-on metrics (the `obs.overhead_pct` leg).
pub fn seq_pass(setup: &Setup, registry: Option<Arc<MetricsRegistry>>, out: &mut ReplayOut) -> f64 {
    let mut site = setup.site(registry);
    let requests = setup.stream.clone();
    let n = requests.len() as f64;
    let start = Instant::now();
    site.ingest_all(requests);
    let rps = n / start.elapsed().as_secs_f64();
    out.attempted += setup.stream.len() as u64;
    out.failed += setup.mismatches(site.store());
    rps
}

/// One 2-shard `ingest_stream` pass; returns its requests per second.
pub fn stream_pass(setup: &Setup, out: &mut ReplayOut) -> f64 {
    let mut site = setup.site(None);
    let requests = setup.stream.clone();
    let n = requests.len() as f64;
    let start = Instant::now();
    site.ingest_stream(requests, SHARDS);
    let rps = n / start.elapsed().as_secs_f64();
    out.attempted += setup.stream.len() as u64;
    out.failed += setup.mismatches(site.store());
    rps
}

/// Passes per [`unit`] of each engine: a unit takes about as long as one
/// serving leg.
const PASSES_PER_UNIT: usize = 3;

/// One unit of the load: sequential and stream passes, alternating so
/// drift on the host touches both engines alike.
pub fn unit(setup: &Setup, out: &mut ReplayOut) {
    for _ in 0..PASSES_PER_UNIT {
        let rps = seq_pass(setup, None, out);
        out.seq_rps.push(rps);
        let rps = stream_pass(setup, out);
        out.stream_rps.push(rps);
    }
}
