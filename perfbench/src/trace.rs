//! The traced run: per-layer numbers from spans and timings recorded in
//! this package around calls into each layer's public functions. Nothing
//! inside the program is instrumented for it.
//!
//! `replay`'s chain is re-driven by hand: `ingest` into a site with an
//! empty chain (span `site.ingest_core`: token check, cookie, derive and
//! store push), then each of the seven detector forks' `observe` on the
//! stored record in chain order (one span each), assembling the
//! `VerdictSet`, which must equal the reference's. The request's root span
//! covers all of it; its self time is the assembly (`chain.assemble`).
//! Layers without a per-request span are timed on inputs built in set-up.

use crate::arena::{ArenaLoad, RoundSample};
use crate::common::{
    arena_config, mean, median, ms_since, new_arena, quantile, token_site, Setup, SCALE,
};
use crate::replay::{self, ReplayOut};
use crate::serve::{self, OFFERED_RPS};
use fp_botnet::{Campaign, CampaignConfig};
use fp_honeysite::{HoneySite, RequestStore, StoredRequest};
use fp_inconsistent_core::defense::REMINE_SCAN_NS;
use fp_inconsistent_core::{FpInconsistent, MineConfig, RulePack};
use fp_netsim::{NetDb, TtlBlocklist};
use fp_obs::MetricsRegistry;
use fp_types::detect::{Detector, Verdict};
use fp_types::{mix2, sym, AttrValue, RetentionPolicy, Scale, SimTime, Symbol, VerdictSet};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The traced layers' self times must add up to the untraced sequential
/// cost per request (`1e9 / ingest_rps`) within this share. The trace
/// reads the clock ten times per request and keeps 160 bytes of stamps;
/// it measured 10-25% over the untraced cost on a 2-vCPU host.
pub const SUM_TOLERANCE: f64 = 0.25;

/// Root span of one request.
const ROOT: &str = "chain.assemble";
/// The empty-chain ingest span.
const CORE: &str = "site.ingest_core";

/// Clock reads per traced request: before `ingest`, after `ingest`, after
/// each of the seven detectors, and after the verdict set is assembled.
/// Consecutive reads bound consecutive spans, so the children tile the
/// root span with no gaps.
const STAMPS: usize = 10;

/// The stamps of the last traced replay pass, kept in memory and written
/// out at exit. Request `r`'s layer `k` (in [`Spans::layers`] order,
/// children only) spans `stamps[r][k]..stamps[r][k + 1]`; its root span
/// (`chain.assemble`) spans `stamps[r][0]..stamps[r][STAMPS - 1]`. A
/// request the site rejected has only its ingest span.
pub struct Spans {
    layers: Vec<String>,
    stamps: Vec<[Instant; STAMPS]>,
    admitted: Vec<bool>,
}

impl Spans {
    /// One line per span: request, layer, parent layer, start and end in
    /// nanoseconds since the pass began.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("req\tlayer\tparent\tstart_ns\tend_ns\n");
        let Some(base) = self.stamps.first().map(|s| s[0]) else {
            return out;
        };
        let ns = |t: Instant| (t - base).as_nanos();
        for (r, (stamps, &admitted)) in self.stamps.iter().zip(&self.admitted).enumerate() {
            let (children, end) = if admitted {
                (self.layers.len(), STAMPS - 1)
            } else {
                (1, 1)
            };
            let _ = writeln!(
                out,
                "{r}\t{ROOT}\t-\t{}\t{}",
                ns(stamps[0]),
                ns(stamps[end])
            );
            for k in 0..children {
                let _ = writeln!(
                    out,
                    "{r}\t{}\t{ROOT}\t{}\t{}",
                    self.layers[k],
                    ns(stamps[k]),
                    ns(stamps[k + 1])
                );
            }
        }
        out
    }
}

/// Per-layer samples, one per suite iteration, reported as medians.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<String, (&'static str, Vec<f64>)>,
    /// The replay layers, in chain order, then the root's self time.
    pub ledger_layers: Vec<String>,
    pub spans: Option<Spans>,
    pub attempted: u64,
    pub failed: u64,
}

impl Layers {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    /// Every metric as (name, unit, median over iterations).
    pub fn metrics(&self) -> Vec<(String, &'static str, f64)> {
        self.samples
            .iter()
            .map(|(name, (unit, v))| (name.clone(), *unit, median(v)))
            .collect()
    }

    /// The median of one metric so far (NaN when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(f64::NAN, |(_, v)| median(v))
    }

    /// (layer, median self ns per request) for every replay layer.
    pub fn ledger(&self) -> Vec<(String, f64)> {
        self.ledger_layers
            .iter()
            .map(|l| (l.clone(), self.get(&format!("{l}_ns"))))
            .collect()
    }
}

/// Re-drive the sequential chain by hand with spans. Returns the mean
/// traced cost per request in nanoseconds.
fn traced_replay(setup: &Setup, layers: &mut Layers) -> f64 {
    let mut core = token_site(&setup.campaign, HoneySite::with_chain(Vec::new()));
    let full = setup.site(None);
    let mut chain: Vec<Box<dyn Detector>> = full.chain().iter().map(|d| d.fork()).collect();
    assert_eq!(chain.len() + 3, STAMPS, "one stamp per detector");
    let children: Vec<String> = std::iter::once(CORE.to_string())
        .chain(
            chain
                .iter()
                .map(|d| format!("detector.{}.observe", d.name())),
        )
        .collect();
    let requests = setup.stream.clone();
    let n = requests.len();
    let mut stamps = Vec::with_capacity(n);
    let mut admitted = Vec::with_capacity(n);
    let mut reference = setup.reference.iter();
    let mut wrong = 0u64;
    let mut verdicts = [Verdict::Human; STAMPS - 3];
    for request in requests {
        let mut t = [Instant::now(); STAMPS];
        let id = core.ingest(request);
        t[1] = Instant::now();
        let Some(id) = id else {
            stamps.push(t);
            admitted.push(false);
            continue;
        };
        let record: &StoredRequest = core.store().get(id).expect("just pushed");
        for (k, detector) in chain.iter_mut().enumerate() {
            verdicts[k] = detector.observe(record);
            t[k + 2] = Instant::now();
        }
        // Assembled as the site does it, interning each name per request.
        let mut set = VerdictSet::new();
        for (detector, verdict) in chain.iter().zip(verdicts) {
            set.record(sym(detector.name()), verdict);
        }
        t[STAMPS - 1] = Instant::now();
        stamps.push(t);
        admitted.push(true);
        if reference.next().map(|r| &r.verdicts) != Some(&set) {
            wrong += 1;
        }
    }
    wrong += reference.count() as u64;
    layers.attempted += n as u64;
    layers.failed += wrong;

    // Self time: a span's duration minus its children's. The children
    // tile the root, so the root keeps only the assembly after the last
    // detector.
    let mut self_ns = vec![0f64; STAMPS - 1];
    for (t, &ok) in stamps.iter().zip(&admitted) {
        let last = if ok { STAMPS - 1 } else { 1 };
        for k in 0..last {
            self_ns[k] += (t[k + 1] - t[k]).as_nanos() as f64;
        }
    }
    layers.ledger_layers = children.iter().cloned().chain([ROOT.to_string()]).collect();
    for (layer, ns) in layers.ledger_layers.clone().iter().zip(&self_ns) {
        layers.put(&format!("{layer}_ns"), "ns", ns / n as f64);
    }
    layers.spans = Some(Spans {
        layers: children,
        stamps,
        admitted,
    });
    self_ns.iter().sum::<f64>() / n as f64
}

/// Nanoseconds per call of `f` over `items`.
fn per_op<T: Copy>(items: &[T], mut f: impl FnMut(T)) -> f64 {
    let start = Instant::now();
    for &x in items {
        f(black_box(x));
    }
    start.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// Layers with no per-request span, timed from outside on inputs built
/// in set-up.
fn public_layers(setup: &Setup, seed: u64, layers: &mut Layers) {
    // Interner: the symbols the records carry, in stream order.
    let mut symbols: Vec<Symbol> = Vec::new();
    for r in setup.reference.iter() {
        symbols.push(r.ip_region);
        for (_, v) in r.fingerprint.present() {
            if let AttrValue::Sym(s) = v {
                symbols.push(*s);
            }
        }
    }
    let strings: Vec<&'static str> = symbols.iter().map(|s| s.as_str()).collect();
    layers.put(
        "interner.sym_ns",
        "ns",
        per_op(&strings, |s| {
            black_box(sym(s));
        }),
    );
    layers.put(
        "interner.as_str_ns.t1",
        "ns",
        per_op(&symbols, |s| {
            black_box(s.as_str());
        }),
    );
    let barrier = Barrier::new(2);
    let t2: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    per_op(&symbols, |s| {
                        black_box(s.as_str());
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("interner thread panicked"))
            .collect()
    });
    layers.put("interner.as_str_ns.t2", "ns", mean(&t2));

    let ips: Vec<_> = setup.stream.iter().map(|r| r.ip).collect();
    layers.put(
        "netdb.lookup_ns",
        "ns",
        per_op(&ips, |ip| {
            black_box(NetDb::lookup(ip));
        }),
    );

    // The arena's blocklist, as it runs there: registry attached, about
    // half the offered addresses listed.
    let hashes: Vec<u64> = ips.iter().map(|&ip| NetDb::hash_ip(ip)).collect();
    let mut blocklist = TtlBlocklist::new();
    blocklist.set_metrics(&Arc::new(MetricsRegistry::new()));
    for h in hashes.iter().step_by(2) {
        blocklist.block(*h, SimTime(0), fp_arena::DEFAULT_BLOCK_TTL_SECS);
    }
    layers.put(
        "blocklist.contains_ns",
        "ns",
        per_op(&hashes, |h| {
            black_box(blocklist.contains(h, SimTime(1)));
        }),
    );

    let records: Vec<&StoredRequest> = setup.reference.iter().collect();
    let pack = setup.engine.pack();
    layers.put(
        "rulepack.match_ns",
        "ns",
        per_op(&records, |r| {
            black_box(pack.matches(r));
        }),
    );
    let start = Instant::now();
    black_box(RulePack::compile(setup.engine.rules()));
    layers.put("rulepack.compile_ms", "ms", ms_since(start));
    let start = Instant::now();
    let mined = FpInconsistent::mine(&setup.mine_store, &MineConfig::default());
    layers.put("mine.ms", "ms", ms_since(start));
    if mined.pack().hash() != pack.hash() {
        eprintln!("trace: re-mining the set-up store gave a different rule pack");
        layers.failed += 1;
    }
    layers.attempted += 1;

    let config = CampaignConfig {
        scale: Scale::ratio(SCALE),
        seed,
    };
    let start = Instant::now();
    black_box(Campaign::generate(config));
    layers.put("campaign.generate_ms", "ms", ms_since(start));
    let start = Instant::now();
    black_box(Campaign::generate_adversarial(CampaignConfig {
        seed: mix2(seed, 1),
        ..config
    }));
    layers.put("campaign.generate_adversarial_ms", "ms", ms_since(start));

    // Store: push the reference records, then seal three epochs into a
    // two-epoch window (the last seal evicts, as arena rounds do).
    let owned: Vec<StoredRequest> = setup.reference.iter().cloned().collect();
    let mut store = RequestStore::new();
    let start = Instant::now();
    for r in owned.clone() {
        black_box(store.push(r));
    }
    layers.put(
        "store.push_ns",
        "ns",
        start.elapsed().as_nanos() as f64 / owned.len() as f64,
    );
    drop(store);
    let mut store = RequestStore::with_retention(RetentionPolicy::SlidingWindow { epochs: 2 });
    let mut seal_ms = Vec::new();
    for _ in 0..3 {
        for r in owned.iter().cloned() {
            store.push(r);
        }
        let start = Instant::now();
        black_box(store.seal_epoch());
        seal_ms.push(ms_since(start));
    }
    layers.put("store.seal_ms", "ms", mean(&seal_ms));
}

/// One iteration of the whole traced suite.
pub fn iteration(setup: &Setup, seed: u64, layers: &mut Layers) {
    // Replay: traced passes alternate with untraced ones, so the sum
    // check and the tracing overhead compare like with like.
    let mut out = ReplayOut::default();
    let mut bare = Vec::new();
    let mut traced = Vec::new();
    let mut obs = Vec::new();
    for _ in 0..3 {
        bare.push(1e9 / replay::seq_pass(setup, None, &mut out));
        traced.push(traced_replay(setup, layers));
        obs.push(1e9 / replay::seq_pass(setup, Some(Arc::new(MetricsRegistry::new())), &mut out));
    }
    let stream_rps = replay::stream_pass(setup, &mut out);
    layers.attempted += out.attempted;
    layers.failed += out.failed;
    let e2e_ns = median(&bare);
    let bare_rps = 1e9 / e2e_ns;
    let traced_ns = median(&traced);
    layers.put("trace.sum_ratio", "ratio", traced_ns / e2e_ns);
    layers.put(
        "trace.overhead_pct",
        "%",
        (traced_ns / e2e_ns - 1.0) * 100.0,
    );
    layers.put(
        "obs.overhead_pct",
        "%",
        (median(&obs) / e2e_ns - 1.0) * 100.0,
    );
    layers.put("stream.ns_per_req", "ns", 1e9 / stream_rps);
    layers.put("stream.vs_seq_ratio", "ratio", stream_rps / bare_rps);

    public_layers(setup, seed, layers);

    // Serving: one traced open-loop leg and one closed-loop capacity leg.
    let leg = serve::leg(setup, Some(OFFERED_RPS), true);
    let submit: Vec<f64> = leg.submit_ns.iter().map(|&v| v as f64).collect();
    let late: Vec<f64> = leg.late_ns.iter().map(|&v| v as f64).collect();
    layers.put("serve.submit_ns", "ns", mean(&submit));
    layers.put("serve.gen_late_p99_us", "us", quantile(&late, 0.99) / 1e3);
    layers.put("serve.ingress_depth_peak", "count", leg.ingress_peak as f64);
    layers.put("serve.shard_depth_peak", "count", leg.shard_peak as f64);
    layers.put(
        "serve.collector_depth_peak",
        "count",
        leg.collector_peak as f64,
    );
    layers.put("serve.verdict_p99_us", "us", leg.p99_ns / 1e3);
    layers.put("serve.verdict_p999_us", "us", leg.p999_ns / 1e3);
    let work_ns: f64 = layers
        .ledger()
        .iter()
        .filter(|(name, _)| name != ROOT)
        .map(|(_, ns)| ns)
        .sum();
    layers.put("serve.queue_ns", "ns", leg.p50_ns - work_ns);
    let capacity = serve::leg(setup, None, false);
    layers.put(
        "serve.capacity_rps",
        "req/s",
        setup.token_bearing() as f64 / capacity.elapsed_s,
    );
    layers.attempted += leg.offered + capacity.offered;
    layers.failed += leg.failed + capacity.failed;

    // Arena: one repetition.
    let mut arena = ArenaLoad::new(seed, Vec::new());
    arena.step();
    arena.finish();
    layers.attempted += arena.attempted;
    layers.failed += arena.failed;
    let pick = |f: &dyn Fn(&RoundSample) -> f64| -> f64 {
        median(&arena.rounds.iter().map(f).collect::<Vec<_>>())
    };
    let round_ms = pick(&|r| r.ms);
    let admitted = pick(&|r| (r.sent - r.denied) as f64);
    layers.put("arena.requests", "count", pick(&|r| r.sent as f64));
    layers.put("arena.denied", "count", pick(&|r| r.denied as f64));
    layers.put(
        "arena.blocklist_checks",
        "count",
        pick(&|r| r.blocklist_checks as f64),
    );
    layers.put(
        "store.records_evicted",
        "count",
        pick(&|r| r.records_evicted as f64),
    );
    // What generation, 2-shard ingest and the epoch seal, priced by the
    // timings above, leave of the round.
    let other = round_ms
        - layers.get("campaign.generate_adversarial_ms")
        - admitted / stream_rps * 1e3
        - layers.get("store.seal_ms");
    layers.put("arena.other_ms", "ms", other);

    // Re-mine, kept out of the arena load: rounds 0 and 1 of the same
    // arena with the spatial rules re-mined after every round; the second
    // re-mine scans the full two-epoch window.
    let mut config = arena_config(seed);
    config.remine_cadence = Some(1);
    let mut remine = new_arena(config);
    remine.step();
    let round1 = remine.step();
    let scan_ns = round1
        .stats
        .obs
        .snapshot
        .histogram(REMINE_SCAN_NS)
        .map_or(f64::NAN, |h| h.sum as f64);
    layers.put("defense.remine_scan_ms", "ms", scan_ns / 1e6);
}

/// The ledger lines: one `perf[<layer>]` line per replay layer with its
/// self time per request and share of the traced total, then the layer
/// with the largest share.
pub fn ledger_lines(layers: &Layers) -> Vec<String> {
    let ledger = layers.ledger();
    let total: f64 = ledger.iter().map(|(_, ns)| ns).sum();
    let mut lines: Vec<String> = ledger
        .iter()
        .map(|(name, ns)| format!("perf[{name}] self_ns={ns:.1} share={:.4}", ns / total))
        .collect();
    if let Some((name, ns)) = ledger.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        lines.push(format!(
            "perf largest layer: {name} share={:.4}",
            ns / total
        ));
    }
    lines
}
