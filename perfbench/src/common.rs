//! What every load shares: the seed-derived set-up, the site builder, the
//! verdict check against the sequential reference, and small statistics.

use fp_arena::{Arena, ArenaConfig, ResponsePolicy, DEFAULT_BLOCK_TTL_SECS};
use fp_botnet::{Campaign, CampaignConfig};
use fp_honeysite::{HoneySite, RequestStore};
use fp_inconsistent_core::{FpInconsistent, MineConfig};
use fp_obs::MetricsRegistry;
use fp_types::{Request, RetentionPolicy, Scale, ServiceId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Campaign volume relative to the paper's (about 26.5k requests per
/// stream): big enough that one pass takes a few hundred milliseconds,
/// small enough that a run holds dozens of passes.
pub const SCALE: f64 = 0.05;

/// Worker shards for `ingest_stream` and the arena: the 2-vCPU hosts this
/// benchmark is recorded on, never more workers than cores.
pub const SHARDS: usize = 2;

/// Everything the replay and serving loads need, built from `--seed`
/// before any timed pass.
pub struct Setup {
    pub campaign: Campaign,
    /// Rules mined on the paper traffic (bots and real users) run through
    /// the default chain: mine offline, deploy online.
    pub engine: FpInconsistent,
    /// The store the rules were mined from (the `mine.ms` input).
    pub mine_store: RequestStore,
    /// Bots, real users, AI agents and TLS laggards, stably sorted by
    /// `Request::time` into arrival order.
    pub stream: Vec<Request>,
    /// Sequential full-chain ingest of `stream`: the verdict reference
    /// every other engine is checked against.
    pub reference: RequestStore,
    /// Requests the reference pass turned away for lacking a token.
    pub rejected: u64,
}

impl Setup {
    pub fn build(seed: u64) -> Setup {
        let campaign = Campaign::generate(CampaignConfig {
            scale: Scale::ratio(SCALE),
            seed,
        });
        let mut mine_site = token_site(&campaign, HoneySite::new());
        mine_site.ingest_all(
            campaign
                .bot_requests
                .iter()
                .cloned()
                .chain(campaign.real_users.iter().map(|u| u.request.clone())),
        );
        let mine_store = mine_site.into_store();
        let engine = FpInconsistent::mine(&mine_store, &MineConfig::default());

        let mut stream: Vec<Request> = campaign
            .bot_requests
            .iter()
            .cloned()
            .chain(campaign.real_users.iter().map(|u| u.request.clone()))
            .chain(campaign.ai_agents.iter().cloned())
            .chain(campaign.tls_laggards.iter().cloned())
            .collect();
        stream.sort_by_key(|r| r.time);

        let mut setup = Setup {
            campaign,
            engine,
            mine_store,
            stream,
            reference: RequestStore::new(),
            rejected: 0,
        };
        let mut site = setup.site(None);
        site.ingest_all(setup.stream.iter().cloned());
        setup.rejected = site.rejected_count();
        setup.reference = site.into_store();
        setup
    }

    /// A fresh site with every campaign token registered and the full
    /// seven-detector chain (the default four plus the mined engine's
    /// three), optionally with a metrics registry attached.
    pub fn site(&self, registry: Option<Arc<MetricsRegistry>>) -> HoneySite {
        let mut site = token_site(&self.campaign, HoneySite::new());
        for detector in self.engine.detectors() {
            site.push_detector(detector);
        }
        if let Some(registry) = registry {
            site.set_metrics(registry);
        }
        site
    }

    /// Requests offered that carry a registered token.
    pub fn token_bearing(&self) -> u64 {
        self.stream.len() as u64 - self.rejected
    }

    /// Records of `store` whose verdicts differ from the reference, plus
    /// reference records `store` lacks or extra records it holds.
    pub fn mismatches(&self, store: &RequestStore) -> u64 {
        let mut reference = self.reference.iter();
        let mut wrong = 0u64;
        for record in store.iter() {
            match reference.next() {
                Some(r) if r.verdicts == record.verdicts => {}
                _ => wrong += 1,
            }
        }
        wrong + reference.count() as u64
    }
}

/// Register the campaign's tokens on `site`: every bot service, the real
/// users and both agent cohorts.
pub fn token_site(campaign: &Campaign, mut site: HoneySite) -> HoneySite {
    for id in ServiceId::all() {
        site.register_token(campaign.token_of(id));
    }
    site.register_token(campaign.real_user_token());
    site.register_token(campaign.ai_agent_token());
    site.register_token(campaign.tls_laggard_token());
    site
}

/// The configuration of the arena the `arena` load plays: Block policy,
/// 2 shards and a two-epoch sliding training window. The
/// behaviour member re-fits every round, which makes the stack keep
/// history: each round's records are sealed into the window, scanned and,
/// from round 2 on, evicted. There is no re-mine: its scan time varies up
/// to 3x between processes for the same round, so it stays out of
/// `round_ms`.
pub fn arena_config(seed: u64) -> ArenaConfig {
    ArenaConfig {
        scale: Scale::ratio(SCALE),
        seed,
        shards: SHARDS,
        policy: ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS),
        remine_cadence: None,
        retention: RetentionPolicy::SlidingWindow { epochs: 2 },
        agent_humanise: None,
        behavior_refit: Some(1),
        serve: None,
    }
}

/// A fresh arena for `config`, with the shipped adaptive strategies.
pub fn new_arena(config: ArenaConfig) -> Arena {
    let mut arena = Arena::new(config);
    arena.adaptive_defaults();
    arena
}

/// Milliseconds elapsed since `start`, as a float.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A point in time a load stops starting new passes at.
#[derive(Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(d: Duration) -> Deadline {
        Deadline(Instant::now() + d)
    }

    pub fn passed(self) -> bool {
        Instant::now() >= self.0
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values`; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}
