//! The `arena` load: closed-loop `Arena` repetitions of [`ROUNDS`] rounds
//! each. Only `Arena::step` is timed; the round's result is dropped after
//! the clock stops. Round 0 replays the base campaign, so it is played but
//! not timed. Every repetition of one seed must end at the same
//! `Arena::run_fingerprint()`.

use crate::common::{arena_config, ms_since, new_arena};
use fp_arena::Arena;
use fp_netsim::blocklist::BLOCKLIST_CHECKS;
use fp_types::RunFingerprint;
use std::time::Instant;

/// Rounds per repetition: round 0 plus seven timed rounds. From round 2
/// on every seal evicts the oldest epoch, so most timed rounds are in the
/// window's steady state, and the untimed round 0 and `Arena::new` cost a
/// small share of the load's time.
pub const ROUNDS: u32 = 8;

/// One timed round (rounds 1..ROUNDS).
pub struct RoundSample {
    pub ms: f64,
    /// Requests the round offered (admitted and denied).
    pub sent: u64,
    /// Requests the TTL blocklist turned away at admission.
    pub denied: u64,
    /// `TtlBlocklist::contains` calls during the round.
    pub blocklist_checks: u64,
    /// Training records the round's epoch seal evicted.
    pub records_evicted: u64,
}

/// A repetition in progress.
struct Repetition {
    arena: Arena,
    sent: u64,
}

/// Plays repetitions one round at a time, so the caller can interleave
/// rounds with other loads.
pub struct ArenaLoad {
    seed: u64,
    /// Arenas built in set-up, played before any new one is built.
    spare: Vec<Arena>,
    current: Option<Repetition>,
    first: Option<RunFingerprint>,
    pub rounds: Vec<RoundSample>,
    pub repetitions: u64,
    /// Requests offered over every round played, round 0 included.
    pub attempted: u64,
    /// Requests of repetitions whose run fingerprint differs from the
    /// first repetition's.
    pub failed: u64,
}

impl ArenaLoad {
    pub fn new(seed: u64, prebuilt: Vec<Arena>) -> ArenaLoad {
        ArenaLoad {
            seed,
            spare: prebuilt,
            current: None,
            first: None,
            rounds: Vec::new(),
            repetitions: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Play the next round, starting a repetition (on a pre-built arena if
    /// one is left) when none is in progress and closing it after its
    /// last round.
    pub fn step(&mut self) {
        let seed = self.seed;
        let spare = &mut self.spare;
        let rep = self.current.get_or_insert_with(|| Repetition {
            arena: spare.pop().unwrap_or_else(|| new_arena(arena_config(seed))),
            sent: 0,
        });
        let round = rep.arena.rounds_played();
        let start = Instant::now();
        let result = rep.arena.step();
        let ms = ms_since(start);
        let sent: u64 = result.outcomes.values().map(|o| o.sent).sum();
        rep.sent += sent;
        if round > 0 {
            self.rounds.push(RoundSample {
                ms,
                sent,
                denied: result.stats.denied.iter().sum(),
                blocklist_checks: result
                    .stats
                    .obs
                    .snapshot
                    .counter(BLOCKLIST_CHECKS)
                    .unwrap_or(0),
                records_evicted: result.stats.defense.records_evicted,
            });
        }
        drop(result);
        if round + 1 == ROUNDS {
            let rep = self.current.take().expect("in progress");
            self.close(rep);
        }
    }

    /// Play out the repetition in progress, if any.
    pub fn finish(&mut self) {
        while self.current.is_some() {
            self.step();
        }
    }

    fn close(&mut self, rep: Repetition) {
        let fingerprint = rep.arena.run_fingerprint();
        let first = *self.first.get_or_insert(fingerprint);
        if fingerprint != first {
            eprintln!(
                "arena: run fingerprint {fingerprint} differs from the first repetition's {first}"
            );
            self.failed += rep.sent;
        }
        self.attempted += rep.sent;
        self.repetitions += 1;
    }

    /// Timed round durations, in milliseconds.
    pub fn round_ms(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.ms).collect()
    }
}
