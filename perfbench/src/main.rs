//! The repository's benchmark. One run builds its inputs from `--seed`,
//! measures for about `--seconds` seconds, checks every verdict against
//! the sequential reference, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! fp-perfbench --workload <replay|serve_open|arena> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` every run reports all seven end-to-end metrics, so
//! each run plays all three loads, interleaved; the named workload's load
//! gets twice the share of each of the others. With `--trace 1` the run repeats the
//! traced per-layer suite (see `trace.rs`) instead. README.md gives the
//! reasons for each workload and metric.

mod arena;
mod common;
mod replay;
mod serve;
mod stamp;
mod trace;

use arena::ArenaLoad;
use common::{arena_config, median, new_arena, Deadline, Setup};
use replay::ReplayOut;
use stamp::{peak_rss_mb, CodeFingerprint};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median. Each builds the
/// replay inputs and one arena, and the arenas are the arena load's first
/// repetitions.
const SETUPS: usize = 3;

/// Arena rounds per unit of the arena load (about a second, like one
/// serving leg or one replay unit).
const ARENA_ROUNDS_PER_UNIT: usize = 2;

/// Where results and spans are written, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Replay,
    ServeOpen,
    Arena,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "replay" => Some(Workload::Replay),
            "serve_open" => Some(Workload::ServeOpen),
            "arena" => Some(Workload::Arena),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Replay => "replay",
            Workload::ServeOpen => "serve_open",
            Workload::Arena => "arena",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric: name, unit, value.
type Metric = (String, &'static str, f64);

/// The end-to-end run: every load, the named one with the largest share.
fn untraced(args: &Args) -> (Vec<Metric>, u64, u64) {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut arenas = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let built = Setup::build(args.seed);
        arenas.push(new_arena(arena_config(args.seed)));
        setup_s.push(start.elapsed().as_secs_f64());
        setup = Some(built);
    }
    let setup = setup.expect("at least one set-up");

    // The loads interleave in units of about a second each, the named
    // workload's twice per cycle, until the time is up: every metric then
    // samples the whole run, so slow spells on a shared host spread over
    // all of them instead of landing on whichever load ran at the time.
    let units = |w: Workload| if w == args.workload { 2 } else { 1 };
    let deadline = Deadline::after(Duration::from_secs(args.seconds));
    let mut replay = ReplayOut::default();
    let mut legs = Vec::new();
    let mut arena = ArenaLoad::new(args.seed, arenas);
    while !deadline.passed() {
        for _ in 0..units(Workload::Replay) {
            replay::unit(&setup, &mut replay);
        }
        for _ in 0..units(Workload::ServeOpen) {
            legs.push(serve::leg(&setup, Some(serve::OFFERED_RPS), false));
        }
        for _ in 0..units(Workload::Arena) * ARENA_ROUNDS_PER_UNIT {
            arena.step();
        }
    }
    arena.finish();
    let serve_ops: u64 = legs.iter().map(|l| l.offered).sum();
    let serve_failed: u64 = legs.iter().map(|l| l.failed).sum();
    println!(
        "load replay: ops={} failed={} seq_passes={} stream_passes={}",
        replay.attempted,
        replay.failed,
        replay.seq_rps.len(),
        replay.stream_rps.len()
    );
    println!(
        "load serve_open: ops={serve_ops} failed={serve_failed} legs={}",
        legs.len()
    );
    println!(
        "load arena: ops={} failed={} repetitions={} timed_rounds={}",
        arena.attempted,
        arena.failed,
        arena.repetitions,
        arena.rounds.len()
    );
    let p50: Vec<f64> = legs.iter().map(|l| l.p50_ns / 1e3).collect();
    let within: Vec<f64> = legs.iter().map(|l| l.within_slo_pct).collect();
    let metrics = vec![
        ("ingest_rps".into(), "req/s", median(&replay.seq_rps)),
        ("stream_rps".into(), "req/s", median(&replay.stream_rps)),
        ("verdict_p50_us".into(), "us", median(&p50)),
        ("verdict_within_1ms_pct".into(), "%", median(&within)),
        ("round_ms".into(), "ms", median(&arena.round_ms())),
        ("setup_s".into(), "s", median(&setup_s)),
        ("peak_rss_mb".into(), "MB", peak_rss_mb()),
    ];
    let attempted = replay.attempted + serve_ops + arena.attempted;
    let failed = replay.failed + serve_failed + arena.failed;
    (metrics, attempted, failed)
}

/// The traced run: the per-layer suite, repeated until the time is up.
fn traced(args: &Args) -> (Vec<Metric>, u64, u64, Vec<String>, Option<String>) {
    let setup = Setup::build(args.seed);
    let deadline = Deadline::after(Duration::from_secs(args.seconds));
    let mut layers = trace::Layers::default();
    let mut iterations = 0;
    while iterations == 0 || !deadline.passed() {
        trace::iteration(&setup, args.seed, &mut layers);
        iterations += 1;
    }
    let mut lines = trace::ledger_lines(&layers);
    let sum_ratio = layers.get("trace.sum_ratio");
    let sum_ok = (sum_ratio - 1.0).abs() <= trace::SUM_TOLERANCE;
    lines.push(format!(
        "sum check: traced layers / untraced ingest cost = {sum_ratio:.4} \
         (tolerance ±{}): {}; {iterations} suite iterations",
        trace::SUM_TOLERANCE,
        if sum_ok { "ok" } else { "FAILED" }
    ));
    let failed = layers.failed + u64::from(!sum_ok);
    let metrics = layers.metrics();
    let spans = layers.spans.as_ref().map(|s| s.to_tsv());
    (metrics, layers.attempted, failed, lines, spans)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fp-perfbench: {e}");
            eprintln!(
                "usage: fp-perfbench --workload <replay|serve_open|arena> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let code = CodeFingerprint::of_checkout();
    let stamp = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"code\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        code.to_json()
    );
    println!("stamp {stamp}");

    let (metrics, attempted, failed, lines, spans) = if args.trace {
        traced(&args)
    } else {
        let (m, a, f) = untraced(&args);
        (m, a, f, Vec::new(), None)
    };
    for line in &lines {
        println!("{line}");
    }
    let finite = metrics.iter().all(|m| m.2.is_finite());
    if !finite {
        eprintln!("fp-perfbench: a metric is not a finite number");
    }
    let correct = failed == 0 && attempted > 0 && finite;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");

    // The record on disk carries the stamp, the ledger and the result;
    // the spans of the last traced pass go beside it.
    let base = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"stamp\": {stamp}, \"ledger\": [{}], \"result\": {json}}}\n",
        lines
            .iter()
            .map(|l| format!("\"{}\"", l.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(format!("{base}.json"), record))
        .and_then(|_| match &spans {
            Some(tsv) => std::fs::write(format!("{base}-spans.tsv"), tsv),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("fp-perfbench: could not write {base}.*: {e}");
    }

    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
