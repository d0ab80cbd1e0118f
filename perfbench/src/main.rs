//! The repository benchmark: runs one named workload through the path the
//! experiment binaries use (`run_sweep_specs_with`: executor → engine →
//! outcome fold → journal), checks its outputs, and prints its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! timed phase and then a traced run, and prints the per-layer metrics.
//! Work files go to `.perfbench_work/` under the current directory.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A broken correctness
//! check prints `"correct": false` and exits with code 1; a usage or set-up
//! error exits with code 2 and prints no result.

mod layers;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use rcb_bench::experiments::common::{run_sweep_specs_with, sweep_fingerprint, SweepControl};
use rcb_bench::perf::rss::{peak_rss_kib, reset_peak_rss};
use rcb_sim::executor::batch_checksums;
use rcb_sim::journal::{Journal, JournalHeader};
use rcb_sim::json::Json;
use rcb_sim::runner::Parallelism;
use rcb_sim::scenario::ScenarioSpec;

use crate::layers::{EngineSession, Results, TRIAL_CHUNK};
use crate::trace::{executor_account, Recorder};
use crate::workload::{check, Verdict, Workload};

/// Set-up is repeated at least this many times and for at least this long,
/// at most `SETUP_MAX_REPEATS` times, and reported as the median.
const SETUP_REPEATS: usize = 25;
const SETUP_MIN_SECONDS: f64 = 0.05;
const SETUP_MAX_REPEATS: usize = 100_000;

/// Executor workers: the two cores of the reference machine.
const WORKERS: usize = 2;
/// Per-round journals, the traced run's journal and its span file.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("positive seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
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

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// An empty journal directory for the next round.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// One set-up: build the specs from the seed, validate them, create the
/// sweep journal (in memory, as the sweep path does) and construct each
/// spec's engine session once as a warm-up.
fn set_up(workload: Workload, seed: u64, journal_dir: &Path) -> Result<Vec<ScenarioSpec>, String> {
    let specs = workload.specs(seed);
    for (i, spec) in specs.iter().enumerate() {
        spec.validate().map_err(|e| format!("spec {i}: {e}"))?;
    }
    let fingerprint = sweep_fingerprint(&specs);
    drop(Journal::create(
        journal_dir.join(format!("sweep_{fingerprint:016x}.jsonl")),
        JournalHeader::new(
            "sweep",
            fingerprint,
            Json::obj(vec![("cells", Json::Num(specs.len() as f64))]),
        ),
    ));
    for spec in &specs {
        drop(EngineSession::new(spec)?);
    }
    Ok(specs)
}

/// Times [`set_up`] repeatedly (at least [`SETUP_REPEATS`] times and for
/// at least [`SETUP_MIN_SECONDS`]) and returns the specs and the median.
fn timed_set_up(args: &Args, journal_dir: &Path) -> Result<(Vec<ScenarioSpec>, f64), String> {
    let phase = Instant::now();
    let mut secs = Vec::new();
    loop {
        let start = Instant::now();
        let specs = set_up(args.workload, args.seed, journal_dir)?;
        secs.push(start.elapsed().as_secs_f64());
        let enough =
            secs.len() >= SETUP_REPEATS && phase.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS;
        if enough || secs.len() >= SETUP_MAX_REPEATS {
            return Ok((specs, median(&secs)));
        }
    }
}

struct Round {
    wall_s: f64,
    /// `VmHWM` after the round, in KiB; the round's own peak when the
    /// high-water mark could be reset before it.
    peak_kib: Option<u64>,
    peak_exclusive: bool,
    trials: u64,
    slots: u64,
}

/// One timed round: the experiment sweep path with a journal, then the
/// per-spec checksum fold.
fn timed_round(
    specs: &[ScenarioSpec],
    workers: usize,
    journal_dir: &Path,
) -> Result<(Results, Vec<u64>, Round), String> {
    fresh_dir(journal_dir)?;
    let peak_exclusive = reset_peak_rss();
    let ctl = SweepControl {
        journal_dir: Some(journal_dir.to_path_buf()),
        deadline_secs: None,
    };
    let start = Instant::now();
    let results = run_sweep_specs_with(specs, Parallelism::Fixed(workers), &ctl);
    let sums = batch_checksums(specs, &results);
    let wall_s = start.elapsed().as_secs_f64();
    let round = Round {
        wall_s,
        peak_kib: peak_rss_kib(),
        peak_exclusive,
        trials: results.iter().map(|b| b.len() as u64).sum(),
        slots: results.iter().flatten().map(|(o, _)| o.slots()).sum(),
    };
    Ok((results, sums, round))
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render_compact()
}

fn hex(sums: &[u64]) -> String {
    sums.iter()
        .map(|s| format!("{s:016x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn run(args: &Args) -> Result<bool, String> {
    let work_dir = Path::new(WORK_DIR);
    let journal_dir = work_dir.join("journal");
    let name = args.workload.name();

    // -- set-up, repeated; the last one's specs are the ones timed --------
    let (specs, setup_s) = timed_set_up(args, &journal_dir)?;
    let per_round: u64 = specs.iter().map(|s| s.trials).sum();
    println!(
        "workload {name}: seed {}, {} spec(s), {per_round} trials per round, {} worker(s)",
        args.seed,
        specs.len(),
        WORKERS
    );

    // -- timed phase: whole rounds while the next one should end in time --
    let mut rounds: Vec<Round> = Vec::new();
    // Round 1's outcomes are checked and then dropped, so every round's
    // peak RSS is measured over the same resident state.
    let mut first: Option<(Vec<u64>, Vec<u64>, Verdict)> = None;
    let mut violations: Vec<String> = Vec::new();
    let phase = Instant::now();
    while rounds
        .last()
        .is_none_or(|last| phase.elapsed().as_secs_f64() + last.wall_s <= args.seconds)
    {
        let (results, sums, round) = timed_round(&specs, WORKERS, &journal_dir)?;
        println!(
            "round {}: {:.4} s, {} trials, {} slots, peak {} KiB{}",
            rounds.len() + 1,
            round.wall_s,
            round.trials,
            round.slots,
            round.peak_kib.unwrap_or(0),
            if round.peak_exclusive {
                ""
            } else {
                " (process-wide)"
            },
        );
        match &first {
            None => {
                let trial0 = specs
                    .iter()
                    .zip(&results)
                    .map(|(spec, batch)| spec.outcome_checksum(&batch[0].0))
                    .collect();
                first = Some((sums, trial0, check(&specs, &results)));
            }
            Some((expected, ..)) if *expected != sums => violations.push(format!(
                "round {} checksums {} differ from round 1's {}",
                rounds.len() + 1,
                hex(&sums),
                hex(expected)
            )),
            Some(_) => {}
        }
        rounds.push(round);
    }
    let (sums, trial0, verdict) = first.expect("at least one round ran");
    violations.extend(verdict.violations.iter().cloned());
    let attempted = verdict.attempted * rounds.len() as u64;
    let failed = verdict.failed * rounds.len() as u64;
    println!("checksums: {}", hex(&sums));
    println!(
        "failed_frac: {} ({failed} of {attempted} trials)",
        ratio(failed as f64, attempted as f64)
    );

    let trials_per_s: Vec<f64> = rounds.iter().map(|r| r.trials as f64 / r.wall_s).collect();
    let slots_per_s: Vec<f64> = rounds.iter().map(|r| r.slots as f64 / r.wall_s).collect();
    let untraced_tps = median(&trials_per_s);

    let metrics = if args.trace {
        traced(
            args,
            work_dir,
            &specs,
            &trial0,
            &sums,
            untraced_tps,
            &mut violations,
        )?
    } else {
        let peaks: Vec<f64> = rounds
            .iter()
            .map(|r| r.peak_kib.map(|k| k as f64))
            .collect::<Option<_>>()
            .ok_or("VmHWM is not readable on this platform")?;
        vec![
            metric("setup_s", setup_s, "s"),
            metric("trials_per_s", untraced_tps, "1/s"),
            metric("slots_per_s", median(&slots_per_s), "1/s"),
            metric("peak_rss_mib", median(&peaks) / 1024.0, "MiB"),
        ]
    };
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    let correct = violations.is_empty();
    println!("{}", render_result(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// The traced run over the same specs: executor, outcome fold and journal
/// with spans; then the session replay and the cohort shape. Checks that
/// every path reproduces the timed run's checksums.
fn traced(
    args: &Args,
    work_dir: &Path,
    specs: &[ScenarioSpec],
    timed_trial0: &[u64],
    timed_sums: &[u64],
    untraced_tps: f64,
    violations: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);

    let setup = rec.open("setup", None, None);
    let rebuilt = rec.time("scenario.build", None, Some(setup), || {
        args.workload.specs(args.seed)
    });
    for spec in &rebuilt {
        rec.time("scenario.validate", None, Some(setup), || spec.validate())?;
    }
    rec.close(setup);
    if rebuilt != specs {
        violations.push("rebuilding the specs from the seed gave different specs".into());
    }

    let round = rec.open("traced_round", None, None);
    let first = rec.spans.len();
    let (results, stamps, call) = layers::traced_executor(specs, WORKERS, &mut rec)?;
    let sums = layers::traced_checksums(specs, &results, &mut rec);
    let journal_path = work_dir.join("traced_journal.jsonl");
    let (records, bytes) = layers::traced_journal(specs, &results, &journal_path, &mut rec)?;
    rec.close(round);
    rec.adopt(first, round);
    let traced_wall_s = rec.spans[round].duration_ns() as f64 * 1e-9;
    let trials: u64 = specs.iter().map(|s| s.trials).sum();
    let slots: u64 = results.iter().flatten().map(|(o, _)| o.slots()).sum();
    println!("traced checksums: {}", hex(&sums));
    if sums != timed_sums {
        violations.push("traced executor checksums differ from the timed run's".into());
    }
    violations.extend(check(specs, &results).violations);

    let replay_span = rec.open("session_replay", None, None);
    let layers::Replay {
        results: replayed,
        rec: replay_rec,
        plan_calls,
        observe_calls,
        adversary_ns,
        run_ns,
    } = layers::replay(specs, WORKERS, origin)?;
    rec.close(replay_span);
    let replay_sums = batch_checksums(specs, &replayed);
    println!("session replay checksums: {}", hex(&replay_sums));
    if replay_sums != timed_sums {
        violations.push("session replay checksums differ from the timed run's".into());
    }

    let shapes = rec.time("cohort_shape", None, None, || layers::cohort_shapes(specs));
    for (i, shape) in shapes.iter().enumerate() {
        if let Some(shape) = shape {
            println!(
                "spec {i} trial 0 cohort shape: {} live cohorts, {} tracked nodes, {} split repetitions",
                shape.max_live_cohorts, shape.tracked_nodes, shape.split_repetitions
            );
            if shape.checksum != timed_trial0[i] {
                violations.push(format!(
                    "spec {i}: instrumented cohort trial 0 differs from the timed run's"
                ));
            }
        }
    }
    let widest = shapes
        .iter()
        .flatten()
        .max_by_key(|s| s.max_live_cohorts)
        .copied()
        .unwrap_or_default();

    let call_span = rec.spans[call];
    let (trial_spans, acc) = executor_account(&stamps, &call_span, WORKERS, TRIAL_CHUNK, |g| {
        run_ns[g as usize]
    });
    rec.spans
        .extend(trial_spans.into_iter().map(|s| trace::Span {
            parent: Some(call),
            ..s
        }));
    let first = rec.spans.len();
    rec.absorb(replay_rec);
    rec.adopt(first, replay_span);
    let trace_path = work_dir.join(format!("trace_{}.jsonl", args.workload.name()));
    rec.write_jsonl(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "spans: {} written to {}",
        rec.spans.len(),
        trace_path.display()
    );

    let adversary_s = adversary_ns as f64 * 1e-9;
    let session_run_s = rec.total_s("session.run");
    let engine_s = session_run_s - adversary_s;
    let plans = plan_calls as f64;
    let traced_tps = trials as f64 / traced_wall_s;
    Ok(vec![
        metric("scenario.validate_s", rec.total_s("scenario.validate"), "s"),
        metric("scenario.trials", trials as f64, "count"),
        metric("scenario.slots", slots as f64, "count"),
        metric("scenario.checksum_s", rec.total_s("scenario.checksum"), "s"),
        metric("executor.wall_s", acc.wall_ns as f64 * 1e-9, "s"),
        metric("executor.busy_s", acc.busy_ns as f64 * 1e-9, "s"),
        metric("executor.idle_s", acc.idle_ns as f64 * 1e-9, "s"),
        metric("executor.efficiency", acc.efficiency, "ratio"),
        metric("executor.chunks", acc.chunks as f64, "count"),
        metric("journal.records", records as f64, "count"),
        metric("journal.bytes", bytes as f64, "bytes"),
        metric("journal.append_s", rec.total_s("journal.append"), "s"),
        metric("journal.flush_s", rec.total_s("journal.flush"), "s"),
        metric("session.new_s", rec.total_s("session.new"), "s"),
        metric("session.rearm_s", rec.total_s("session.rearm"), "s"),
        metric("session.run_s", session_run_s, "s"),
        metric("adversary.plan_calls", plans, "count"),
        metric("adversary.observe_calls", observe_calls as f64, "count"),
        metric("adversary.self_s", adversary_s, "s"),
        metric("engine.self_s", engine_s, "s"),
        metric("engine.ns_per_rep", ratio(engine_s * 1e9, plans), "ns"),
        metric("engine.slots_per_rep", ratio(slots as f64, plans), "slots"),
        metric(
            "cohort.max_live_cohorts",
            widest.max_live_cohorts as f64,
            "count",
        ),
        metric(
            "cohort.compression",
            if widest.n == 0 {
                0.0
            } else {
                widest.compression()
            },
            "ratio",
        ),
        metric(
            "cohort.split_repetitions",
            widest.split_repetitions as f64,
            "count",
        ),
        metric("cohort.tracked_nodes", widest.tracked_nodes as f64, "count"),
        metric(
            "trace.overhead_frac",
            ratio(untraced_tps, traced_tps) - 1.0,
            "ratio",
        ),
    ])
}
