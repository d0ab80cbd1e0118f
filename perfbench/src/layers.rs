//! The traced run: the same trials driven once more through each layer's
//! public functions, with spans and counts recorded around the calls.
//!
//! * executor — `run_specs_ctl` with a `SpecsControl::skip` hook that
//!   stamps every trial just before it runs (the hook never skips);
//! * outcome fold — `ScenarioSpec::outcome_checksum` per trial;
//! * journal — `trial_payload`, `Journal::append`, `Journal::flush`;
//! * sessions, engines, adversary — every trial replayed through its
//!   engine's re-armable session, with the adversary wrapped in
//!   [`TimedAdversary`];
//! * cohort shape — `run_cohort_instrumented` on trial 0 of each
//!   cohort-engine spec.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rcb_adversary::traits::{JamPlan, RepetitionAdversary, RepetitionContext, RepetitionSummary};
use rcb_bench::experiments::common::{sweep_fingerprint, trial_payload};
use rcb_core::one_to_one::profile::Fig1Profile;
use rcb_mathkit::rng::{RcbRng, SeedSequence};
use rcb_sim::cohort::{run_cohort_instrumented, CohortConfig, CohortSession};
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{DuelConfig, DuelSession};
use rcb_sim::error::SimError;
use rcb_sim::executor::{run_specs_ctl, SpecsControl};
use rcb_sim::fast::{BroadcastSession, FastConfig};
use rcb_sim::journal::{Journal, JournalHeader};
use rcb_sim::json::Json;
use rcb_sim::outcome::BroadcastOutcome;
use rcb_sim::runner::Parallelism;
use rcb_sim::scenario::{fnv1a, DuelProtocol, Engine, Outcome, ScenarioSpec, Workload, FNV_OFFSET};
use rcb_sim::session::Session;

use crate::trace::{Coverage, Recorder, TrialStamp};

/// The executor's trials per cursor bump (`rcb_sim::executor`'s private
/// `TRIAL_CHUNK`), used to count chunks from the stamps.
pub const TRIAL_CHUNK: u64 = 16;

pub type Results = Vec<Vec<(Outcome, Option<SimError>)>>;

/// First global trial index of each spec, plus the total at the end.
pub fn offsets(specs: &[ScenarioSpec]) -> Vec<u64> {
    let mut out = Vec::with_capacity(specs.len() + 1);
    let mut total = 0;
    for s in specs {
        out.push(total);
        total += s.trials;
    }
    out.push(total);
    out
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Runs the specs through `run_specs_ctl` with a stamping skip hook.
/// Returns the results, the stamps, and the index of the call's span.
pub fn traced_executor(
    specs: &[ScenarioSpec],
    workers: usize,
    rec: &mut Recorder,
) -> Result<(Results, Vec<TrialStamp>, usize), String> {
    let offsets = offsets(specs);
    let stamps = Mutex::new(Vec::with_capacity(*offsets.last().unwrap_or(&0) as usize));
    let origin = rec.origin();
    let skip = |spec: usize, trial: u64| {
        let at_ns = origin.elapsed().as_nanos() as u64;
        let thread = THREAD.with(|t| *t);
        stamps
            .lock()
            .expect("a stamping thread panicked")
            .push(TrialStamp {
                thread,
                global: offsets[spec] + trial,
                at_ns,
            });
        false
    };
    let ctl = SpecsControl {
        deadline: Deadline::NONE,
        trial_deadline: None,
        max_attempts: 2,
        skip: Some(&skip),
    };
    let call = rec.open("executor.run_specs_ctl", None, None);
    let run = run_specs_ctl(specs, Parallelism::Fixed(workers), &ctl);
    rec.close(call);
    if let Some(q) = run.quarantined.first() {
        return Err(format!(
            "spec {}, trial {} quarantined: {}",
            q.spec, q.trial, q.failure.payload
        ));
    }
    let results = run
        .results
        .into_iter()
        .map(|batch| batch.into_iter().collect::<Option<Vec<_>>>())
        .collect::<Option<Vec<_>>>()
        .ok_or("the executor left a trial unrun")?;
    let stamps = stamps.into_inner().expect("a stamping thread panicked");
    Ok((results, stamps, call))
}

// ---------------------------------------------------------------------------
// Outcome fold and journal
// ---------------------------------------------------------------------------

/// Per-spec checksum fold (`executor::batch_checksums`), one span per
/// `outcome_checksum` call.
pub fn traced_checksums(specs: &[ScenarioSpec], results: &Results, rec: &mut Recorder) -> Vec<u64> {
    let offsets = offsets(specs);
    specs
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (spec, batch))| {
            batch
                .iter()
                .enumerate()
                .fold(FNV_OFFSET, |h, (t, (outcome, _))| {
                    let g = offsets[i] + t as u64;
                    let c = rec.time("scenario.checksum", Some(g), None, || {
                        spec.outcome_checksum(outcome)
                    });
                    fnv1a(h, &[c])
                })
        })
        .collect()
}

/// Journals every trial the way the experiment sweeps do and flushes once.
/// Returns (records, bytes on disk).
pub fn traced_journal(
    specs: &[ScenarioSpec],
    results: &Results,
    path: &Path,
    rec: &mut Recorder,
) -> Result<(u64, u64), String> {
    let offsets = offsets(specs);
    let fingerprint = sweep_fingerprint(specs);
    let mut journal = Journal::create(
        path,
        JournalHeader::new(
            "sweep",
            fingerprint,
            Json::obj(vec![("cells", Json::Num(specs.len() as f64))]),
        ),
    );
    for (i, batch) in results.iter().enumerate() {
        for (t, (outcome, err)) in batch.iter().enumerate() {
            let g = offsets[i] + t as u64;
            rec.time("journal.append", Some(g), None, || {
                journal.append(format!("spec{i}/trial{t}"), trial_payload(outcome, err))
            });
        }
    }
    rec.time("journal.flush", None, None, || journal.flush())
        .map_err(|e| format!("journal flush: {e}"))?;
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    Ok((journal.len() as u64, bytes))
}

// ---------------------------------------------------------------------------
// Sessions, engines, adversary
// ---------------------------------------------------------------------------

/// A repetition adversary that counts and times every call into the
/// strategy it wraps. Call intervals are folded into a [`Coverage`] of the
/// enclosing `session.run` span, so the engine's self time is that span's
/// duration minus what the adversary covered.
pub struct TimedAdversary<'a> {
    inner: &'a mut dyn RepetitionAdversary,
    origin: Instant,
    pub plan_calls: u64,
    pub observe_calls: u64,
    pub cover: Coverage,
}

impl<'a> TimedAdversary<'a> {
    pub fn new(inner: &'a mut dyn RepetitionAdversary, origin: Instant, start_ns: u64) -> Self {
        TimedAdversary {
            inner,
            origin,
            plan_calls: 0,
            observe_calls: 0,
            cover: Coverage::new(start_ns, u64::MAX),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl RepetitionAdversary for TimedAdversary<'_> {
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan {
        let start = self.now_ns();
        let plan = self.inner.plan(ctx);
        let end = self.now_ns();
        self.plan_calls += 1;
        self.cover.add(start, end);
        plan
    }

    fn observe(&mut self, ctx: &RepetitionContext, summary: &RepetitionSummary) {
        let start = self.now_ns();
        self.inner.observe(ctx, summary);
        let end = self.now_ns();
        self.observe_calls += 1;
        self.cover.add(start, end);
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }

    fn rearm(&mut self) {
        self.inner.rearm()
    }
}

/// The re-armable session that runs one spec's trials.
pub enum EngineSession {
    Fig1Duel(DuelSession<Fig1Profile>),
    Broadcast(Box<dyn Session<Outcome = BroadcastOutcome>>),
}

impl EngineSession {
    /// The session `ScenarioSpec::run_trial_ctl` would drive for `spec`,
    /// for the (workload, engine) pairs the benchmark's workloads use.
    pub fn new(spec: &ScenarioSpec) -> Result<EngineSession, String> {
        match (&spec.workload, spec.engine) {
            (Workload::Duel(w), Engine::Fast) => match w.protocol {
                DuelProtocol::Fig1 {
                    epsilon,
                    start_epoch,
                } => Ok(EngineSession::Fig1Duel(DuelSession::new(
                    Fig1Profile::with_start_epoch(epsilon, start_epoch),
                    DuelConfig {
                        max_slots: w.max_slots,
                    },
                    spec.faults,
                    0,
                ))),
                DuelProtocol::Ksy { .. } => Err("no session for KSY duels here".into()),
            },
            (Workload::Broadcast(w), Engine::Fast) => {
                Ok(EngineSession::Broadcast(Box::new(BroadcastSession::new(
                    w.params,
                    w.n,
                    w.sources.clone(),
                    FastConfig {
                        max_epoch: w.max_epoch,
                    },
                    spec.faults,
                    0,
                ))))
            }
            (Workload::Broadcast(w), Engine::CohortFast) => {
                Ok(EngineSession::Broadcast(Box::new(CohortSession::new(
                    w.params,
                    w.n,
                    w.sources.clone(),
                    cohort_config(w.max_epoch),
                    spec.faults,
                    0,
                ))))
            }
            (_, engine) => Err(format!(
                "no session replay for {} on {engine:?}",
                spec.workload
            )),
        }
    }

    pub fn rearm(&mut self, seed: u64) {
        match self {
            EngineSession::Fig1Duel(s) => s.rearm(seed),
            EngineSession::Broadcast(s) => s.rearm(seed),
        }
    }

    pub fn run(&mut self, adversary: &mut dyn RepetitionAdversary) -> (Outcome, Option<SimError>) {
        match self {
            EngineSession::Fig1Duel(s) => {
                let (o, e) = s.run(adversary, &Deadline::NONE);
                (Outcome::Duel(o), e)
            }
            EngineSession::Broadcast(s) => {
                let (o, e) = s.run(adversary, &Deadline::NONE);
                (Outcome::Broadcast(o), e)
            }
        }
    }
}

fn cohort_config(max_epoch: u32) -> CohortConfig {
    CohortConfig {
        max_epoch,
        ..CohortConfig::default()
    }
}

/// What the session replay measured.
pub struct Replay {
    pub results: Results,
    /// `session.new`, `session.rearm` and `session.run` spans.
    pub rec: Recorder,
    pub plan_calls: u64,
    pub observe_calls: u64,
    pub adversary_ns: u64,
    /// Duration of each trial's `session.run`, by global trial index.
    pub run_ns: Vec<u64>,
}

/// Replays every trial through its spec's session on `workers` threads
/// (worker `w` takes the global trials `g ≡ w mod workers`), seeding trial
/// `i` with `SeedSequence::child(i)` exactly as the executor does.
pub fn replay(specs: &[ScenarioSpec], workers: usize, origin: Instant) -> Result<Replay, String> {
    let offsets = offsets(specs);
    let total = *offsets.last().unwrap_or(&0);
    let workers = workers.max(1);
    type Part = (
        Vec<(u64, (Outcome, Option<SimError>), u64)>,
        Recorder,
        u64,
        u64,
        u64,
    );
    let work = |w: usize| -> Result<Part, String> {
        let mut rec = Recorder::new(origin);
        let mut sessions: Vec<Option<EngineSession>> = specs.iter().map(|_| None).collect();
        let (mut plans, mut observes, mut adv_ns) = (0, 0, 0);
        let mut out = Vec::new();
        for g in (w as u64..total).step_by(workers) {
            let i = offsets.partition_point(|&o| o <= g) - 1;
            let spec = &specs[i];
            let trial = g - offsets[i];
            if sessions[i].is_none() {
                let s = rec.time("session.new", None, None, || EngineSession::new(spec))?;
                sessions[i] = Some(s);
            }
            let session = sessions[i].as_mut().expect("created above");
            let seed = SeedSequence::new(spec.seeds.master).child(trial);
            rec.time("session.rearm", Some(g), None, || session.rearm(seed));
            let mut strategy = spec.adversary.build(spec.seeds.adversary_seed(trial));
            let run = rec.open("session.run", Some(g), None);
            let mut adv = TimedAdversary::new(strategy.as_mut(), origin, rec.spans[run].start_ns);
            let result = session.run(&mut adv);
            rec.close(run);
            plans += adv.plan_calls;
            observes += adv.observe_calls;
            adv_ns += adv.cover.covered_ns;
            out.push((g, result, rec.spans[run].duration_ns()));
        }
        Ok((out, rec, plans, observes, adv_ns))
    };
    let parts: Vec<Result<Part, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a replay worker panicked".into()))
            })
            .collect()
    });

    let mut flat: Vec<Option<(Outcome, Option<SimError>)>> = (0..total).map(|_| None).collect();
    let mut replay = Replay {
        results: Vec::new(),
        rec: Recorder::new(origin),
        plan_calls: 0,
        observe_calls: 0,
        adversary_ns: 0,
        run_ns: vec![0; total as usize],
    };
    for part in parts {
        let (trials, rec, plans, observes, adv_ns) = part?;
        for (g, result, ns) in trials {
            flat[g as usize] = Some(result);
            replay.run_ns[g as usize] = ns;
        }
        replay.rec.absorb(rec);
        replay.plan_calls += plans;
        replay.observe_calls += observes;
        replay.adversary_ns += adv_ns;
    }
    let mut flat = flat.into_iter();
    replay.results = specs
        .iter()
        .map(|s| {
            (0..s.trials)
                .map(|_| flat.next().flatten().expect("every trial replayed"))
                .collect()
        })
        .collect();
    Ok(replay)
}

// ---------------------------------------------------------------------------
// Cohort shape
// ---------------------------------------------------------------------------

/// Cohort-engine shape of trial 0 of one spec.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CohortShape {
    pub n: usize,
    pub max_live_cohorts: usize,
    pub split_repetitions: u64,
    pub tracked_nodes: usize,
    /// Checksum of the instrumented run's outcome, to compare with the
    /// executor's trial 0.
    pub checksum: u64,
}

impl CohortShape {
    /// Nodes per simulated unit: `n / (live cohorts + tracked nodes)`,
    /// which is `n / live` in the compressed regime and 1 when every node
    /// is tracked.
    pub fn compression(&self) -> f64 {
        self.n as f64 / (self.max_live_cohorts + self.tracked_nodes).max(1) as f64
    }
}

/// Runs `run_cohort_instrumented` on trial 0 of every fault-free
/// cohort-engine broadcast spec (`None` for the other specs).
pub fn cohort_shapes(specs: &[ScenarioSpec]) -> Vec<Option<CohortShape>> {
    specs
        .iter()
        .map(|spec| match (&spec.workload, spec.engine) {
            (Workload::Broadcast(w), Engine::CohortFast) if spec.faults.is_none() => {
                let mut adv = spec.adversary.build(spec.seeds.adversary_seed(0));
                let mut rng = RcbRng::new(SeedSequence::new(spec.seeds.master).child(0));
                let (out, stats) = run_cohort_instrumented(
                    &w.params,
                    w.n,
                    &w.sources,
                    adv.as_mut(),
                    &mut rng,
                    cohort_config(w.max_epoch),
                );
                Some(CohortShape {
                    n: w.n,
                    max_live_cohorts: stats.max_live_cohorts,
                    split_repetitions: stats.split_repetitions,
                    tracked_nodes: stats.tracked_nodes,
                    checksum: spec.outcome_checksum(&Outcome::Broadcast(out)),
                })
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload as W;
    use rcb_sim::executor::{batch_checksums, run_specs};

    /// A tiny instance of each workload: 40 trials per budget point for
    /// the duel sweep, one trial per spec for the broadcasts, and the
    /// cohort spec shrunk to n = 1024 against a 20 k blocker (still above
    /// the all-tracked threshold, so the compressed regime runs).
    fn tiny(w: W) -> Vec<ScenarioSpec> {
        let trials = if w == W::SweepDuel { 40 } else { 1 };
        let mut specs = w.specs_sized(11, Some(trials));
        if w == W::BcastN65536 {
            for spec in &mut specs {
                if let Workload::Broadcast(b) = &mut spec.workload {
                    b.n = 1024;
                }
                spec.adversary = spec.adversary.with_budget(20_000);
            }
        }
        specs
    }

    #[test]
    fn session_replay_matches_the_executor_at_one_and_two_workers() {
        for w in W::ALL {
            let specs = tiny(w);
            let reference = batch_checksums(&specs, &run_specs(&specs, Parallelism::Fixed(1)));
            for workers in [1, 2] {
                let direct = run_specs(&specs, Parallelism::Fixed(workers));
                assert_eq!(
                    batch_checksums(&specs, &direct),
                    reference,
                    "{w:?} run_specs"
                );
                let replay = replay(&specs, workers, Instant::now()).expect("replay");
                assert_eq!(
                    batch_checksums(&specs, &replay.results),
                    reference,
                    "{w:?} replay at {workers} workers"
                );
                assert!(replay.plan_calls > 0);
            }
        }
    }

    #[test]
    fn traced_executor_and_fold_match_batch_checksums() {
        let specs = tiny(W::SweepDuel);
        let reference = batch_checksums(&specs, &run_specs(&specs, Parallelism::Fixed(1)));
        let mut rec = Recorder::new(Instant::now());
        let (results, stamps, call) = traced_executor(&specs, 2, &mut rec).expect("run");
        assert_eq!(traced_checksums(&specs, &results, &mut rec), reference);
        // One stamp per trial, each inside the executor call.
        let total: u64 = specs.iter().map(|s| s.trials).sum();
        assert_eq!(stamps.len() as u64, total);
        let mut seen: Vec<u64> = stamps.iter().map(|s| s.global).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        let span = rec.spans[call];
        assert!(stamps
            .iter()
            .all(|s| s.at_ns >= span.start_ns && s.at_ns <= span.end_ns));
    }

    #[test]
    fn cohort_shape_comes_from_the_same_trial() {
        let specs = tiny(W::BcastN65536);
        let direct = run_specs(&specs, Parallelism::Fixed(1));
        let shapes = cohort_shapes(&specs);
        let shape = shapes[0].expect("a fault-free cohort spec");
        assert_eq!(shape.checksum, specs[0].outcome_checksum(&direct[0][0].0));
        assert!(shape.max_live_cohorts > 0, "n = 1024 runs compressed");
        assert!(shape.compression() >= 1.0);
        // The other workloads have no cohort-engine spec.
        assert!(cohort_shapes(&tiny(W::BcastN64))
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn journal_step_writes_every_record() {
        let specs = tiny(W::BcastN64);
        let results = run_specs(&specs, Parallelism::Fixed(1));
        let dir = std::env::temp_dir().join(format!("perfbench-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.jsonl");
        let mut rec = Recorder::new(Instant::now());
        let (records, bytes) = traced_journal(&specs, &results, &path, &mut rec).expect("journal");
        assert_eq!(records, 2);
        assert_eq!(bytes, std::fs::metadata(&path).expect("written").len());
        assert_eq!(Journal::load(&path).expect("loads").len(), 2);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn timed_adversary_forwards_and_counts() {
        let specs = tiny(W::SweepDuel);
        let spec = &specs[3];
        let mut session = EngineSession::new(spec).expect("session");
        let seed = SeedSequence::new(spec.seeds.master).child(0);
        session.rearm(seed);
        let mut plain = spec.adversary.build(spec.seeds.adversary_seed(0));
        let expected = session.run(plain.as_mut());
        session.rearm(seed);
        let mut inner = spec.adversary.build(spec.seeds.adversary_seed(0));
        let origin = Instant::now();
        let mut timed = TimedAdversary::new(inner.as_mut(), origin, 0);
        let got = session.run(&mut timed);
        assert_eq!(
            spec.outcome_checksum(&got.0),
            spec.outcome_checksum(&expected.0)
        );
        assert!(timed.plan_calls > 0);
        assert!(timed.cover.covered_ns <= origin.elapsed().as_nanos() as u64);
    }
}
