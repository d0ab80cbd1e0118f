//! Deterministic work-stealing executor: the crate's one thread pool.
//!
//! Every parallel run in the crate — trial batches, experiment sweeps, the
//! conformance grid, the perf grid — goes through one scoped-thread,
//! atomic-cursor pool ([`run_cells_ctl`]):
//!
//! * [`run_cells`] — cell-granular: a deterministic parallel map over any
//!   slice. The shard unit is one list element; results come back in list
//!   order regardless of thread count or scheduling.
//!   [`run_trials`](crate::runner::run_trials) is this map over a batch's
//!   derived trial seeds.
//! * [`run_specs`] — trial-granular: flattens a `ScenarioSpec` list into
//!   one global trial work list (prefix sums over per-spec trial counts),
//!   so stealing crosses cell boundaries and a long tail cell cannot
//!   serialise the sweep. The pool's cells are fixed-size chunks of
//!   consecutive global indices; each chunk derives its trial seeds in one
//!   batched [`SeedSequence::children_into`] pass.
//!
//! ## Seed-fold invariant
//!
//! Trial `i` of spec `s` always runs at seed
//! `SeedSequence::new(s.seeds.master).child(i)` — the same derivation as
//! [`run_trials`](crate::runner::run_trials) — and seeded adversaries
//! still receive `master ^ i`. Work distribution therefore only reorders
//! *wall-clock execution*, never any RNG stream: results are bit-identical
//! across `Fixed(1)`, `Fixed(8)`, and `Auto` (certified by the tests
//! below).
//!
//! ## Nested parallelism
//!
//! Pool workers mark their thread with the runner's `IN_WORKER` flag, so
//! `Parallelism::Auto` *inside* a cell (e.g. a conformance cell's
//! `run_batch_raw`) degrades to sequential instead of spawning cores²
//! threads. `Fixed(n > 1)` at both tiers is honoured by name and therefore
//! oversubscribes — callers that nest must pick one parallel tier
//! (DESIGN.md §11).
//!
//! ## Crash-safe control ([`run_cells_ctl`] / [`run_specs_ctl`])
//!
//! The `_ctl` variants accept a deadline (and, for specs, a
//! [`SpecsControl`] with a same-seed retry budget and a resume-skip
//! predicate) and report **partial** results: every completed unit is
//! `Some`, everything the deadline cut off or the skip predicate elided is
//! `None`, and the run's `deadline_hit` flag says why. The run-level
//! deadline is checked *between* work units — an in-flight trial or cell
//! always finishes, so every `Some` is a deterministic, journal-safe
//! result. A panicking trial is retried on its **same** derived seed up to
//! `max_attempts` times, then quarantined ([`QuarantinedTrial`]) instead
//! of aborting the sweep; the seed streams of every other trial are
//! untouched either way.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use rcb_mathkit::rng::SeedSequence;

use crate::deadline::Deadline;
use crate::error::{SimError, TrialFailure};
use crate::runner::{enter_worker, Parallelism};
use crate::scenario::{fnv1a, Outcome, ScenarioSpec, FNV_OFFSET};

/// Trials claimed per cursor bump in [`run_specs`]. Small enough that a
/// sweep of a few hundred trials still balances across workers, large
/// enough to amortise the atomic traffic and the batched seed derivation.
const TRIAL_CHUNK: u64 = 16;

/// One trial's result (or quarantined failure) paired with its global
/// index, pre-merge.
type IndexedTrial = (u64, Result<(Outcome, Option<SimError>), TrialFailure>);

/// One spec's per-trial slots: `None` for skipped/never-started trials,
/// `Some` for completed deterministic results.
pub type TrialSlots = Vec<Option<(Outcome, Option<SimError>)>>;

/// Crash-safety knobs for [`run_specs_ctl`]. [`SpecsControl::DEFAULT`]
/// reproduces the uncontrolled [`run_specs`] behaviour exactly.
pub struct SpecsControl<'a> {
    /// Run-level wall-clock budget / cancellation token, checked *between*
    /// trials: in-flight trials finish, so partial results stay
    /// deterministic and journal-safe.
    pub deadline: Deadline,
    /// Optional per-trial wall budget: each trial (and each retry attempt)
    /// gets a fresh [`Deadline::after`] this long, threaded into the
    /// engine slot loops. Deadline-cut trials report
    /// [`SimError::DeadlineExceeded`] and are wall-clock dependent —
    /// resume paths must re-run them, never journal them.
    pub trial_deadline: Option<Duration>,
    /// Same-seed attempts before a panicking trial is quarantined
    /// (`1` = no retry; `0` is treated as `1`).
    pub max_attempts: u32,
    /// Resume predicate: `skip(spec, trial) == true` elides the trial
    /// (its result slot stays `None`). Seed derivation for every other
    /// trial is untouched, so a resumed run is bit-identical to an
    /// uninterrupted one.
    pub skip: Option<&'a (dyn Fn(usize, u64) -> bool + Sync)>,
}

impl SpecsControl<'static> {
    /// No deadline, no retries, no skips — [`run_specs`] semantics.
    pub const DEFAULT: SpecsControl<'static> = SpecsControl {
        deadline: Deadline::NONE,
        trial_deadline: None,
        max_attempts: 1,
        skip: None,
    };
}

impl Default for SpecsControl<'static> {
    fn default() -> Self {
        SpecsControl::DEFAULT
    }
}

/// A trial that kept panicking on its own seed and was set aside so the
/// rest of the sweep could finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedTrial {
    /// Index into the spec list passed to [`run_specs_ctl`].
    pub spec: usize,
    /// The trial index within that spec.
    pub trial: u64,
    /// The recorded failure (message + attempt count).
    pub failure: TrialFailure,
}

/// Partial, typed result of [`run_specs_ctl`].
#[derive(Debug)]
pub struct SpecsRun {
    /// Per-spec, per-trial results in spec/trial order. `None` means the
    /// trial was skipped (resume) or never started (deadline/quarantine);
    /// every `Some` is a completed, deterministic result.
    pub results: Vec<TrialSlots>,
    /// Trials that exhausted their same-seed retry budget, in
    /// (spec, trial) order.
    pub quarantined: Vec<QuarantinedTrial>,
    /// The run-level deadline (or cancellation flag) fired and cut the
    /// sweep short. Partial results were reported, never silently clipped.
    pub deadline_hit: bool,
}

/// Partial, typed result of [`run_cells_ctl`].
#[derive(Debug)]
pub struct CellsRun<T> {
    /// Per-cell results in list order; `None` = skipped or cut off.
    pub results: Vec<Option<T>>,
    /// The deadline (or cancellation flag) fired before all cells ran.
    pub deadline_hit: bool,
}

/// Deterministic parallel map over a heterogeneous work list: applies `f`
/// to every element of `items` and returns the results **in list order**,
/// independent of thread count or scheduling.
///
/// The shard unit is one element (a conformance cell, a perf scenario);
/// distribution is dynamic via an atomic cursor, so expensive cells next
/// to cheap ones balance across workers. Workers set the runner's
/// `IN_WORKER` flag, so `Parallelism::Auto` inside `f` degrades to
/// sequential. A panic in `f` propagates and aborts the map.
pub fn run_cells<I, T, F>(items: &[I], parallelism: Parallelism, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    run_cells_ctl(items, parallelism, &Deadline::NONE, None, f)
        .results
        .into_iter()
        .map(|v| v.expect("unbounded, skip-free run: every cell completed"))
        .collect()
}

/// [`run_cells`] with a cooperative deadline and a resume-skip predicate.
///
/// The deadline is checked before *starting* each cell — an in-flight
/// cell always finishes, so every `Some` in the result is a complete,
/// deterministic value safe to journal. `skip(i) == true` elides cell `i`
/// entirely (its slot stays `None`); remaining cells are unperturbed.
pub fn run_cells_ctl<I, T, F>(
    items: &[I],
    parallelism: Parallelism,
    deadline: &Deadline,
    skip: Option<&(dyn Fn(usize) -> bool + Sync)>,
    f: F,
) -> CellsRun<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let bounded = !deadline.is_unbounded();
    let hit = AtomicBool::new(false);
    let threads = parallelism.threads().min(items.len().max(1));

    let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    if threads <= 1 {
        for (i, item) in items.iter().enumerate() {
            if bounded && deadline.exceeded() {
                hit.store(true, Ordering::Relaxed);
                break;
            }
            if skip.is_some_and(|s| s(i)) {
                continue;
            }
            slots[i] = Some(f(i, item));
        }
        return CellsRun {
            results: slots,
            deadline_hit: hit.load(Ordering::Relaxed),
        };
    }

    let cursor = AtomicU64::new(0);
    let worker = |collected: &mut Vec<(usize, T)>| {
        enter_worker();
        loop {
            if bounded && (hit.load(Ordering::Relaxed) || deadline.exceeded()) {
                hit.store(true, Ordering::Relaxed);
                return;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
            if i >= items.len() {
                return;
            }
            if skip.is_some_and(|s| s(i)) {
                continue;
            }
            collected.push((i, f(i, &items[i])));
        }
    };

    let mut per_worker: Vec<Vec<(usize, T)>> = Vec::with_capacity(threads);
    per_worker.resize_with(threads, Vec::new);
    std::thread::scope(|scope| {
        for collected in &mut per_worker {
            scope.spawn(|| worker(collected));
        }
    });

    for (i, value) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "cell {i} claimed twice");
        slots[i] = Some(value);
    }
    CellsRun {
        results: slots,
        deadline_hit: hit.load(Ordering::Relaxed),
    }
}

/// Runs every trial of every spec through one global work-stealing pool
/// and returns the tolerant per-trial results grouped by spec, in spec and
/// trial order.
///
/// The work list is the disjoint union of all specs' trial ranges (prefix
/// sums map a global index back to `(spec, trial)`), so workers steal
/// across cell boundaries: a sweep whose last cell is 10× the others keeps
/// every core busy until the true end of the work, which cell-granular
/// sharding cannot. Trial `i` of a spec runs at its seed-sequence child
/// `i`, so the grouped output is bit-identical at any thread count and to
/// running each spec alone ([`ScenarioSpec::run_batch_raw`]).
pub fn run_specs(
    specs: &[ScenarioSpec],
    parallelism: Parallelism,
) -> Vec<Vec<(Outcome, Option<SimError>)>> {
    let run = run_specs_ctl(specs, parallelism, &SpecsControl::DEFAULT);
    if let Some(q) = run.quarantined.first() {
        panic!("spec {}, trial {}: {}", q.spec, q.trial, q.failure.payload);
    }
    run.results
        .into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .map(|t| t.expect("unbounded, skip-free run: every trial completed"))
                .collect()
        })
        .collect()
}

/// [`run_specs`] under a [`SpecsControl`]: cooperative deadlines, resume
/// skips, and a bounded same-seed retry-then-quarantine policy for
/// panicking trials — with **partial results reported**, never a silent
/// clip.
///
/// Every completed trial still runs at its seed-sequence child seed
/// (retries re-run the *same* seed), so whatever subset completes is
/// bit-identical to the corresponding trials of an uninterrupted run at
/// any thread count. The pool's cells are chunks of `TRIAL_CHUNK` (16)
/// consecutive global trial indices.
pub fn run_specs_ctl(
    specs: &[ScenarioSpec],
    parallelism: Parallelism,
    ctl: &SpecsControl<'_>,
) -> SpecsRun {
    // offsets[k] = first global index of spec k; offsets[len] = total.
    let mut offsets: Vec<u64> = Vec::with_capacity(specs.len() + 1);
    let mut total = 0u64;
    for spec in specs {
        offsets.push(total);
        total += spec.trials;
    }
    offsets.push(total);

    let bounded = !ctl.deadline.is_unbounded();
    let hit = AtomicBool::new(false);

    // A chunk of consecutive global indices may straddle spec boundaries;
    // split it into per-spec sub-ranges.
    let run_chunk = |start: u64| -> Vec<IndexedTrial> {
        let end = (start + TRIAL_CHUNK).min(total);
        let mut sink = Vec::with_capacity((end - start) as usize);
        let mut g = start;
        while g < end {
            let cell = offsets.partition_point(|&o| o <= g) - 1;
            let spec = &specs[cell];
            let sub_end = end.min(offsets[cell + 1]);
            let first_trial = g - offsets[cell];
            let len = (sub_end - g) as usize;
            let mut child_seeds = vec![0u64; len];
            SeedSequence::new(spec.seeds.master).children_into(first_trial, &mut child_seeds);
            for (j, &seed) in child_seeds.iter().enumerate() {
                let trial = first_trial + j as u64;
                if bounded && ctl.deadline.exceeded() {
                    hit.store(true, Ordering::Relaxed);
                    return sink;
                }
                if ctl.skip.is_some_and(|s| s(cell, trial)) {
                    continue;
                }
                let result = run_with_retries(seed, trial, ctl.max_attempts, |seed| {
                    let trial_dl = ctl
                        .trial_deadline
                        .map(Deadline::after)
                        .unwrap_or(Deadline::NONE);
                    spec.run_trial_ctl(trial, seed, &trial_dl)
                });
                sink.push((g + j as u64, result));
            }
            g = sub_end;
        }
        sink
    };

    let chunks: Vec<u64> = (0..total).step_by(TRIAL_CHUNK as usize).collect();
    let run = run_cells_ctl(&chunks, parallelism, &ctl.deadline, None, |_, &start| {
        run_chunk(start)
    });
    let deadline_hit = run.deadline_hit || hit.load(Ordering::Relaxed);

    let mut slots: Vec<Option<(Outcome, Option<SimError>)>> = Vec::with_capacity(total as usize);
    slots.resize_with(total as usize, || None);
    let mut quarantined_flat: Vec<(u64, TrialFailure)> = Vec::new();
    for (g, value) in run.results.into_iter().flatten().flatten() {
        debug_assert!(slots[g as usize].is_none(), "trial {g} claimed twice");
        match value {
            Ok(result) => slots[g as usize] = Some(result),
            Err(failure) => quarantined_flat.push((g, failure)),
        }
    }
    quarantined_flat.sort_unstable_by_key(|(g, _)| *g);
    let quarantined = quarantined_flat
        .into_iter()
        .map(|(g, failure)| {
            let spec = offsets.partition_point(|&o| o <= g) - 1;
            QuarantinedTrial {
                spec,
                trial: g - offsets[spec],
                failure,
            }
        })
        .collect();

    let mut slots = slots.into_iter();
    let results = specs
        .iter()
        .map(|spec| {
            (0..spec.trials)
                .map(|_| slots.next().expect("slot per global index"))
                .collect()
        })
        .collect();
    SpecsRun {
        results,
        quarantined,
        deadline_hit,
    }
}

/// Runs one trial with a bounded **same-seed** retry policy: each attempt
/// re-runs the same derived child seed, so a success on any attempt is
/// byte-identical to a first-try success and no other trial's stream
/// moves. After `max_attempts` panics (`0` treated as `1`), the trial is
/// given up with the attempt count recorded.
fn run_with_retries<T>(
    seed: u64,
    trial: u64,
    max_attempts: u32,
    run: impl Fn(u64) -> T,
) -> Result<T, TrialFailure> {
    let max_attempts = max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match catch_unwind(AssertUnwindSafe(|| run(seed))) {
            Ok(value) => return Ok(value),
            Err(payload) if attempt >= max_attempts => {
                let mut failure = TrialFailure::new(trial, panic_payload(payload));
                failure.attempts = attempt;
                return Err(failure);
            }
            Err(_) => {}
        }
    }
}

/// Renders a panic payload the way the default hook does: `&str` and
/// `String` payloads verbatim. Non-string payloads are probed against the
/// types a simulation harness plausibly throws — [`SimError`], I/O
/// errors, numbers — and rendered as `TypeName: value` so the failure
/// report names *what* was thrown instead of collapsing every typed
/// payload to the same opaque line.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    let payload = match payload.downcast::<String>() {
        Ok(s) => return *s,
        Err(p) => p,
    };
    let payload = match payload.downcast::<&'static str>() {
        Ok(s) => return (*s).to_string(),
        Err(p) => p,
    };
    macro_rules! probe {
        ($p:expr, $($ty:ty),+ $(,)?) => {{
            let p = $p;
            $(let p = match p.downcast::<$ty>() {
                Ok(v) => return format!("{}: {}", stringify!($ty), *v),
                Err(p) => p,
            };)+
            p
        }};
    }
    use crate::error::SimError;
    use std::io::Error as IoError;
    let _ = probe!(
        payload,
        SimError,
        TrialFailure,
        IoError,
        i32,
        u32,
        i64,
        u64,
        usize,
        f64,
        bool,
        char,
    );
    "non-string panic payload".to_string()
}

/// Per-spec FNV-1a batch checksums over [`run_specs`] results: each spec's
/// per-trial [`outcome_checksum`](ScenarioSpec::outcome_checksum)s folded
/// in trial order from [`FNV_OFFSET`] — the exact fold the perf grid
/// records, so these values are comparable with `BENCH_*.json` history.
pub fn batch_checksums(
    specs: &[ScenarioSpec],
    results: &[Vec<(Outcome, Option<SimError>)>],
) -> Vec<u64> {
    specs
        .iter()
        .zip(results)
        .map(|(spec, batch)| {
            batch.iter().fold(FNV_OFFSET, |h, (outcome, _)| {
                fnv1a(h, &[spec.outcome_checksum(outcome)])
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::scenario::{AdversarySpec, DuelProtocol, Engine};
    use rcb_mathkit::rng::RcbRng;

    /// A heterogeneous spec list: jammed fast duel, faulted duel, fast
    /// broadcast, exact-engine duel — mixed workloads, engines, fault
    /// plans, trial counts, and masters, so chunks straddle cell
    /// boundaries (trial counts are not multiples of `TRIAL_CHUNK`).
    fn mixed_specs() -> Vec<ScenarioSpec> {
        let jammed = AdversarySpec::Budgeted {
            budget: 1024,
            fraction: 1.0,
        };
        vec![
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
                .with_adversary(jammed)
                .with_trials(19)
                .with_seed(11),
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
                .with_adversary(jammed)
                .with_faults(FaultPlan::none().with_loss(0.1).with_skew(1, 1))
                .with_trials(7)
                .with_seed(12),
            ScenarioSpec::broadcast(5)
                .with_adversary(AdversarySpec::Budgeted {
                    budget: 256,
                    fraction: 1.0,
                })
                .with_trials(6)
                .with_seed(13),
            ScenarioSpec::duel(DuelProtocol::fig1(0.05, 6))
                .with_engine(Engine::Exact)
                .with_adversary(AdversarySpec::Budgeted {
                    budget: 512,
                    fraction: 1.0,
                })
                .with_trials(3)
                .with_seed(14),
        ]
    }

    #[test]
    fn run_specs_is_bit_identical_across_parallelism() {
        let specs = mixed_specs();
        let one = run_specs(&specs, Parallelism::Fixed(1));
        let eight = run_specs(&specs, Parallelism::Fixed(8));
        let auto = run_specs(&specs, Parallelism::Auto);
        assert_eq!(one, eight, "Fixed(8) diverged from Fixed(1)");
        assert_eq!(one, auto, "Auto diverged from Fixed(1)");
        let sums = batch_checksums(&specs, &one);
        assert_eq!(sums, batch_checksums(&specs, &eight));
        assert_eq!(sums, batch_checksums(&specs, &auto));
        // Distinct cells folded distinct outcomes.
        let mut dedup = sums.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            sums.len(),
            "cell checksums collided: {sums:x?}"
        );
    }

    #[test]
    fn run_specs_matches_per_spec_trials() {
        // Chunks straddling spec boundaries must not perturb any trial:
        // the sweep equals each spec's trials run one by one at their
        // seed-sequence children.
        let specs = mixed_specs();
        let stolen = run_specs(&specs, Parallelism::Fixed(4));
        for (spec, batch) in specs.iter().zip(&stolen) {
            let seeds = SeedSequence::new(spec.seeds.master);
            let direct: Vec<_> = (0..spec.trials)
                .map(|i| spec.run_trial_ctl(i, seeds.child(i), &Deadline::NONE))
                .collect();
            assert_eq!(batch, &direct, "executor perturbed a trial stream");
        }
    }

    #[test]
    fn run_specs_handles_empty_and_zero_trial_specs() {
        assert!(run_specs(&[], Parallelism::Fixed(4)).is_empty());
        let specs = vec![
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7)).with_trials(0),
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
                .with_trials(2)
                .with_seed(5),
        ];
        let out = run_specs(&specs, Parallelism::Fixed(4));
        assert_eq!(out.len(), 2);
        assert!(out[0].is_empty());
        assert_eq!(out[1].len(), 2);
    }

    #[test]
    fn run_cells_preserves_order_and_thread_count_independence() {
        let items: Vec<u64> = (0..37).collect();
        let square = |_, &x: &u64| x * x;
        let seq = run_cells(&items, Parallelism::Fixed(1), square);
        let par = run_cells(&items, Parallelism::Fixed(8), square);
        let auto = run_cells(&items, Parallelism::Auto, square);
        assert_eq!(seq, (0..37).map(|x| x * x).collect::<Vec<u64>>());
        assert_eq!(seq, par);
        assert_eq!(seq, auto);
    }

    #[test]
    fn run_cells_on_empty_list_is_empty() {
        let out = run_cells(&[] as &[u64], Parallelism::Auto, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn nested_auto_degrades_inside_cell_workers() {
        // A cell body that runs an Auto batch must stay on the worker's own
        // thread — the executor's workers carry the runner's IN_WORKER flag.
        let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
            .with_trials(4)
            .with_seed(3)
            .with_parallelism(Parallelism::Auto);
        let cells = [0u64, 1, 2, 3];
        let ok = run_cells(&cells, Parallelism::Fixed(2), |_, _| {
            let outer = std::thread::current().id();
            let batch = crate::runner::run_trials(4, 9, Parallelism::Auto, |_, _| {
                std::thread::current().id()
            });
            let inner_stayed = batch.into_iter().all(|id| id == outer);
            // And the batch result itself is unperturbed by the degrade.
            let degraded = spec.run_batch_raw();
            let reference = spec
                .clone()
                .with_parallelism(Parallelism::Fixed(1))
                .run_batch_raw();
            inner_stayed && degraded == reference
        });
        assert!(ok.into_iter().all(|b| b));
    }

    #[test]
    fn uneven_cells_still_merge_in_order() {
        let items: Vec<u64> = (0..24).collect();
        let out = run_cells(&items, Parallelism::Fixed(4), |i, &x| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn an_elapsed_run_deadline_reports_partials_not_a_clip() {
        let specs = mixed_specs();
        let ctl = SpecsControl {
            deadline: Deadline::after(Duration::ZERO),
            trial_deadline: None,
            max_attempts: 1,
            skip: None,
        };
        let run = run_specs_ctl(&specs, Parallelism::Fixed(1), &ctl);
        assert!(run.deadline_hit, "the elapsed deadline must be reported");
        assert!(run.quarantined.is_empty());
        assert_eq!(run.results.len(), specs.len(), "shape is preserved");
        assert!(
            run.results.iter().flatten().all(|t| t.is_none()),
            "no trial starts after an already-elapsed deadline"
        );
    }

    #[test]
    fn a_latched_cancel_flag_stops_the_sweep_between_trials() {
        static FLAG: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
        FLAG.store(true, Ordering::Relaxed);
        let specs = mixed_specs();
        let ctl = SpecsControl {
            deadline: Deadline::NONE.with_cancel(&FLAG),
            trial_deadline: None,
            max_attempts: 1,
            skip: None,
        };
        let run = run_specs_ctl(&specs, Parallelism::Fixed(2), &ctl);
        assert!(run.deadline_hit);
        assert!(run.results.iter().flatten().all(|t| t.is_none()));
    }

    #[test]
    fn skip_predicate_resumes_bit_identically_to_a_straight_run() {
        let specs = mixed_specs();
        let straight = run_specs(&specs, Parallelism::Fixed(2));
        // Simulate a resume where every even trial is already journaled.
        let skip = |_spec: usize, trial: u64| trial.is_multiple_of(2);
        let ctl = SpecsControl {
            deadline: Deadline::NONE,
            trial_deadline: None,
            max_attempts: 1,
            skip: Some(&skip),
        };
        let run = run_specs_ctl(&specs, Parallelism::Fixed(2), &ctl);
        assert!(!run.deadline_hit);
        for (s, batch) in run.results.iter().enumerate() {
            for (t, slot) in batch.iter().enumerate() {
                if t % 2 == 0 {
                    assert!(slot.is_none(), "spec {s} trial {t} was journaled");
                } else {
                    assert_eq!(
                        slot.as_ref().expect("unjournaled trial ran"),
                        &straight[s][t],
                        "spec {s} trial {t}: resume perturbed the seed fold"
                    );
                }
            }
        }
    }

    #[test]
    fn a_trial_deadline_yields_typed_deadline_errors() {
        let specs = vec![ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
            .with_trials(3)
            .with_seed(1)];
        let ctl = SpecsControl {
            deadline: Deadline::NONE,
            trial_deadline: Some(Duration::ZERO),
            max_attempts: 1,
            skip: None,
        };
        let run = run_specs_ctl(&specs, Parallelism::Fixed(1), &ctl);
        assert!(!run.deadline_hit, "the run-level deadline never fired");
        for slot in &run.results[0] {
            let (_, err) = slot.as_ref().expect("deadline-cut trials still report");
            assert!(
                matches!(err, Some(SimError::DeadlineExceeded { .. })),
                "expected a typed deadline error, got {err:?}"
            );
        }
    }

    #[test]
    fn retries_rerun_the_same_seed_then_quarantine() {
        use std::sync::atomic::AtomicU32;
        // Flaky once: the second attempt must replay the identical stream.
        let calls = AtomicU32::new(0);
        let ok = run_with_retries(77, 3, 3, |seed| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("flaky once");
            }
            RcbRng::new(seed).below(1 << 30)
        })
        .expect("the second same-seed attempt succeeds");
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(
            ok,
            RcbRng::new(77).below(1 << 30),
            "a retry must not advance the trial's RNG stream"
        );

        // Deterministic panic: exhaust the budget, then quarantine.
        let always: Result<u64, TrialFailure> =
            run_with_retries(77, 3, 3, |_| panic!("always broken"));
        let failure = always.expect_err("every attempt panicked");
        assert_eq!(failure.trial, 3);
        assert_eq!(failure.attempts, 3);
        assert!(failure.payload.contains("always broken"));
        assert!(failure.to_string().contains("3 same-seed attempts"));
    }

    #[test]
    fn run_cells_ctl_skips_and_deadlines_report_partials() {
        let items: Vec<u64> = (0..8).collect();
        let skip = |i: usize| i.is_multiple_of(3);
        let run = run_cells_ctl(
            &items,
            Parallelism::Fixed(2),
            &Deadline::NONE,
            Some(&skip),
            |_, &x| x * 10,
        );
        assert!(!run.deadline_hit);
        for (i, slot) in run.results.iter().enumerate() {
            if i.is_multiple_of(3) {
                assert!(slot.is_none());
            } else {
                assert_eq!(*slot, Some(i as u64 * 10));
            }
        }

        let cut = run_cells_ctl(
            &items,
            Parallelism::Fixed(2),
            &Deadline::after(Duration::ZERO),
            None,
            |_, &x| x,
        );
        assert!(cut.deadline_hit);
        assert!(cut.results.iter().all(|s| s.is_none()));
    }

    #[test]
    fn cell_panics_propagate() {
        let items = [0u64, 1, 2];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_cells(&items, Parallelism::Fixed(1), |i, _| {
                if i == 1 {
                    panic!("boom in cell {i}");
                }
                i
            })
        }));
        let payload = caught.expect_err("the panic must propagate");
        let msg = panic_payload(payload);
        assert!(msg.contains("boom in cell 1"), "got: {msg}");
    }

    #[test]
    fn typed_panic_payloads_keep_their_type_names() {
        let render = |f: fn()| panic_payload(std::panic::catch_unwind(f).expect_err("panicked"));
        let sim = render(|| {
            std::panic::panic_any(SimError::SlotBudgetExhausted {
                max_slots: 8,
                slots: 8,
            })
        });
        assert!(
            sim.starts_with("SimError: slot budget exhausted"),
            "got: {sim}"
        );
        assert_eq!(render(|| std::panic::panic_any(42u64)), "u64: 42");
        // An unprobed type stays opaque.
        assert_eq!(
            render(|| std::panic::panic_any(vec![1u8])),
            "non-string panic payload"
        );
    }
}
