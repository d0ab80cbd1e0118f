//! # rcb-sim
//!
//! Simulation engines, re-armable sessions, and the trial executor.
//!
//! Three kinds of engine execute protocols against adversaries:
//!
//! * [`exact`] — the reference engine: every slot is resolved through
//!   `rcb_channel::resolve_slot` for an arbitrary set of
//!   [`SlotProtocol`](rcb_core::protocol::SlotProtocol) nodes and a
//!   [`SlotAdversary`](rcb_adversary::SlotAdversary). Faithful and general,
//!   cost `O(slots · n)`; its one entry point is [`exact::run_exact`].
//! * [`duel`] / [`fast`] — the production engines: they exploit the
//!   protocols' period structure to sample only the *events* (sends,
//!   listens) instead of iterating silent slots. The sampling is exact —
//!   a Bernoulli process over a block is its Binomial count plus uniform
//!   positions, implemented by geometric skips in `rcb-mathkit` — so these
//!   engines agree with [`exact`] in distribution; integration tests
//!   cross-validate them.
//! * [`cohort`] — the population-compressed 1-to-n engine for large n.
//!
//! The duel, fast-broadcast and cohort engines are driven only through
//! their [`session`]s ([`duel::DuelSession`], [`fast::BroadcastSession`],
//! [`cohort::CohortSession`]): construct at a seed, [`Session::run`],
//! [`Session::rearm`] for the next run.
//!
//! [`executor`] is the crate's one thread pool: a deterministic
//! work-stealing map over heterogeneous work lists — cell-granular
//! ([`executor::run_cells`]) and trial-granular across a whole
//! `ScenarioSpec` sweep ([`executor::run_specs`]); [`runner::run_trials`]
//! maps a batch's derived trial seeds through it. [`lowerbound`] packages
//! the Theorem 2 / Theorem 5 measurement games.
//!
//! [`faults`] layers deterministic, seeded *non-adversarial* failures —
//! lossy reception, crash–restart, clock skew, battery brownout — under
//! every engine via each session's (or [`exact::run_exact`]'s) fault plan;
//! [`error`] carries the typed harness failures ([`SimError`],
//! [`TrialFailure`]) every run reports next to its outcome.
//!
//! [`scenario`] is the **canonical front door**: a declarative
//! [`ScenarioSpec`] (workload, engine, adversary, faults, seed policy,
//! trials) whose trial entry point takes the trial's seed, builds the
//! engine's session at that seed, and runs it.
//!
//! The crash-safety layer rides on top: [`deadline`] threads a cooperative
//! [`Deadline`]/cancellation token through the executor and the engine
//! slot loops (wall-clock budgets end in a typed
//! [`SimError::DeadlineExceeded`], never a silent clip), [`json`] is the
//! dependency-free JSON layer, and [`journal`] persists per-cell results
//! as an append-only, FNV-1a-checksummed JSONL file so interrupted sweeps
//! resume bit-identical to uninterrupted ones.

pub mod cohort;
pub mod conformance;
pub mod deadline;
pub mod duel;
pub mod error;
pub mod exact;
pub mod executor;
pub mod fast;
pub mod faults;
pub mod journal;
pub mod json;
pub mod lowerbound;
pub mod outcome;
pub mod reduction;
pub mod runner;
pub mod scenario;
pub mod session;

pub use cohort::{run_cohort_instrumented, CohortConfig, CohortSession, CohortStats};
pub use conformance::{
    default_grid, run_grid, BroadcastCell, ConformanceConfig, DuelCell, GridReport,
};
pub use deadline::{install_sigint_handler, interrupted, Deadline};
pub use duel::{DuelConfig, DuelSession};
pub use error::{SimError, TrialFailure};
pub use exact::{run_exact, ExactConfig, ExactOutcome};
pub use executor::{
    batch_checksums, run_cells, run_cells_ctl, run_specs, run_specs_ctl, CellsRun,
    QuarantinedTrial, SpecsControl, SpecsRun,
};
pub use fast::{BroadcastObserver, BroadcastSession, FastConfig};
pub use faults::{BatteryFault, CrashFault, FaultConfigError, FaultPlan, LossFault, SkewFault};
pub use journal::{Journal, JournalError, JournalHeader};
pub use json::Json;
pub use outcome::{BroadcastOutcome, DuelOutcome};
pub use reduction::{simulate_reduction, ReductionOutcome};
pub use runner::{run_trials, Parallelism};
pub use scenario::{
    find_scenario, fnv1a, fnv1a_bytes, registry, AdversarySpec, BroadcastWorkload, DuelProtocol,
    DuelWorkload, Engine, NamedScenario, Outcome, ScenarioSpec, SeedPolicy, Workload,
    FAST_STREAM_SALT, FNV_OFFSET,
};
pub use session::{ExactBroadcastSession, Session};
