//! Parallel Monte-Carlo trials and the thread-count policy.
//!
//! Expected-cost estimates need hundreds of independent executions per
//! parameter cell. [`run_trials`] derives every trial's seed from
//! `(master_seed, trial_index)` via [`SeedSequence`] and maps the trials
//! through the executor's pool ([`run_cells`]), so results are
//! bit-identical regardless of thread count or scheduling.

use rcb_mathkit::rng::SeedSequence;
use std::cell::Cell;

use crate::executor::run_cells;

thread_local! {
    /// Set while this OS thread is an executor pool worker. Nested runs
    /// consult it so that `Parallelism::Auto` inside a trial or cell
    /// closure (the conformance grid does this per cell) degrades to
    /// sequential instead of spawning cores² threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a worker for the rest of its lifetime.
/// Worker threads are short-lived scoped threads, so there is no paired
/// exit: the flag dies with the thread.
pub(crate) fn enter_worker() {
    IN_WORKER.with(|w| w.set(true));
}

/// Whether the current thread is an executor pool worker.
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Thread-count policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker per available CPU — or sequential when the caller is
    /// itself a pool worker (every core is already busy running sibling
    /// trials, so fanning out again only oversubscribes).
    Auto,
    /// Exactly this many workers (1 = sequential). Unlike
    /// [`Auto`](Parallelism::Auto), a
    /// nested `Fixed(n)` is honoured: the caller asked for `n` by name.
    Fixed(usize),
}

impl Parallelism {
    pub(crate) fn threads(self) -> usize {
        match self {
            Parallelism::Auto => {
                if in_worker() {
                    1
                } else {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                }
            }
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

/// Runs `trials` independent executions of `f` and returns the results in
/// trial order. `f` receives the trial index and the trial's seed,
/// `SeedSequence::new(master_seed).child(i)` — the seed a session (or an
/// `RcbRng::new(seed)` stream) is built from.
///
/// The trials are cells of [`run_cells`]: distribution is dynamic, so
/// heterogeneous trial durations balance across workers, and the output is
/// a pure function of `(trials, master_seed, f)`. A panic in `f`
/// propagates.
pub fn run_trials<T, F>(trials: u64, master_seed: u64, parallelism: Parallelism, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, u64) -> T + Sync,
{
    let mut seeds = vec![0u64; trials as usize];
    SeedSequence::new(master_seed).children_into(0, &mut seeds);
    run_cells(&seeds, parallelism, |i, &seed| f(i as u64, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_mathkit::rng::RcbRng;

    #[test]
    fn results_arrive_in_trial_order() {
        let out = run_trials(100, 7, Parallelism::Fixed(4), |i, _| i * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    /// A trial body that draws from its own stream.
    fn draws(i: u64, seed: u64) -> (u64, f64, u64) {
        let mut rng = RcbRng::new(seed);
        (i, rng.f64(), rng.below(1000))
    }

    #[test]
    fn trial_seeds_are_the_seed_sequence_children() {
        let seeds = run_trials(16, 99, Parallelism::Fixed(2), |_, seed| seed);
        let expected: Vec<u64> = (0..16).map(|i| SeedSequence::new(99).child(i)).collect();
        assert_eq!(seeds, expected);
    }

    #[test]
    fn parallel_equals_sequential_for_fixed_seed() {
        let seq = run_trials(64, 99, Parallelism::Fixed(1), draws);
        let par = run_trials(64, 99, Parallelism::Fixed(8), draws);
        assert_eq!(seq, par, "determinism must not depend on thread count");
    }

    #[test]
    fn auto_equals_fixed_for_fixed_seed() {
        let auto = run_trials(48, 2014, Parallelism::Auto, draws);
        let one = run_trials(48, 2014, Parallelism::Fixed(1), draws);
        let eight = run_trials(48, 2014, Parallelism::Fixed(8), draws);
        assert_eq!(auto, one);
        assert_eq!(auto, eight);
    }

    #[test]
    fn different_trials_get_different_streams() {
        let out = run_trials(50, 1, Parallelism::Fixed(2), |_, seed| {
            RcbRng::new(seed).below(u64::MAX)
        });
        let mut dedup = out.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), out.len());
    }

    #[test]
    fn zero_trials_is_empty() {
        let out = run_trials(0, 1, Parallelism::Auto, |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn auto_parallelism_runs() {
        let out = run_trials(10, 3, Parallelism::Auto, |i, _| i + 1);
        assert_eq!(out.iter().sum::<u64>(), 55);
    }

    #[test]
    fn nested_auto_degrades_to_sequential() {
        // A trial closure that itself calls run_trials with Auto must not
        // fan out again: the nested run stays on the worker's own thread.
        let all_inner_on_worker = run_trials(4, 1, Parallelism::Fixed(2), |_, _| {
            let outer_thread = std::thread::current().id();
            let inner_threads =
                run_trials(8, 2, Parallelism::Auto, |_, _| std::thread::current().id());
            inner_threads.into_iter().all(|id| id == outer_thread)
        });
        assert!(all_inner_on_worker.into_iter().all(|b| b));
    }

    #[test]
    fn nested_auto_results_match_top_level() {
        // Degrading to sequential must not change results (each trial's
        // seed is index-derived, so it cannot) — pin it anyway.
        let nested = run_trials(3, 7, Parallelism::Fixed(2), |_, _| {
            run_trials(16, 11, Parallelism::Auto, draws)
        });
        let top = run_trials(16, 11, Parallelism::Auto, draws);
        for inner in nested {
            assert_eq!(inner, top);
        }
    }

    #[test]
    fn run_trials_propagates_trial_panics() {
        let caught = std::panic::catch_unwind(|| {
            run_trials(4, 1, Parallelism::Fixed(1), |i, _| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        let payload = caught.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn uneven_workloads_still_order_results() {
        // Long trials next to instant ones: dynamic distribution must not
        // perturb output order.
        let out = run_trials(32, 5, Parallelism::Fixed(4), |i, _| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }
}
