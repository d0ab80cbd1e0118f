//! The benchmark's workloads: spec lists generated from a seed, and the
//! correctness checks every run applies to their outcomes.

use rcb_bench::experiments::common::duel_sweep_base;
use rcb_sim::error::SimError;
use rcb_sim::scenario::{find_scenario, DuelProtocol, Outcome, ScenarioSpec, Workload as Kind};

/// Fig-1 duel parameters of the sweep (the registry duels' ε and i₀).
const DUEL_EPSILON: f64 = 0.1;
const DUEL_START_EPOCH: u32 = 8;
/// Trials per budget point of the duel sweep.
const DUEL_TRIALS: u64 = 12_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig-1 duels along Theorem 1's budget axis: many tiny, uneven
    /// trials, so dispatch, the outcome fold and the journal show.
    SweepDuel,
    /// The n = 64 jammed and faulted registry broadcasts on the default
    /// broadcast engine: engine-bound per-node dynamics and fault hooks.
    BcastN64,
    /// The n = 65,536 cohort-engine registry broadcast: a few long trials
    /// in the compressed regime, fewer than one executor chunk.
    BcastN65536,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SweepDuel,
        Workload::BcastN64,
        Workload::BcastN65536,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepDuel => "sweep_duel",
            Workload::BcastN64 => "bcast_n64",
            Workload::BcastN65536 => "bcast_n65536",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's spec list at full size. The seed is the master seed
    /// of every broadcast spec (seed 2014 reproduces the registry exactly)
    /// and is folded with the budget per duel-sweep point, as
    /// `duel_budget_sweep` does.
    pub fn specs(self, seed: u64) -> Vec<ScenarioSpec> {
        self.specs_sized(seed, None)
    }

    /// [`Workload::specs`] with every spec's trial count replaced by
    /// `trials` (tests run tiny instances of each workload).
    pub fn specs_sized(self, seed: u64, trials: Option<u64>) -> Vec<ScenarioSpec> {
        let specs = match self {
            Workload::SweepDuel => {
                let base = duel_sweep_base(
                    DuelProtocol::fig1(DUEL_EPSILON, DUEL_START_EPOCH),
                    1.0,
                    DUEL_TRIALS,
                    seed,
                );
                std::iter::once(0)
                    .chain((6..=16).step_by(2).map(|k| 1u64 << k))
                    .map(|budget| {
                        base.clone()
                            .with_adversary(base.adversary.with_budget(budget))
                            .with_seed(seed ^ budget)
                    })
                    .collect()
            }
            Workload::BcastN64 => ["bcast_n64_jammed", "bcast_n64_faulted"]
                .iter()
                .map(|name| registry_spec(name).with_seed(seed))
                .collect(),
            Workload::BcastN65536 => vec![registry_spec("bcast_n65536").with_seed(seed)],
        };
        match trials {
            Some(t) => specs.into_iter().map(|s| s.with_trials(t)).collect(),
            None => specs,
        }
    }
}

fn registry_spec(name: &str) -> ScenarioSpec {
    find_scenario(name)
        .unwrap_or_else(|| panic!("registry entry `{name}` is missing"))
        .spec
}

/// What the checks found over one run's results.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    /// Trials that ended in a typed error or broke a per-trial check.
    pub failed: u64,
    /// One line per broken check (per-trial lines are capped).
    pub violations: Vec<String>,
}

const MAX_REPORTED: usize = 8;

/// Checks every trial of every spec:
/// * no typed [`SimError`] (truncation or cap);
/// * adversary spend never exceeds the spec's budget;
/// * broadcasts end all-informed and not truncated;
/// * each Fig-1 duel spec delivers in at least `1 − ε` of its trials (an
///   undelivered duel is a protocol outcome, not a failed trial).
pub fn check(specs: &[ScenarioSpec], results: &[Vec<(Outcome, Option<SimError>)>]) -> Verdict {
    let mut v = Verdict::default();
    let mut per_trial = 0usize;
    let mut report = |v: &mut Verdict, line: String| {
        per_trial += 1;
        if per_trial <= MAX_REPORTED {
            v.violations.push(line);
        }
    };
    for (i, (spec, batch)) in specs.iter().zip(results).enumerate() {
        if batch.len() as u64 != spec.trials {
            v.violations.push(format!(
                "spec {i}: {} results for {} trials",
                batch.len(),
                spec.trials
            ));
        }
        let budget = spec.adversary.budget();
        let mut delivered = 0u64;
        for (t, (outcome, err)) in batch.iter().enumerate() {
            v.attempted += 1;
            let mut broken = Vec::new();
            if let Some(e) = err {
                broken.push(format!("typed error: {e}"));
            }
            if outcome.adversary_cost() > budget {
                broken.push(format!(
                    "adversary spent {} over budget {budget}",
                    outcome.adversary_cost()
                ));
            }
            match outcome {
                Outcome::Duel(o) => delivered += o.delivered as u64,
                Outcome::Broadcast(o) => {
                    if !o.all_informed || o.truncated {
                        broken.push(format!(
                            "broadcast ended with {}/{} informed, truncated = {}",
                            o.informed, o.n, o.truncated
                        ));
                    }
                }
                Outcome::Stream(_) => broken.push("stream outcome in a benchmark workload".into()),
            }
            if !broken.is_empty() {
                v.failed += 1;
                report(
                    &mut v,
                    format!("spec {i}, trial {t}: {}", broken.join("; ")),
                );
            }
        }
        if let Kind::Duel(w) = &spec.workload {
            if let DuelProtocol::Fig1 { epsilon, .. } = w.protocol {
                let rate = delivered as f64 / batch.len().max(1) as f64;
                if rate < 1.0 - epsilon {
                    v.violations.push(format!(
                        "spec {i}: Fig-1 delivery rate {rate:.4} below 1 - ε = {:.4}",
                        1.0 - epsilon
                    ));
                }
            }
        }
    }
    if per_trial > MAX_REPORTED {
        v.violations
            .push(format!("… {} more broken trials", per_trial - MAX_REPORTED));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_sim::executor::run_specs;
    use rcb_sim::runner::Parallelism;
    use rcb_sim::scenario::Engine;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn specs_are_valid_and_deterministic() {
        for w in Workload::ALL {
            let a = w.specs(7);
            assert_eq!(a, w.specs(7));
            assert_ne!(a, w.specs(8));
            assert!(a.iter().all(|s| s.validate().is_ok()));
        }
        let duel = Workload::SweepDuel.specs(1);
        assert_eq!(duel.len(), 7);
        let budgets: Vec<u64> = duel.iter().map(|s| s.adversary.budget()).collect();
        assert_eq!(budgets, [0, 64, 256, 1024, 4096, 16384, 65536]);
        // The broadcast workloads keep their registry engines.
        assert!(Workload::BcastN64
            .specs(1)
            .iter()
            .all(|s| s.engine == rcb_sim::scenario::ScenarioSpec::broadcast(64).engine));
        assert_eq!(Workload::BcastN65536.specs(1)[0].engine, Engine::CohortFast);
    }

    #[test]
    fn broken_outcomes_are_caught() {
        let specs = Workload::BcastN64.specs_sized(3, Some(1));
        let mut results = run_specs(&specs[..1], Parallelism::Fixed(1));
        assert!(check(&specs[..1], &results).violations.is_empty());
        if let Outcome::Broadcast(o) = &mut results[0][0].0 {
            o.all_informed = false;
            o.adversary_cost = u64::MAX;
        }
        let v = check(&specs[..1], &results);
        assert_eq!((v.attempted, v.failed), (1, 1));
        assert!(!v.violations.is_empty());
    }

    #[test]
    fn low_delivery_rate_is_caught() {
        let specs = Workload::SweepDuel.specs_sized(3, Some(20));
        let mut results = run_specs(&specs[..1], Parallelism::Fixed(1));
        assert!(check(&specs[..1], &results).violations.is_empty());
        for (o, _) in &mut results[0] {
            if let Outcome::Duel(d) = o {
                d.delivered = false;
            }
        }
        let v = check(&specs[..1], &results);
        assert_eq!(v.failed, 0, "an undelivered duel is not a failed trial");
        assert!(!v.violations.is_empty());
    }
}
