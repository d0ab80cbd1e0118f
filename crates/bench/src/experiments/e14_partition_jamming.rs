//! E14 (extension) — what if the 1-to-n adversary is 2-uniform?
//!
//! Theorem 3 assumes a 1-uniform adversary (one jamming schedule for
//! everyone). A 2-uniform adversary can jam *half the nodes only*. This
//! probes Figure 2 beyond its model — and the probe **fails, as it
//! should**: the unjammed half disseminates among itself, promotes to
//! helper, terminates, and stops relaying while the jammed half is still
//! deaf; when the jamming budget later runs out there is nobody left
//! transmitting `m`, and the stranded nodes exit through the case-1
//! safety valve, uninformed but with bounded cost. The experiment
//! documents that the paper's 1-uniformity assumption is load-bearing,
//! not incidental. Runs on the exact engine (the only one with partition
//! support), so `n` is kept small.

use crate::scale::Scale;
use rcb_adversary::slot_strategies::{BudgetedPhaseBlocker, NoJam};
use rcb_adversary::traits::SlotAdversary;
use rcb_analysis::table::{num, TableBuilder};
use rcb_channel::Partition;
use rcb_core::one_to_n::{OneToNParams, OneToNSchedule, OneToNSlotNode};
use rcb_core::protocol::SlotProtocol;
use rcb_mathkit::rng::SeedSequence;
use rcb_mathkit::stats::RunningStats;
use rcb_sim::deadline::Deadline;
use rcb_sim::exact::{run_exact, ExactConfig};
use rcb_sim::faults::FaultPlan;

struct CellResult {
    informed_rate: f64,
    mean_cost: f64,
    jammed_group_cost: f64,
    mean_t: f64,
    /// Trials cut off at the slot cap, excluded from every statistic.
    truncated: u64,
}

fn run_cell(
    params: &OneToNParams,
    n: usize,
    two_uniform: bool,
    budget: u64,
    trials: u64,
    seed: u64,
) -> CellResult {
    let seeds = SeedSequence::new(seed);
    let mut informed_runs = 0u64;
    let mut completed = 0u64;
    let mut truncated = 0u64;
    let mut cost = RunningStats::new();
    let mut jammed_cost = RunningStats::new();
    let mut spend = RunningStats::new();
    for t in 0..trials {
        let mut nodes: Vec<OneToNSlotNode> = (0..n)
            .map(|u| OneToNSlotNode::new(*params, u == 0))
            .collect();
        let partition = if two_uniform {
            // Odd nodes form the jammed group (group 1); the sender and the
            // even nodes stay clean.
            Partition::custom((0..n).map(|u| u % 2).collect())
        } else {
            Partition::uniform(n)
        };
        let mut adv: Box<dyn SlotAdversary> = if budget == 0 {
            Box::new(NoJam)
        } else if two_uniform {
            Box::new(BudgetedPhaseBlocker::new(budget, 1.0).with_group_mask(0b10))
        } else {
            Box::new(BudgetedPhaseBlocker::new(budget, 1.0))
        };
        let schedule = OneToNSchedule::new(*params);
        let mut rng = seeds.rng(t);
        let mut refs: Vec<&mut dyn SlotProtocol> = Vec::new();
        for node in nodes.iter_mut() {
            refs.push(node);
        }
        let out = match run_exact(
            &mut refs,
            adv.as_mut(),
            &schedule,
            &partition,
            &mut rng,
            ExactConfig {
                max_slots: 30_000_000,
            },
            None,
            &FaultPlan::none(),
            &Deadline::NONE,
        ) {
            (out, None) => out,
            (_, Some(_)) => {
                truncated += 1;
                continue;
            }
        };
        completed += 1;
        informed_runs += nodes.iter().all(|v| v.received_message()) as u64;
        cost.push(out.ledger.mean_node_cost());
        let jammed: Vec<u64> = (0..n)
            .filter(|u| u % 2 == 1)
            .map(|u| out.ledger.node_cost(u))
            .collect();
        jammed_cost.push(jammed.iter().sum::<u64>() as f64 / jammed.len().max(1) as f64);
        spend.push(out.ledger.adversary_cost() as f64);
    }
    assert!(
        completed > 0,
        "2-uniform={two_uniform}, budget {budget}: all {truncated} trials hit the slot cap"
    );
    CellResult {
        informed_rate: informed_runs as f64 / completed as f64,
        mean_cost: cost.mean(),
        jammed_group_cost: jammed_cost.mean(),
        mean_t: spend.mean(),
        truncated,
    }
}

pub fn run(scale: &Scale) -> String {
    let mut out = String::new();
    let mut params = OneToNParams::practical();
    params.first_epoch = 4; // keep exact-engine slot counts tame
    let n = 8;
    let trials = scale.trials(6);

    let mut table = TableBuilder::new(vec![
        "adversary",
        "T (real)",
        "informed rate",
        "E[mean cost]",
        "E[odd-group cost]",
    ]);
    let mut truncated_total = 0u64;
    for (label, two_uniform, budget) in [
        ("none", false, 0u64),
        ("1-uniform, 2^17", false, 1 << 17),
        ("2-uniform (odd half), 2^17", true, 1 << 17),
    ] {
        let r = run_cell(&params, n, two_uniform, budget, trials, scale.seed ^ 0xE14);
        truncated_total += r.truncated;
        table.row(vec![
            label.to_string(),
            num(r.mean_t),
            format!("{:.2}", r.informed_rate),
            num(r.mean_cost),
            num(r.jammed_group_cost),
        ]);
    }
    out.push_str(&format!(
        "n = {n}, exact engine, trials/cell = {trials} (first epoch lowered to {})\n\n",
        params.first_epoch
    ));
    out.push_str(&table.markdown());
    out.push_str(
        "\nexpected shape: under 1-uniform jamming everyone stays informed \
         (Theorem 3's regime). Under 2-uniform jamming of the odd half the \
         informed rate collapses to 0: the clean half terminates and stops \
         relaying before the jammed half can hear m, and the stranded nodes \
         leave through the safety valve — visible as the elevated odd-group \
         cost. This is the designed failure mode outside the model: \
         Theorem 3's 1-uniformity assumption is necessary, and the safety \
         valve is what keeps even this failure's cost bounded (§3.4).\n",
    );
    out.push_str(&format!("\ntruncated trials: {truncated_total}\n"));
    out
}
