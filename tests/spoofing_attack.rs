//! The Theorem 5 model boundary, demonstrated end to end: Figure 1 is
//! only resource-competitive because Bob's nacks are authenticated. Give
//! the adversary the power to spoof nacks and a trickle of fake packets
//! keeps Alice paying her full per-epoch budget — her cost grows
//! *exponentially* per unit of adversary spend, which is exactly why the
//! spoofing model's optimum degrades to the golden-ratio exponent.

use rcb::prelude::*;
use rcb_adversary::slot_strategies::NackSpoofer;
use rcb_channel::trace::{ReceptionKind, Trace};
use rcb_core::one_to_one::schedule::DuelSchedule;
use rcb_core::one_to_one::PhaseKind;

fn run_with_spoofer(budget: u64, seed: u64) -> (u64, u64, bool, bool) {
    let profile = Fig1Profile::with_start_epoch(0.05, 6);
    let mut alice = AliceProtocol::new(profile);
    let mut bob = BobProtocol::new(profile);
    let schedule = DuelSchedule::new(6);
    let partition = Partition::pair();
    let mut rng = RcbRng::new(seed);
    let mut adv = NackSpoofer::new(budget, 4, seed ^ 0x5F00F);
    let (out, _) = run_exact(
        &mut [&mut alice, &mut bob],
        &mut adv,
        &schedule,
        &partition,
        &mut rng,
        ExactConfig {
            max_slots: 10_000_000,
        },
        None,
        &FaultPlan::none(),
        &Deadline::NONE,
    );
    (
        out.ledger.node_cost(0),
        out.ledger.adversary_cost(),
        bob.received_message(),
        out.completed,
    )
}

#[test]
fn spoofed_nacks_bankrupt_alice_not_the_adversary() {
    let mut total_alice = 0u64;
    let mut total_adv = 0u64;
    let trials = 10;
    for seed in 0..trials {
        let (alice_cost, adv_cost, delivered, completed) = run_with_spoofer(60, seed);
        assert!(completed, "run must end once the spoof budget is exhausted");
        // Spoofing does not jam: the message itself still gets through.
        assert!(delivered, "seed {seed}: delivery is unaffected by spoofing");
        total_alice += alice_cost;
        total_adv += adv_cost;
    }
    // The attack's exchange rate: Alice pays an order of magnitude more
    // than the adversary (and the gap widens exponentially with budget —
    // each extra epoch of lifetime costs the adversary O(1) and Alice
    // Θ(2^(i/2))).
    assert!(
        total_alice > 8 * total_adv,
        "alice {total_alice} vs adversary {total_adv}: spoofing should be \
         devastating against unauthenticated Figure 1"
    );
}

#[test]
fn spoof_exchange_rate_is_a_stable_constant() {
    // The economics behind Theorem 5's shape: to keep Alice alive the
    // spoofer must land a nack in her listening schedule, which at rate
    // `p_i` costs Θ(1/p_i) injections per phase — the same order as
    // Alice's own per-phase spend. The exchange rate is therefore a
    // *constant* (here a favorable one: Alice pays in both phases, the
    // spoofer only in nack phases), not an exponentially growing one —
    // the adversary's real leverage in the spoofing model is the
    // jam-or-impersonate asymmetry (see `rcb_sim::lowerbound`), not a
    // free lunch per packet. Contrast with jam-only keep-alive, which
    // costs Θ(q·2^i) per epoch (experiment E11).
    let ratio = |budget: u64| {
        let mut a = 0u64;
        let mut t = 0u64;
        for seed in 100..106 {
            let (alice_cost, adv_cost, _, _) = run_with_spoofer(budget, seed);
            a += alice_cost;
            t += adv_cost;
        }
        a as f64 / t.max(1) as f64
    };
    let small = ratio(16);
    let large = ratio(96);
    assert!(
        small > 4.0 && large > 4.0,
        "rate stays favorable: {small:.1}, {large:.1}"
    );
    let spread = (small / large).max(large / small);
    assert!(
        spread < 3.0,
        "exchange rate should be roughly budget-independent: {small:.1} vs {large:.1}"
    );
}

/// Slot-log evidence of the attack mechanism: the trace's per-node
/// receptions show Alice decoding nacks in nack phases while Bob is long
/// gone — injections, not jamming — and the conformance replayer agrees
/// with the recorded outcome, because Figure 1 without authentication
/// *cannot* tell spoofed nacks apart (that is the Theorem 5 boundary).
#[test]
fn trace_exposes_spoofed_nacks_and_replays_cleanly() {
    let profile = Fig1Profile::with_start_epoch(0.05, 6);
    let mut alice = AliceProtocol::new(profile);
    let mut bob = BobProtocol::new(profile);
    let schedule = DuelSchedule::new(6);
    let partition = Partition::pair();
    let mut rng = RcbRng::new(11);
    let mut adv = NackSpoofer::new(40, 4, 0x5F00F);
    let mut trace = Trace::with_capacity(1 << 22);
    let (out, _) = run_exact(
        &mut [&mut alice, &mut bob],
        &mut adv,
        &schedule,
        &partition,
        &mut rng,
        ExactConfig {
            max_slots: 10_000_000,
        },
        Some(&mut trace),
        &FaultPlan::none(),
        &Deadline::NONE,
    );
    assert!(out.completed);
    assert_eq!(trace.dropped(), 0);

    // Find the slot where Bob's mirror leaves the game, then count nacks
    // Alice decodes afterwards: genuine nacks are impossible once Bob has
    // halted, so every one of them is a spoof kept alive by the adversary.
    let replay = replay_duel_trace(&profile, &schedule, &trace);
    assert_eq!(
        replay.divergences,
        Vec::new(),
        "spoofed runs replay cleanly"
    );
    assert_eq!(replay.delivered, bob.received_message());
    let bob_gone_at = replay
        .delivery_slot
        .expect("spoofing does not jam; m gets through");
    let spoofed_nacks_heard = trace
        .records()
        .iter()
        .filter(|r| r.slot > bob_gone_at)
        .filter(|r| schedule.locate_duel(r.slot).phase == PhaseKind::Nack)
        .flat_map(|r| r.receptions.iter())
        .filter(|(node, kind)| *node == 0 && *kind == ReceptionKind::Nack)
        .count();
    assert!(
        spoofed_nacks_heard > 0,
        "the attack's whole point: Alice keeps decoding nacks after Bob halted"
    );
    // And spoofing is injection, not jamming: no slot is ever jam-masked.
    assert!(trace.records().iter().all(|r| r.jam_mask == 0));
}

#[test]
fn without_spoofing_alice_halts_cheaply() {
    // Control: same setup, no adversary — Alice halts after one epoch.
    let profile = Fig1Profile::with_start_epoch(0.05, 6);
    let mut alice = AliceProtocol::new(profile);
    let mut bob = BobProtocol::new(profile);
    let schedule = DuelSchedule::new(6);
    let partition = Partition::pair();
    let mut rng = RcbRng::new(9);
    let mut adv = NoJam;
    let (out, _) = run_exact(
        &mut [&mut alice, &mut bob],
        &mut adv,
        &schedule,
        &partition,
        &mut rng,
        ExactConfig::default(),
        None,
        &FaultPlan::none(),
        &Deadline::NONE,
    );
    assert!(out.completed);
    assert!(out.slots <= 4 * 128, "one or two epochs at most");
}
