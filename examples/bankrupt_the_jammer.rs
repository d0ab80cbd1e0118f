//! Scenario: the paper's economic argument, played out — "making evildoers
//! pay". Alice and Bob carry small batteries; the jammer carries a much
//! larger one. Because the protocol's cost is O(√T), the jammer must
//! outspend the devices *quadratically* to outlast them: multiplying its
//! battery by 100 multiplies the devices' drain by only ~10.
//!
//! ```sh
//! cargo run --release --example bankrupt_the_jammer
//! ```

use rcb::prelude::*;
use rcb_channel::battery::Battery;

fn main() {
    let base = ScenarioSpec::duel(DuelProtocol::fig1(0.01, 8));
    let node_capacity = 20_000u64;

    println!("device batteries: {node_capacity} units each\n");
    println!("jammer battery | jammer left | alice used | bob used | delivered | verdict");
    println!("---------------+-------------+------------+----------+-----------+--------");

    for factor in [1u64, 10, 100, 1000, 5000] {
        let jammer_capacity = node_capacity * factor;
        let spec = base.clone().with_adversary(AdversarySpec::Budgeted {
            budget: jammer_capacity,
            fraction: 1.0,
        });
        // Average over a few runs for stable numbers.
        let trials = 20;
        let mut alice_used = 0u64;
        let mut bob_used = 0u64;
        let mut jam_used = 0u64;
        let mut delivered = 0u64;
        let mut truncated = 0u64;
        for seed in 0..trials {
            match spec.run(0xBA77E5 + seed + factor) {
                Ok(outcome) => {
                    let out = outcome.into_duel();
                    alice_used += out.alice_cost;
                    bob_used += out.bob_cost;
                    jam_used += out.adversary_cost;
                    delivered += out.delivered as u64;
                }
                Err(_) => truncated += 1,
            }
        }
        let completed = (trials - truncated).max(1);
        let (a, b, j) = (
            alice_used / completed,
            bob_used / completed,
            jam_used / completed,
        );
        let mut alice_battery = Battery::new(node_capacity);
        let mut bob_battery = Battery::new(node_capacity);
        let mut jam_battery = Battery::new(jammer_capacity);
        let alice_ok = alice_battery.spend(a);
        let bob_ok = bob_battery.spend(b);
        jam_battery.spend(j);
        let verdict = if truncated > 0 {
            "inconclusive (truncated runs)"
        } else if !(alice_ok && bob_ok) {
            "devices dead"
        } else if jam_battery.fraction_used() > 0.9 {
            "jammer bankrupted"
        } else {
            "devices fine"
        };
        println!(
            "{jammer_capacity:>14} | {:>11} | {a:>10} | {b:>8} | {:>6}/{trials} | {verdict}",
            jam_battery.remaining(),
            delivered,
        );
    }

    println!();
    println!("The square-root law in battery terms: killing a device with battery B");
    println!("costs the jammer ~(B/14)^2 energy — here, a 100x bigger battery to");
    println!("flatten a 20k device. Double the device battery and the jammer needs");
    println!("4x more; the economics scale *against* the attacker (Theorem 1, S1.1).");
}
