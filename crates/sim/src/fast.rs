//! Fast 1-to-n engine: samples whole repetitions at once.
//!
//! Per repetition of epoch `i` (`2^i` slots):
//!
//! 1. every live node's send slots and listen slots are sampled as exact
//!    Bernoulli processes (geometric skips), with listen slots that collide
//!    with the node's own send slots dropped (a radio cannot do both — the
//!    same rule the slot adapter uses);
//! 2. all send events are sorted by slot and collapsed into per-slot
//!    channel states (single `m` / single noise / collision);
//! 3. every listen event is resolved against the jam plan and the channel
//!    state — observations therefore remain **fully coupled across nodes**
//!    (two listeners of the same slot hear the same thing), which Lemma 6
//!    style properties depend on;
//! 4. each node's `(clear, messages)` counts feed
//!    [`OneToNNode::end_repetition`] — the same state machine the exact
//!    engine drives.
//!
//! Work per repetition is `O(events·log(senders))`, independent of `2^i`.

use rcb_adversary::traits::{RepetitionAdversary, RepetitionContext, RepetitionSummary};
use rcb_core::one_to_n::node::OneToNNode;
use rcb_core::one_to_n::params::OneToNParams;
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::{bernoulli, sample_slots_into};
use serde::{Deserialize, Serialize};

use crate::deadline::Deadline;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::outcome::BroadcastOutcome;
use crate::session::Session;

/// Limits for the fast broadcast engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FastConfig {
    /// Hard cap on the epoch index; runs reaching it are truncated. (Bounds
    /// the tiny-probability executions whose expected cost the paper's
    /// safety valve exists to cap.)
    pub max_epoch: u32,
}

impl Default for FastConfig {
    fn default() -> Self {
        Self { max_epoch: 40 }
    }
}

/// Per-slot channel content, collapsed from the send events of one
/// repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotContent {
    /// Exactly one sender, transmitting `m`; the field is the sender id.
    Message(u32),
    /// Exactly one sender, transmitting noise (an uninformed node).
    SingleNoise,
    /// Two or more senders.
    Collision,
}

/// Observer hook for instrumented runs (dynamics experiment E10): called
/// after every repetition epilogue with the full node states.
pub trait BroadcastObserver {
    fn on_repetition(&mut self, epoch: u32, period: u64, jammed_slots: u64, nodes: &[OneToNNode]);
}

/// The no-op observer.
impl BroadcastObserver for () {
    fn on_repetition(&mut self, _: u32, _: u64, _: u64, _: &[OneToNNode]) {}
}

/// Retained per-run state of the fast broadcast engine: the node state
/// machines, cost/fault bookkeeping, and every reusable sampling buffer.
/// One `FastState` serves a whole [`BroadcastSession`].
#[derive(Debug)]
struct FastState {
    nodes: Vec<OneToNNode>,
    costs: Vec<u64>,
    dead: Vec<bool>,
    offline: Vec<bool>,
    send_events: Vec<(u64, u32)>,
    slot_contents: Vec<(u64, SlotContent)>,
    scratch: Vec<u64>,
    send_counts: Vec<u64>,
    clear_counts: Vec<u64>,
    msg_counts: Vec<u64>,
}

impl FastState {
    fn new(params: &OneToNParams, n: usize, sources: &[usize]) -> Self {
        assert!(n >= 1, "need at least one node");
        assert!(!sources.is_empty(), "need at least one source");
        assert!(sources.iter().all(|&s| s < n), "source ids must be < n");
        Self {
            nodes: (0..n)
                .map(|u| OneToNNode::new(params, sources.contains(&u)))
                .collect(),
            costs: vec![0; n],
            dead: vec![false; n],
            offline: vec![false; n],
            send_events: Vec::new(),
            slot_contents: Vec::new(),
            scratch: Vec::new(),
            send_counts: vec![0; n],
            clear_counts: vec![0; n],
            msg_counts: vec![0; n],
        }
    }

    /// Resets every node and counter to the just-constructed state while
    /// keeping all ten allocations (the session layer's re-arm path).
    fn rearm(&mut self, params: &OneToNParams, sources: &[usize]) {
        for (u, node) in self.nodes.iter_mut().enumerate() {
            node.rearm(params, sources.contains(&u));
        }
        self.costs.fill(0);
        self.dead.fill(false);
        self.offline.fill(false);
        // The loop zeroes these as it goes, but a truncated run can leave
        // residue in the last repetition's counts.
        self.send_counts.fill(0);
        self.clear_counts.fill(0);
        self.msg_counts.fill(0);
    }
}

/// A re-armable fast-broadcast session: one set of allocations (node
/// vector, cost counters, sampling buffers) serves a stream of 1-to-n
/// executions in which every node in `sources` starts informed.
/// [`rearm`](Session::rearm) returns everything to the just-constructed
/// state in place; the golden equivalence suite pins that a re-armed run
/// is bit-identical to a fresh session at the same seed.
///
/// Figure 2 never uses the fact that exactly one node holds `m` initially —
/// the analysis works for any informed set `A` with `|A| ≥ 1` (Lemma 9
/// explicitly tracks a growing `A`). Multiple sources simply shorten the
/// dissemination phase; rates, helper logic, and termination are untouched.
///
/// Fault semantics match the exact engine: crashed and battery-dead nodes
/// are radio-off (no sampling, no coin flips) while their protocol clock
/// keeps ticking through zero-count repetition epilogues; the loss coin is
/// drawn only on decodable `m` receptions; skewed boundary slots decode as
/// noise; the battery gauge is sampled at repetition boundaries, so
/// overshoot is at most one repetition of activity. Battery-dead nodes
/// count as halted for the completion check.
///
/// ```
/// use rcb_sim::deadline::Deadline;
/// use rcb_sim::fast::{BroadcastSession, FastConfig};
/// use rcb_sim::faults::FaultPlan;
/// use rcb_sim::session::Session;
/// use rcb_adversary::rep_strategies::NoJamRep;
/// use rcb_core::one_to_n::OneToNParams;
///
/// let params = OneToNParams::practical();
/// let config = FastConfig::default();
/// let mut session = BroadcastSession::new(params, 16, vec![0], config, FaultPlan::none(), 7);
/// let (out, err) = session.run(&mut NoJamRep, &Deadline::NONE);
/// assert!(err.is_none() && out.all_informed && out.all_terminated);
/// ```
#[derive(Debug)]
pub struct BroadcastSession {
    params: OneToNParams,
    sources: Vec<usize>,
    config: FastConfig,
    faults: FaultPlan,
    state: FastState,
    rng: RcbRng,
}

impl BroadcastSession {
    /// # Panics
    ///
    /// Panics on `n == 0`, an empty or out-of-range `sources` list, or an
    /// invalid fault plan.
    pub fn new(
        params: OneToNParams,
        n: usize,
        sources: Vec<usize>,
        config: FastConfig,
        faults: FaultPlan,
        seed: u64,
    ) -> Self {
        assert!(faults.validate().is_ok(), "invalid fault plan");
        let state = FastState::new(&params, n, &sources);
        Self {
            params,
            sources,
            config,
            faults,
            state,
            rng: RcbRng::new(seed),
        }
    }

    /// [`Session::run`] with a per-repetition observer and no deadline:
    /// `observer` sees every repetition epilogue with the full node states
    /// (the dynamics and dissemination probes, and calibration tooling).
    pub fn run_observed(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        observer: &mut dyn BroadcastObserver,
    ) -> (BroadcastOutcome, Option<SimError>) {
        run_broadcast_in(
            &mut self.state,
            &self.params,
            adversary,
            &mut self.rng,
            self.config,
            observer,
            &self.faults,
            &Deadline::NONE,
        )
    }
}

impl Session for BroadcastSession {
    type Outcome = BroadcastOutcome;

    fn rearm(&mut self, seed: u64) {
        self.state.rearm(&self.params, &self.sources);
        self.rng = RcbRng::new(seed);
    }

    fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        run_broadcast_in(
            &mut self.state,
            &self.params,
            adversary,
            &mut self.rng,
            self.config,
            &mut (),
            &self.faults,
            deadline,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn run_broadcast_in(
    state: &mut FastState,
    params: &OneToNParams,
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    config: FastConfig,
    observer: &mut dyn BroadcastObserver,
    faults: &FaultPlan,
    deadline: &Deadline,
) -> (BroadcastOutcome, Option<SimError>) {
    let FastState {
        nodes,
        costs,
        dead,
        offline,
        send_events,
        slot_contents,
        scratch,
        send_counts,
        clear_counts,
        msg_counts,
    } = state;
    let n = nodes.len();
    let mut adversary_cost = 0u64;
    let mut slots_total = 0u64;
    let mut period = 0u64;
    let mut truncated = true;

    // Fault state. The dedicated RNG stream is derived only for non-empty
    // plans, so `FaultPlan::none()` leaves the caller's stream — and hence
    // every sample below — bit-identical to the unfaulted engine.
    debug_assert!(faults.validate().is_ok(), "invalid fault plan");
    let has_faults = !faults.is_none();
    let mut fault_rng = if has_faults { Some(rng.split()) } else { None };
    let loss_p = faults.loss_p();
    let lost = |frng: &mut Option<RcbRng>| match frng {
        Some(r) if loss_p > 0.0 => bernoulli(r, loss_p),
        _ => false,
    };
    let mut pending_reboot = faults.reboot_at();

    // Deadline checkpoints sit at repetition boundaries (the granularity
    // of all other bookkeeping) and consume no RNG; the `is_unbounded`
    // gate keeps the clock read off the default path entirely.
    let bounded = !deadline.is_unbounded();
    let mut deadline_hit = false;

    let mut epoch = params.first_epoch;
    'epochs: while epoch <= config.max_epoch {
        let len = params.slots(epoch);
        let reps = params.reps(epoch);
        for _ in 0..reps {
            if bounded && deadline.exceeded() {
                deadline_hit = true;
                break 'epochs;
            }
            if has_faults {
                // Repetition-boundary bookkeeping, mirroring the exact
                // engine's period boundary: sample the battery gauge, fire
                // a pending state-losing reboot, and refresh which radios
                // are off this period.
                if let Some(cap) = faults.battery_capacity() {
                    for (u, d) in dead.iter_mut().enumerate() {
                        *d = *d || costs[u] >= cap;
                    }
                }
                if let Some((node, at)) = pending_reboot {
                    if period >= at {
                        nodes[node].reboot(params);
                        pending_reboot = None;
                    }
                }
                for (u, off) in offline.iter_mut().enumerate() {
                    *off = dead[u] || faults.crashed(u, period);
                }
            }
            if nodes
                .iter()
                .zip(&**dead)
                .all(|(v, &d)| v.is_terminated() || d)
            {
                truncated = false;
                break 'epochs;
            }
            let active = nodes
                .iter()
                .zip(&**offline)
                .filter(|(v, &off)| !v.is_terminated() && !off)
                .count();
            let ctx = RepetitionContext {
                epoch,
                repetition: period,
                slots: len,
                active_nodes: active,
            };
            let plan = adversary.plan(&ctx);
            adversary_cost += plan.jam_count(len);

            // 1. Send events. Radio-off nodes sample nothing: no coin
            // flips, so their RNG consumption pauses with the radio.
            send_events.clear();
            for (u, node) in nodes.iter().enumerate() {
                send_counts[u] = 0;
                if node.is_terminated() || offline[u] {
                    continue;
                }
                sample_slots_into(rng, len, node.send_prob(params), scratch);
                send_counts[u] = scratch.len() as u64;
                costs[u] += scratch.len() as u64;
                for &t in scratch.iter() {
                    send_events.push((t, u as u32));
                }
            }
            send_events.sort_unstable();

            // 2. Collapse into per-slot channel content, counting `m`
            // slots as they are classified (the epilogue needs the total,
            // and grouping here is cheaper than re-scanning the contents).
            slot_contents.clear();
            let mut message_slots = 0u64;
            let mut k = 0usize;
            while k < send_events.len() {
                let (t, u) = send_events[k];
                let mut j = k + 1;
                while j < send_events.len() && send_events[j].0 == t {
                    j += 1;
                }
                let content = if j - k >= 2 {
                    SlotContent::Collision
                } else if nodes[u as usize].sends_message() {
                    message_slots += 1;
                    SlotContent::Message(u)
                } else {
                    SlotContent::SingleNoise
                };
                slot_contents.push((t, content));
                k = j;
            }

            // 3. Listen events.
            let mut total_listens = 0u64;
            for (u, node) in nodes.iter().enumerate() {
                if node.is_terminated() || offline[u] {
                    continue;
                }
                let skew = faults.skew_slots(u);
                sample_slots_into(rng, len, node.listen_prob(params), scratch);
                // Drop listen slots where this node itself transmits.
                // Own sends for node u are a sorted subsequence of
                // send_events; rescan them via binary search on the full
                // sorted list (senders per slot are few).
                // Nodes that sent nothing this repetition (the common case
                // at low send rates) skip the lookup outright.
                let sent = send_counts[u] != 0;
                for &t in scratch.iter() {
                    if sent && slot_in_own_sends(send_events, t, u as u32) {
                        continue;
                    }
                    costs[u] += 1;
                    total_listens += 1;
                    if t < skew {
                        continue; // clock skew: boundary slots decode as noise
                    }
                    if plan.is_jammed(t, len) {
                        continue; // noise
                    }
                    match slot_contents.binary_search_by_key(&t, |&(s, _)| s) {
                        Err(_) => clear_counts[u] += 1,
                        Ok(idx) => match slot_contents[idx].1 {
                            SlotContent::Message(sender) => {
                                debug_assert_ne!(sender, u as u32);
                                // The loss coin is drawn only on decodable
                                // payload receptions, same as the exact
                                // engine's receiver condition.
                                if !lost(&mut fault_rng) {
                                    msg_counts[u] += 1;
                                }
                            }
                            SlotContent::SingleNoise | SlotContent::Collision => {}
                        },
                    }
                }
            }

            // 4. Repetition epilogue.
            for (u, node) in nodes.iter_mut().enumerate() {
                if node.is_terminated() {
                    continue;
                }
                node.end_repetition(params, clear_counts[u], msg_counts[u]);
                clear_counts[u] = 0;
                msg_counts[u] = 0;
            }
            adversary.observe(
                &ctx,
                &RepetitionSummary {
                    message_slots,
                    busy_slots: slot_contents.len() as u64,
                    jammed_slots: plan.jam_count(len),
                    listen_actions: total_listens,
                    send_actions: send_events.len() as u64,
                },
            );
            observer.on_repetition(epoch, period, plan.jam_count(len), nodes);
            slots_total += len;
            period += 1;
        }
        if nodes.iter().all(|v| v.is_terminated()) {
            truncated = false;
            break;
        }
        epoch += 1;
        if epoch <= config.max_epoch {
            for node in nodes.iter_mut() {
                node.begin_epoch(epoch, params);
            }
        }
    }

    let informed = nodes.iter().filter(|v| v.ever_informed()).count();
    let safety = nodes
        .iter()
        .filter(|v| v.term_reason() == Some(rcb_core::one_to_n::TermReason::Safety))
        .count();
    let err = if deadline_hit {
        Some(SimError::DeadlineExceeded { slots: slots_total })
    } else {
        truncated.then_some(SimError::EpochBudgetExhausted {
            max_epoch: config.max_epoch,
            slots: slots_total,
        })
    };
    (
        BroadcastOutcome {
            n,
            informed,
            all_informed: informed == n,
            all_terminated: nodes.iter().all(|v| v.is_terminated()),
            safety_terminations: safety,
            node_costs: costs.clone(),
            adversary_cost,
            slots: slots_total,
            last_epoch: epoch.min(config.max_epoch),
            truncated,
        },
        err,
    )
}

/// Whether `(t, u)` occurs in the sorted `send_events`.
fn slot_in_own_sends(send_events: &[(u64, u32)], t: u64, u: u32) -> bool {
    let mut idx = send_events.partition_point(|&(s, _)| s < t);
    while idx < send_events.len() && send_events[idx].0 == t {
        if send_events[idx].1 == u {
            return true;
        }
        idx += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep, SuffixFractionRep};

    fn params() -> OneToNParams {
        OneToNParams::practical()
    }

    /// One run of a freshly constructed session at `seed`.
    fn bcast(
        n: usize,
        sources: &[usize],
        adversary: &mut dyn RepetitionAdversary,
        seed: u64,
        config: FastConfig,
        faults: FaultPlan,
    ) -> (BroadcastOutcome, Option<SimError>) {
        BroadcastSession::new(params(), n, sources.to_vec(), config, faults, seed)
            .run(adversary, &Deadline::NONE)
    }

    /// [`bcast`] from node 0 with the default config and no faults.
    fn clean(n: usize, adversary: &mut dyn RepetitionAdversary, seed: u64) -> BroadcastOutcome {
        bcast(
            n,
            &[0],
            adversary,
            seed,
            FastConfig::default(),
            FaultPlan::none(),
        )
        .0
    }

    /// [`bcast`] from node 0, unjammed, under `faults`.
    fn faulted(n: usize, seed: u64, faults: FaultPlan) -> BroadcastOutcome {
        bcast(n, &[0], &mut NoJamRep, seed, FastConfig::default(), faults).0
    }

    #[test]
    fn single_node_terminates_alone() {
        // n = 1: the sender hears only silence, S grows, and the safety
        // valve or helper logic must terminate it with bounded cost.
        let out = clean(1, &mut NoJamRep, 1);
        assert!(out.all_terminated, "last epoch {}", out.last_epoch);
        assert!(out.all_informed);
        assert!(!out.truncated);
    }

    #[test]
    fn unjammed_broadcast_informs_everyone() {
        let mut ok = 0;
        let trials = 10;
        for seed in 0..trials {
            let out = clean(16, &mut NoJamRep, seed);
            assert!(
                !out.truncated,
                "seed {seed}: truncated at epoch {}",
                out.last_epoch
            );
            if out.all_informed && out.all_terminated {
                ok += 1;
            }
        }
        assert!(ok >= 9, "informed+terminated in {ok}/{trials} runs");
    }

    #[test]
    fn termination_happens_near_the_ideal_epoch() {
        let n = 32;
        let out = clean(n, &mut NoJamRep, 3);
        let ideal = params().ideal_epoch(n);
        assert!(
            out.last_epoch <= ideal + 3,
            "terminated at epoch {} vs ideal {ideal}",
            out.last_epoch
        );
    }

    #[test]
    fn jamming_charges_adversary_and_inflates_cost() {
        let n = 16;
        let free = clean(n, &mut NoJamRep, 4);
        // T must comfortably exceed the unjammed slot total: at comparable
        // budgets blanket jamming can even *reduce* node cost (blocked
        // epochs suppress the expensive growth-phase listening).
        let budget = 16 * free.slots;
        let jammed = clean(n, &mut BudgetedRepBlocker::new(budget, 1.0), 4);
        assert!(jammed.adversary_cost > 0);
        assert!(
            jammed.max_cost() > free.max_cost(),
            "jammed {} vs free {}",
            jammed.max_cost(),
            free.max_cost()
        );
        assert!(jammed.slots > free.slots);
        assert!(jammed.all_informed, "budget exhausted ⇒ delivery resumes");
    }

    #[test]
    fn per_node_cost_shrinks_as_n_grows() {
        // The headline of Theorem 3: bigger systems pay less per node under
        // the same attack budget.
        let budget = 2_000_000u64;
        let mean_cost = |n: usize, seed: u64| {
            let trials = 3;
            let total: f64 = (0..trials)
                .map(|s| clean(n, &mut BudgetedRepBlocker::new(budget, 1.0), seed + s).mean_cost())
                .sum();
            total / trials as f64
        };
        let small = mean_cost(8, 10);
        let large = mean_cost(64, 20);
        assert!(
            large < small,
            "per-node cost should fall with n: n=8 → {small}, n=128 → {large}"
        );
    }

    #[test]
    fn slot_in_own_sends_lookup() {
        let events = [(1u64, 0u32), (3, 1), (3, 2), (7, 0)];
        assert!(slot_in_own_sends(&events, 1, 0));
        assert!(!slot_in_own_sends(&events, 1, 1));
        assert!(slot_in_own_sends(&events, 3, 2));
        assert!(!slot_in_own_sends(&events, 3, 0));
        assert!(!slot_in_own_sends(&events, 5, 0));
    }

    #[test]
    fn multi_source_broadcast_informs_and_is_no_slower() {
        let n = 24;
        let mut single_slots = 0u64;
        let mut multi_slots = 0u64;
        let trials = 6;
        let config = FastConfig::default();
        for seed in 0..trials {
            let (out, _) = bcast(
                n,
                &[0],
                &mut NoJamRep,
                400 + seed,
                config,
                FaultPlan::none(),
            );
            assert!(out.all_informed);
            single_slots += out.slots;

            let sources = [0, 5, 11, 17];
            let (out, _) = bcast(
                n,
                &sources,
                &mut NoJamRep,
                800 + seed,
                config,
                FaultPlan::none(),
            );
            assert!(out.all_informed);
            assert!(out.informed == n);
            multi_slots += out.slots;
        }
        // Extra sources can only help dissemination; allow slack for the
        // epoch-granular termination.
        assert!(
            multi_slots <= single_slots + single_slots / 2,
            "multi {multi_slots} vs single {single_slots}"
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_source_panics() {
        bcast(
            4,
            &[4],
            &mut NoJamRep,
            1,
            FastConfig::default(),
            FaultPlan::none(),
        );
    }

    #[test]
    fn epoch_cap_truncates_with_a_typed_error() {
        let p = params();
        // Unlimited full blocking: nobody can ever terminate.
        let mut adv = SuffixFractionRep::new(1.0);
        let config = FastConfig {
            max_epoch: p.first_epoch + 2,
        };
        let (out, err) = bcast(4, &[0], &mut adv, 5, config, FaultPlan::none());
        assert!(out.truncated);
        assert!(!out.all_terminated);
        assert_eq!(out.last_epoch, p.first_epoch + 2);
        assert!(matches!(
            err,
            Some(SimError::EpochBudgetExhausted { max_epoch, .. }) if max_epoch == p.first_epoch + 2
        ));
    }

    #[test]
    fn an_elapsed_deadline_truncates_with_a_typed_error() {
        let config = FastConfig::default();
        let mut session =
            BroadcastSession::new(params(), 16, vec![0], config, FaultPlan::none(), 7);
        let (out, err) = session.run(&mut NoJamRep, &Deadline::after(std::time::Duration::ZERO));
        assert!(out.truncated);
        assert_eq!(out.slots, 0, "checkpoint fires before the first repetition");
        assert_eq!(err, Some(SimError::DeadlineExceeded { slots: 0 }));
    }

    #[test]
    fn crash_restart_reconverges() {
        // Node 3 goes dark for six early periods and reboots with its
        // volatile state wiped. The informed helpers keep transmitting m,
        // so the rebooted node relearns it: dissemination degrades
        // gracefully instead of wedging.
        let mut informed_runs = 0;
        let trials = 10;
        for seed in 0..trials {
            let out = faulted(8, 900 + seed, FaultPlan::none().with_crash(3, 2, 6, true));
            assert!(!out.truncated, "seed {seed}");
            if out.all_informed {
                informed_runs += 1;
            }
        }
        assert!(
            informed_runs >= 8,
            "re-converged in {informed_runs}/{trials} runs"
        );
    }

    #[test]
    fn lossy_reception_degrades_gracefully() {
        // 20% receiver-side loss slows dissemination but must not produce
        // a cliff: most runs still inform everyone.
        let mut informed_runs = 0;
        let trials = 10;
        for seed in 0..trials {
            let out = faulted(16, 300 + seed, FaultPlan::none().with_loss(0.2));
            assert!(!out.truncated, "seed {seed}");
            if out.all_informed {
                informed_runs += 1;
            }
        }
        assert!(
            informed_runs >= 8,
            "informed in {informed_runs}/{trials} lossy runs"
        );
    }

    #[test]
    fn battery_brownout_caps_node_cost() {
        let plain = faulted(8, 9, FaultPlan::none());
        let capped = faulted(8, 9, FaultPlan::none().with_battery(20));
        assert!(!capped.truncated, "dead nodes count as halted");
        assert!(
            capped.max_cost() < plain.max_cost(),
            "capped {} vs plain {}",
            capped.max_cost(),
            plain.max_cost()
        );
    }

    /// Counts repetition epilogues.
    struct CountingObserver(u64);

    impl BroadcastObserver for CountingObserver {
        fn on_repetition(&mut self, _: u32, _: u64, _: u64, _: &[OneToNNode]) {
            self.0 += 1;
        }
    }

    #[test]
    fn an_observer_sees_every_repetition_and_changes_nothing() {
        let config = FastConfig::default();
        let mut session =
            BroadcastSession::new(params(), 8, vec![0], config, FaultPlan::none(), 11);
        let mut observer = CountingObserver(0);
        let (observed, _) = session.run_observed(&mut NoJamRep, &mut observer);
        assert!(observer.0 > 0);
        assert_eq!(observed, clean(8, &mut NoJamRep, 11));
    }
}
