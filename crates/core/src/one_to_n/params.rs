//! Parameters of 1-to-n BROADCAST (Figure 2).
//!
//! The paper fixes the *shape* of every quantity and leaves the constants
//! "sufficiently large": epoch `i` has `b·i²` repetitions of `2^i` slots; a
//! node with rate variable `S_u` sends with probability `S_u/2^i`, listens
//! with probability `S_u·d·i³/2^i`, grows `S_u` by `2^(C′ᵤ/(S_u·d·i⁴))`,
//! becomes a helper after hearing `m` more than `d·i³/200` times in one
//! repetition, and terminates when `S_u ≥ 360·√(2^i/n_u)` (or the safety
//! valve `S_u > 360·2^(i/2)` fires).
//!
//! [`OneToNParams`] exposes every constant and — because the literal paper
//! constants put even the *first* epoch beyond laptop reach (`d > 79.2`
//! forces `2^i > 16·d·i³` before listen probabilities drop below 1) — also
//! the polylog *exponents*: `listen_pow` replaces the cubes (`i³ → i^κ`)
//! and `rep_pow` the squares. Scaling exponents and constants together
//! preserves every ratio the analysis relies on (growth per repetition,
//! helper threshold as a fraction of the expected message count, termination
//! as a multiple of the ideal rate), so the asymptotic shapes — cost
//! `√(T/n)·polylog`, latency `O(T + n·polylog)` — survive; the benches
//! verify them. See DESIGN.md §2 for the substitution argument.

use serde::{Deserialize, Serialize};

/// Full parameterization of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OneToNParams {
    /// Repetitions per epoch = `⌈b·i^rep_pow⌉` (paper: `b·i²`, `b ≥ 10`).
    pub b: f64,
    /// Exponent of `i` in the repetition count (paper: 2).
    pub rep_pow: u32,
    /// Listen-rate multiplier (paper: `d > 79.2`).
    pub d: f64,
    /// Exponent of `i` in the listen multiplier (paper: 3, the `i³`).
    pub listen_pow: u32,
    /// Initial and epoch-reset value of `S_u` (paper: 16).
    pub s_init: f64,
    /// Helper threshold as a fraction of `d·i^listen_pow` (paper: 1/200).
    pub helper_frac: f64,
    /// Extra power of `i` in the growth denominator (paper: 1 — the step
    /// from `i³` to `i⁴`).
    pub growth_extra_pow: u32,
    /// Helper termination factor (paper: 360): terminate when
    /// `S_u ≥ term_factor·√(2^i/n_u)`.
    pub term_factor: f64,
    /// Safety-valve factor (paper: 360): terminate when
    /// `S_u > safety_factor·2^(i/2)`.
    pub safety_factor: f64,
    /// First epoch index (paper: "some sufficiently large constant").
    pub first_epoch: u32,
}

impl OneToNParams {
    /// The literal constants of Figure 2. Faithful, and astronomically
    /// expensive to execute — provided for completeness and for unit tests
    /// of the formulas, not for end-to-end runs.
    pub fn paper() -> Self {
        Self {
            b: 10.0,
            rep_pow: 2,
            d: 80.0,
            listen_pow: 3,
            s_init: 16.0,
            helper_frac: 1.0 / 200.0,
            growth_extra_pow: 1,
            term_factor: 360.0,
            safety_factor: 360.0,
            first_epoch: 11,
        }
    }

    /// Laptop-scale constants, calibrated (see `rcb-bench`'s `calibrate`
    /// binary) so that executions with `n` up to a few hundred inform
    /// everyone and terminate within ~2 epochs of the termination point the
    /// constants predict, while keeping every structural ratio of the paper
    /// (see module docs). The calibration constraints, in brief:
    ///
    /// * `helper_frac·d·i` (the helper threshold) must exceed
    ///   `max_x(x·e^{-x})·s_init·d·i ≈ 0.37·s_init·d·i` so that helpers
    ///   only form once `S_u` has grown to ≈ `√(helper_frac·2^j/n)` — which
    ///   pins the population estimate to `n_u ≈ n/(1.15·helper_frac)`, a
    ///   *stable* constant-factor bias instead of an unbounded one;
    /// * `b > 1` strictly, so the per-epoch growth capacity `2^(b·i/2)`
    ///   outruns the `2^(i/2)`-shaped termination/safety bounds;
    /// * `term_factor` as small as empirically safe: it multiplies into the
    ///   final `S_u`, hence into every node's cost.
    ///
    /// Two degrees of freedom are deliberately spent on tractability: the
    /// dynamics depend on `d` and `helper_frac` only through the product
    /// `helper_frac·d·i` and on rates relative to `E[listens]`, so `d = 1`
    /// with a proportionally larger `helper_frac` halves nothing *logical*
    /// while quartering the listen cost; and `growth_extra_pow = 0` (growth
    /// `2^(q−1/2)` per repetition instead of `2^((q−1/2)/i)`) lets an epoch
    /// need only `Θ(i)` repetitions (`rep_pow = 1`) instead of `Θ(i²)`.
    pub fn practical() -> Self {
        Self {
            b: 3.0,
            rep_pow: 1,
            d: 1.0,
            listen_pow: 1,
            s_init: 6.0,
            helper_frac: 7.0,
            growth_extra_pow: 0,
            term_factor: 2.0,
            safety_factor: 8.0,
            first_epoch: 5,
        }
    }

    /// Number of slots in one repetition of epoch `i`: `2^i`.
    pub fn slots(&self, epoch: u32) -> u64 {
        assert!(epoch < 62, "epoch {epoch} out of range");
        1u64 << epoch
    }

    /// Number of repetitions in epoch `i`: `⌈b·i^rep_pow⌉`.
    pub fn reps(&self, epoch: u32) -> u64 {
        self.reps_f64(epoch) as u64
    }

    /// `⌈b·i^rep_pow⌉` before [`reps`](Self::reps) saturates it into a u64.
    fn reps_f64(&self, epoch: u32) -> f64 {
        (self.b * (epoch as f64).powi(self.rep_pow as i32)).ceil()
    }

    /// The listen multiplier `d·i^listen_pow` (paper: `d·i³`).
    pub fn listen_mult(&self, epoch: u32) -> f64 {
        self.d * (epoch as f64).powi(self.listen_pow as i32)
    }

    /// Per-slot send probability for rate variable `s`: `min(1, s/2^i)`.
    pub fn send_prob(&self, epoch: u32, s: f64) -> f64 {
        (s / self.slots(epoch) as f64).min(1.0)
    }

    /// Per-slot listen probability: `min(1, s·d·i^κ/2^i)`.
    pub fn listen_prob(&self, epoch: u32, s: f64) -> f64 {
        (s * self.listen_mult(epoch) / self.slots(epoch) as f64).min(1.0)
    }

    /// Expected number of listened slots per repetition (probability × slot
    /// count; saturates with the probability clamp).
    pub fn expected_listens(&self, epoch: u32, s: f64) -> f64 {
        self.listen_prob(epoch, s) * self.slots(epoch) as f64
    }

    /// Helper threshold: hear `m` strictly more than this many times in one
    /// repetition to switch from informed to helper (paper: `d·i³/200`).
    pub fn helper_threshold(&self, epoch: u32) -> f64 {
        self.helper_frac * self.listen_mult(epoch)
    }

    /// The growth exponent denominator (paper: `S_u·d·i⁴`).
    ///
    /// Written as `E[listens]·i^extra`: in the paper's (unsaturated) regime
    /// `E[listens] = S_u·d·i³`, so this is literally `S_u·d·i⁴`. Using the
    /// *clamped* expectation keeps the growth rate at the intended
    /// `2^(1/2i)` per all-clear repetition even when the listen probability
    /// saturates at 1 (which happens at practical scales but never in the
    /// paper's asymptotic regime) — otherwise growth stalls and the case-1
    /// safety valve becomes unreachable.
    pub fn growth_denom(&self, epoch: u32, s: f64) -> f64 {
        self.expected_listens(epoch, s) * (epoch as f64).powi(self.growth_extra_pow as i32)
    }

    /// Safety-valve bound (case 1): terminate when `s` exceeds
    /// `safety_factor·2^(i/2)`.
    pub fn safety_bound(&self, epoch: u32) -> f64 {
        self.safety_factor * (self.slots(epoch) as f64).sqrt()
    }

    /// Helper termination bound (case 4): `term_factor·√(2^i/n_est)`.
    pub fn term_bound(&self, epoch: u32, n_est: f64) -> f64 {
        assert!(n_est > 0.0, "n estimate must be positive");
        self.term_factor * (self.slots(epoch) as f64 / n_est).sqrt()
    }

    /// Total slots in epoch `i`: `reps(i)·2^i`.
    pub fn epoch_slots(&self, epoch: u32) -> u64 {
        self.reps(epoch) * self.slots(epoch)
    }

    /// Total slots in epochs `first..=last`, or `None` if the total or any
    /// epoch's repetition count does not fit a u64.
    pub fn checked_slots_in_epochs(&self, first: u32, last: u32) -> Option<u64> {
        (first..=last).try_fold(0u64, |total, epoch| {
            // `reps()` saturates at u64::MAX; count that as overflow too.
            let reps = Some(self.reps_f64(epoch)).filter(|&r| r < u64::MAX as f64)?;
            total.checked_add((reps as u64).checked_mul(self.slots(epoch))?)
        })
    }

    /// The "ideal" epoch for a system of `n` nodes: the `i` with
    /// `√(2^i/n) = s_init`, i.e. `i* = lg n + 2·lg s_init` — where
    /// dissemination is cheapest and unjammed executions terminate.
    pub fn ideal_epoch(&self, n: usize) -> u32 {
        ((n as f64).log2() + 2.0 * self.s_init.log2()).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_the_figure_2_values() {
        let p = OneToNParams::paper();
        assert_eq!(p.s_init, 16.0);
        assert_eq!(p.term_factor, 360.0);
        assert_eq!(p.safety_factor, 360.0);
        assert!((p.helper_frac - 0.005).abs() < 1e-12);
        assert_eq!(p.listen_pow, 3);
        assert_eq!(p.rep_pow, 2);
        // Lemma 9 needs d > 79.2; Lemma 8/9 need b ≥ 10.
        assert!(p.d > 79.2);
        assert!(p.b >= 10.0);
    }

    #[test]
    fn paper_formulas() {
        let p = OneToNParams::paper();
        let i = 11u32;
        assert_eq!(p.slots(i), 2048);
        assert_eq!(p.reps(i), (10.0 * 121.0) as u64);
        assert!((p.listen_mult(i) - 80.0 * 1331.0).abs() < 1e-9);
        assert!((p.helper_threshold(i) - 80.0 * 1331.0 / 200.0).abs() < 1e-9);
        // Growth denominator is S·d·i⁴ wherever the listen probability is
        // unsaturated (epoch 40 with paper constants qualifies).
        let j = 40u32;
        assert!(p.listen_prob(j, 16.0) < 1.0);
        let expect = 16.0 * 80.0 * (j as f64).powi(3) * j as f64;
        assert!((p.growth_denom(j, 16.0) - expect).abs() < 1e-6 * expect);
        // In the saturated regime it is E[listens]·i = 2^i·i instead.
        assert!((p.growth_denom(i, 16.0) - 2048.0 * 11.0).abs() < 1e-9);
        assert!((p.safety_bound(i) - 360.0 * 2048.0_f64.sqrt()).abs() < 1e-9);
        assert!((p.term_bound(i, 4.0) - 360.0 * (2048.0_f64 / 4.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn probabilities_are_clamped() {
        let p = OneToNParams::paper();
        // Early epoch, paper constants: nominal listen probability ≫ 1.
        assert_eq!(p.listen_prob(11, 16.0), 1.0);
        assert!(p.send_prob(11, 16.0) < 1.0);
        assert_eq!(p.send_prob(4, 100.0), 1.0);
    }

    #[test]
    fn practical_listen_probability_is_subunit_at_ideal_epoch() {
        // The practical preset must actually be runnable: at the ideal epoch
        // for n = 64, a node at S = s_init listens with probability < 1.
        let p = OneToNParams::practical();
        let i = p.ideal_epoch(64);
        assert!(
            p.listen_prob(i, p.s_init) < 1.0,
            "listen prob {} not subunit",
            p.listen_prob(i, p.s_init)
        );
        // And the helper threshold is large enough to mean something.
        assert!(p.helper_threshold(i) >= 2.0);
    }

    #[test]
    fn ideal_epoch_tracks_n() {
        let p = OneToNParams::practical();
        // i* = ⌈lg n + 2·lg s_init⌉; s_init = 6 → lg n + 5.17.
        assert_eq!(p.ideal_epoch(64), 12);
        assert_eq!(p.ideal_epoch(256), 14);
        // Growing n by 4× moves the ideal epoch by 2.
        assert_eq!(p.ideal_epoch(1024), p.ideal_epoch(64) + 4);
    }

    #[test]
    fn growth_exponent_matches_paper_rate() {
        // With all-clear listening, C ≈ expected listens = s·d·i^κ, so
        // C′ ≈ C/2 and the growth exponent is C′/(s·d·i^(κ+1)) = 1/(2i):
        // the 2^(1/(2i)) factor of §3.1.
        let p = OneToNParams::paper();
        // Epoch 34 is the first regime where the paper constants give an
        // unsaturated listen probability (1280·i³ < 2^i).
        let (i, s) = (34u32, 16.0);
        assert!(p.listen_prob(i, s) < 1.0);
        let c = s * p.listen_mult(i);
        let c_prime = c / 2.0;
        let exponent = c_prime / p.growth_denom(i, s);
        assert!((exponent - 1.0 / (2.0 * i as f64)).abs() < 1e-12);
        // The same relation, generalized, holds for the practical preset:
        // exponent = 1/(2·i^extra); with extra = 0 that is a flat 1/2.
        let q = OneToNParams::practical();
        assert!(q.listen_prob(i, s) < 1.0, "need the unsaturated regime");
        let c2 = s * q.listen_mult(i);
        let e2 = (c2 / 2.0) / q.growth_denom(i, s);
        let expect2 = 0.5 / (i as f64).powi(q.growth_extra_pow as i32);
        assert!((e2 - expect2).abs() < 1e-12);
    }

    #[test]
    fn epoch_slots_product() {
        let p = OneToNParams::practical();
        assert_eq!(p.epoch_slots(6), p.reps(6) * 64);
    }

    #[test]
    fn checked_slots_in_epochs_sums_or_reports_overflow() {
        let p = OneToNParams::practical();
        let sum: u64 = (5..=40).map(|i| p.epoch_slots(i)).sum();
        assert_eq!(p.checked_slots_in_epochs(5, 40), Some(sum));
        // ⌈3·i⌉ repetitions of 2^i slots fill a u64 just past epoch 55.
        assert!(p.checked_slots_in_epochs(5, 55).is_some());
        assert_eq!(p.checked_slots_in_epochs(5, 56), None);
        // A repetition count past u64::MAX is an overflow even where the
        // saturated count times 2^0 slots would still fit.
        let huge = OneToNParams {
            b: 1e30,
            rep_pow: 0,
            ..p
        };
        assert_eq!(huge.reps(0), u64::MAX);
        assert_eq!(huge.checked_slots_in_epochs(0, 0), None);
    }

    #[test]
    #[should_panic]
    fn term_bound_rejects_zero_estimate() {
        OneToNParams::paper().term_bound(12, 0.0);
    }
}
