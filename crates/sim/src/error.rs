//! Typed harness failures: budget exhaustion and poisoned trials.
//!
//! The engines historically reported hitting a hard cap only through a
//! `truncated`/`completed` flag that downstream aggregation could (and in
//! early experiment code, did) silently average over. The `*_checked` entry
//! points surface the same condition as a [`SimError`] so sweeps can route
//! a runaway cell to an error column instead of folding a truncated run
//! into a cost mean.

use std::fmt;

/// An engine hit a hard resource cap before every node halted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The slot cap was reached with at least one node still running.
    SlotBudgetExhausted {
        /// The configured cap.
        max_slots: u64,
        /// Slots actually executed (= `max_slots` for the exact engine;
        /// the fast engines stop at the end of the period that crossed it).
        slots: u64,
    },
    /// The epoch cap was reached with at least one node still running. The
    /// fast engines bound epochs rather than raw slots (a single epoch-62
    /// phase already exceeds 2^62 slots).
    EpochBudgetExhausted {
        /// The configured cap (the fixed 62 for the duel engine).
        max_epoch: u32,
        /// Slots executed before giving up.
        slots: u64,
    },
    /// A cooperative wall-clock deadline (or cancellation flag) fired
    /// before the run finished. Unlike the budget variants this is *not*
    /// deterministic — where the cut lands depends on machine speed — so
    /// results carrying it are reported but never journaled; a resumed run
    /// re-executes them from the seed fold.
    DeadlineExceeded {
        /// Slots executed before the cancellation checkpoint fired (0 when
        /// the deadline was already exceeded between trials, i.e. the
        /// trial never started).
        slots: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SlotBudgetExhausted { max_slots, slots } => write!(
                f,
                "slot budget exhausted: {slots} slots executed against a cap of {max_slots} \
                 with nodes still running"
            ),
            SimError::EpochBudgetExhausted { max_epoch, slots } => write!(
                f,
                "epoch budget exhausted: reached epoch cap {max_epoch} after {slots} slots \
                 with nodes still running"
            ),
            SimError::DeadlineExceeded { slots } => write!(
                f,
                "deadline exceeded: cooperative cancellation after {slots} slots \
                 with nodes still running"
            ),
        }
    }
}

impl SimError {
    /// Serializes for journal payloads; [`SimError::from_json`] inverts.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        match *self {
            SimError::SlotBudgetExhausted { max_slots, slots } => Json::obj(vec![
                ("kind", Json::Str("slot_budget".into())),
                ("max_slots", Json::Str(max_slots.to_string())),
                ("slots", Json::Str(slots.to_string())),
            ]),
            SimError::EpochBudgetExhausted { max_epoch, slots } => Json::obj(vec![
                ("kind", Json::Str("epoch_budget".into())),
                ("max_epoch", Json::Num(f64::from(max_epoch))),
                ("slots", Json::Str(slots.to_string())),
            ]),
            SimError::DeadlineExceeded { slots } => Json::obj(vec![
                ("kind", Json::Str("deadline".into())),
                ("slots", Json::Str(slots.to_string())),
            ]),
        }
    }

    /// Inverse of [`SimError::to_json`].
    pub fn from_json(value: &crate::json::Json) -> Result<SimError, String> {
        let u64_field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("SimError json missing `{key}`"))?
                .parse::<u64>()
                .map_err(|e| format!("SimError `{key}`: {e}"))
        };
        match value.get("kind").and_then(|k| k.as_str()) {
            Some("slot_budget") => Ok(SimError::SlotBudgetExhausted {
                max_slots: u64_field("max_slots")?,
                slots: u64_field("slots")?,
            }),
            Some("epoch_budget") => Ok(SimError::EpochBudgetExhausted {
                max_epoch: value
                    .get("max_epoch")
                    .and_then(|v| v.as_u64())
                    .ok_or("SimError json missing `max_epoch`")? as u32,
                slots: u64_field("slots")?,
            }),
            Some("deadline") => Ok(SimError::DeadlineExceeded {
                slots: u64_field("slots")?,
            }),
            other => Err(format!("unknown SimError kind {other:?}")),
        }
    }
}

impl std::error::Error for SimError {}

/// A trial that kept panicking under
/// [`run_specs_ctl`](crate::executor::run_specs_ctl)'s same-seed retry
/// policy and was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// The trial index whose closure panicked.
    pub trial: u64,
    /// The stringified panic payload; non-string payloads are rendered as
    /// `TypeName: value` for the probed types (see `executor::panic_payload`).
    pub payload: String,
    /// Same-seed attempts made before giving up (1 = no retry policy).
    pub attempts: u32,
}

impl TrialFailure {
    /// A failure recorded on the first and only attempt.
    pub fn new(trial: u64, payload: String) -> TrialFailure {
        TrialFailure {
            trial,
            payload,
            attempts: 1,
        }
    }
}

impl fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trial {} panicked: {}", self.trial, self.payload)?;
        if self.attempts > 1 {
            write!(f, " ({} same-seed attempts)", self.attempts)?;
        }
        Ok(())
    }
}

impl std::error::Error for TrialFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_the_caps() {
        let e = SimError::SlotBudgetExhausted {
            max_slots: 10,
            slots: 10,
        };
        assert!(e.to_string().contains("cap of 10"));
        let e = SimError::EpochBudgetExhausted {
            max_epoch: 62,
            slots: 99,
        };
        assert!(e.to_string().contains("62"));
        let e = SimError::DeadlineExceeded { slots: 7 };
        assert!(e.to_string().contains("deadline"));
        let t = TrialFailure::new(3, "boom".into());
        assert!(t.to_string().contains("trial 3"));
        assert!(t.to_string().contains("boom"));
        assert!(!t.to_string().contains("attempts"), "no retry note at 1");
        let t = TrialFailure {
            attempts: 3,
            ..TrialFailure::new(3, "boom".into())
        };
        assert!(t.to_string().contains("3 same-seed attempts"));
    }

    #[test]
    fn sim_errors_round_trip_through_json() {
        for e in [
            SimError::SlotBudgetExhausted {
                max_slots: 1 << 40,
                slots: u64::MAX - 1,
            },
            SimError::EpochBudgetExhausted {
                max_epoch: 62,
                slots: 12345,
            },
            SimError::DeadlineExceeded { slots: 0 },
        ] {
            let back = SimError::from_json(&e.to_json()).expect("round trip");
            assert_eq!(e, back);
        }
        assert!(SimError::from_json(&crate::json::Json::Null).is_err());
    }
}
