//! Golden batch checksums: every shipped scenario catalog, pinned.
//!
//! The scenario layer promises *bit-identical* behavior — same outcomes,
//! same slot counts, same FNV-1a checksum folds — for every (workload,
//! engine, adversary, faults) combination the repo ships. This suite pins
//! the per-spec batch checksum ([`batch_checksums`] over [`run_specs`]) to
//! a literal value on three catalogs:
//!
//! * every duel cell of the conformance differ's default grid, on both
//!   duel engines;
//! * every broadcast cell of that grid, on the engine pair the differ
//!   runs for it;
//! * every named registry entry with n ≤ 65,536.
//!
//! The values were recorded before the legacy `run_*` entry points were
//! retired, when this suite still replayed each spec through a hand-built
//! legacy harness; any drift in an engine, the trial dispatch, or the seed
//! derivation fails here. A deliberate change re-baselines the tables
//! once, from the table the failure message prints.
//!
//! Alongside the checksums, every trial's typed error must agree with the
//! outcome's own truncation flag: a surfaced engine cap adds information
//! and never changes the numbers.

use rcb_sim::conformance::default_grid;
use rcb_sim::executor::{batch_checksums, run_specs};
use rcb_sim::scenario::{registry, Engine, ScenarioSpec, Workload};

/// Runs `spec`'s batch, checks error/truncation agreement per trial, and
/// records its batch checksum under `label`.
fn record(spec: &ScenarioSpec, label: String, got: &mut Vec<(String, u64)>) {
    spec.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
    let specs = std::slice::from_ref(spec);
    let results = run_specs(specs, spec.parallelism);
    assert_eq!(results[0].len() as u64, spec.trials, "{label}: trial count");
    for (i, (outcome, err)) in results[0].iter().enumerate() {
        assert_eq!(
            err.is_some(),
            outcome.truncated(),
            "{label}: trial {i} error/truncation mismatch"
        );
    }
    got.push((label, batch_checksums(specs, &results)[0]));
}

/// Compares the recorded checksums with the pinned table; on mismatch the
/// panic message carries the full recorded table in source form.
fn assert_pinned(got: &[(String, u64)], expected: &[(&str, u64)]) {
    let same = got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|((l, c), (el, ec))| l == el && c == ec);
    if !same {
        let table: String = got
            .iter()
            .map(|(l, c)| format!("    ({l:?}, {c:#018x}),\n"))
            .collect();
        let drift: Vec<&str> = got
            .iter()
            .filter(|(l, c)| !expected.contains(&(l.as_str(), *c)))
            .map(|(l, _)| l.as_str())
            .collect();
        panic!("batch checksums drifted on {drift:?}; recorded table:\n{table}");
    }
}

const DUEL_GRID: &[(&str, u64)] = &[
    ("duel cell 0 Fast", 0x7cc9eaf6612e69ff),
    ("duel cell 0 Exact", 0xf82e4cfa450d11a6),
    ("duel cell 1 Fast", 0xe66e97734645bf9b),
    ("duel cell 1 Exact", 0xfc5ccc72ce2ab970),
    ("duel cell 2 Fast", 0xed64cb2f48291bf3),
    ("duel cell 2 Exact", 0x9ba7fcd6f11443ff),
    ("duel cell 3 Fast", 0x43a96338ed1304d3),
    ("duel cell 3 Exact", 0x10386c03946c09ba),
    ("duel cell 4 Fast", 0x2dba2481f8cf43f5),
    ("duel cell 4 Exact", 0x1289dbbebc3c780a),
    ("duel cell 5 Fast", 0x5abeda48afc27164),
    ("duel cell 5 Exact", 0x0bf8395ee9868124),
    ("duel cell 6 Fast", 0xfc7de1b3b11f55e1),
    ("duel cell 6 Exact", 0xb4a8a726835c8bc3),
    ("duel cell 7 Fast", 0xeda732d4a8698306),
    ("duel cell 7 Exact", 0xc5c5c8b6ff9cc8b5),
];

const BROADCAST_GRID: &[(&str, u64)] = &[
    ("broadcast cell 0 Exact", 0x8fcbc6f142f2559d),
    ("broadcast cell 0 Fast", 0x5dc20bf1bfa871bd),
    ("broadcast cell 1 Exact", 0x2b289d96aba13e83),
    ("broadcast cell 1 Fast", 0x138ebcac9bda28a8),
    ("broadcast cell 2 Exact", 0x2a8ab93a22e6ce67),
    ("broadcast cell 2 Fast", 0xb1e323ae42f5c4df),
    ("broadcast cell 3 Exact", 0x0f28d02c4eaf1b08),
    ("broadcast cell 3 Fast", 0x8e93be6cff4fd84c),
    ("broadcast cell 4 Exact", 0x7b8327a1d75ab442),
    ("broadcast cell 4 CohortFast", 0xac6ba05a3d07efc0),
    ("broadcast cell 5 Fast", 0x5be63654d658ef26),
    ("broadcast cell 5 CohortFast", 0xa407c2211701fe7a),
    ("broadcast cell 6 Fast", 0x150a3409d6b3c522),
    ("broadcast cell 6 CohortFast", 0xfbd0d3e3b25a2eb4),
    ("broadcast cell 7 Fast", 0x53b19cf73f79db5f),
    ("broadcast cell 7 CohortFast", 0x100e345bd82b7d10),
];

const REGISTRY: &[(&str, u64)] = &[
    ("duel_clean", 0x2e0bdcc599276e72),
    ("duel_jammed", 0xa38e32ef65af3072),
    ("duel_jammed_faulted", 0xa43de131a14ed53f),
    ("exact_duel_jammed", 0xada95718607f9235),
    ("bcast_n8_jammed", 0x31c98e3e00b57734),
    ("bcast_n64_jammed", 0xe10d7c22b4e6b125),
    ("bcast_n256_jammed", 0x4c8ae33c049cea53),
    ("bcast_n64_faulted", 0xa31b4f273aa2563d),
    ("bcast_n65536", 0x135c37985676283b),
];

#[test]
fn default_grid_duel_cells_are_pinned() {
    let (duel_cells, _) = default_grid();
    assert!(!duel_cells.is_empty(), "grid must have duel cells");
    let mut got = Vec::new();
    for (i, cell) in duel_cells.iter().enumerate() {
        for engine in [Engine::Fast, Engine::Exact] {
            let trials = if engine == Engine::Fast { 4 } else { 2 };
            let spec = cell
                .spec
                .clone()
                .with_engine(engine)
                .with_trials(trials)
                .with_seed(0xC0FFEE ^ i as u64);
            record(&spec, format!("duel cell {i} {engine:?}"), &mut got);
        }
    }
    assert_pinned(&got, DUEL_GRID);
}

#[test]
fn default_grid_broadcast_cells_are_pinned() {
    let (_, broadcast_cells) = default_grid();
    assert!(
        !broadcast_cells.is_empty(),
        "grid must have broadcast cells"
    );
    let mut got = Vec::new();
    for (i, cell) in broadcast_cells.iter().enumerate() {
        // The engines the differ actually runs for this cell, which keeps
        // the exact engine away from populations it was never sized for.
        for engine in [cell.engines.0, cell.engines.1] {
            let trials = if engine == Engine::Exact { 2 } else { 4 };
            let spec = cell
                .spec
                .clone()
                .with_engine(engine)
                .with_trials(trials)
                .with_seed(0xBCA57 ^ i as u64);
            record(&spec, format!("broadcast cell {i} {engine:?}"), &mut got);
        }
    }
    assert_pinned(&got, BROADCAST_GRID);
}

#[test]
fn registry_entries_are_pinned() {
    let entries = registry();
    assert!(!entries.is_empty(), "registry must not be empty");
    let mut got = Vec::new();
    for entry in &entries {
        // The 10^6 scale-ceiling entry takes ~70 s per trial even on the
        // cohort engine; the n = 65536 entry covers the same dispatch.
        if let Workload::Broadcast(w) = &entry.spec.workload {
            if w.n > 65_536 {
                continue;
            }
        }
        // Stream entries are pinned by `rearm_equivalence.rs` and the
        // perf grid's checksums.
        if matches!(entry.spec.workload, Workload::Stream(_)) {
            continue;
        }
        // Registry trial counts are sized for perf runs; cap them so the
        // suite stays cheap while still folding a multi-trial checksum.
        // Seeds are the entries' own pinned seeds.
        let cap = match entry.spec.engine {
            Engine::Exact => 4,
            Engine::CohortFast => 2,
            Engine::Fast => 8,
        };
        let spec = entry.spec.clone().with_trials(entry.spec.trials.min(cap));
        record(&spec, entry.name.to_string(), &mut got);
    }
    assert_pinned(&got, REGISTRY);
}
