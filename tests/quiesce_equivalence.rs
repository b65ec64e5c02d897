//! Differential equivalence for the engine's quiescence gate: gated runs
//! (`quiesce_window > 0`) must be bit-identical to ungated runs — same
//! per-fault statuses, including exact first-detection pattern indices —
//! for every window size, csim variant, fault model, thread count, and
//! shard count, on stimulus crafted to actually drive nodes dormant
//! (random patterns held for multi-cycle bursts).
//!
//! Also pins checkpoint/resume: killing a run at any pattern boundary,
//! round-tripping the checkpoint through its byte serialization, and
//! resuming in a fresh simulator must reproduce the cold run exactly
//! (statuses *and* event counters), with and without gating.
//!
//! The adversarial fixture holds one input pattern far past the gating
//! window — driving most of the circuit dormant — then sweeps the whole
//! input space: faults detectable only by the late stimulus must still be
//! detected at the exact ungated pattern, which forces the wake protocol
//! to fire.

use cfs_core::{
    Checkpoint, ConcurrentSim, CsimOptions, CsimVariant, NullProbe, ShardPlan, TransitionOptions,
    TransitionSim,
};
use cfs_faults::{collapse_stuck_at, enumerate_transition, FaultStatus};
use cfs_logic::Logic;
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::Circuit;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gating windows under test; the ungated reference is window 0.
const WINDOWS: [u32; 4] = [1, 2, 7, 16];

/// Random patterns never quiesce, so each random pattern is held for
/// `hold` consecutive cycles: the circuit settles, nodes go dormant, and
/// the next burst must wake exactly the nodes it touches.
fn hold_patterns(circuit: &Circuit, bursts: usize, hold: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(bursts * hold);
    for _ in 0..bursts {
        let p: Vec<Logic> = (0..circuit.num_inputs())
            .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
            .collect();
        for _ in 0..hold {
            out.push(p.clone());
        }
    }
    out
}

/// `variant.options()` with a gating window applied.
fn gated(variant: CsimVariant, window: u32) -> CsimOptions {
    CsimOptions {
        quiesce_window: window,
        ..variant.options()
    }
}

fn gated_transition(window: u32) -> TransitionOptions {
    TransitionOptions {
        quiesce_window: window,
        ..TransitionOptions::default()
    }
}

/// Gated vs ungated serial stuck-at runs, all four variants × windows.
/// Returns the total gated skip count so callers can assert the gate
/// actually engaged somewhere in the matrix.
fn check_stuck_gated(circuit: &Circuit, patterns: &[Vec<Logic>]) -> u64 {
    let faults = collapse_stuck_at(circuit).representatives;
    let mut total_skips = 0;
    for variant in CsimVariant::ALL {
        let reference = ConcurrentSim::new(circuit, &faults, variant.options())
            .run(patterns)
            .statuses;
        for window in WINDOWS {
            let mut sim = ConcurrentSim::new(circuit, &faults, gated(variant, window));
            let report = sim.run(patterns);
            assert_eq!(
                report.statuses,
                reference,
                "{}: {variant} gated window={window} diverged from ungated",
                circuit.name()
            );
            total_skips += sim.quiesce_skips();
        }
    }
    total_skips
}

/// Gated vs ungated serial transition runs across windows.
fn check_transition_gated(circuit: &Circuit, patterns: &[Vec<Logic>]) -> u64 {
    let faults = enumerate_transition(circuit);
    let reference = TransitionSim::new(circuit, &faults, TransitionOptions::default())
        .run(patterns)
        .statuses;
    let mut total_skips = 0;
    for window in WINDOWS {
        let mut sim = TransitionSim::new(circuit, &faults, gated_transition(window));
        let report = sim.run(patterns);
        assert_eq!(
            report.statuses,
            reference,
            "{}: transition gated window={window} diverged from ungated",
            circuit.name()
        );
        total_skips += sim.quiesce_skips();
    }
    total_skips
}

#[test]
fn stuck_gated_matches_ungated_on_random_netlists() {
    let mut skips = 0;
    for seed in 0..4u64 {
        let spec = CircuitSpec::new(format!("qg{seed}"), 5, 4, 6, 70, 9300 + seed);
        let c = generate(&spec);
        let patterns = hold_patterns(&c, 12, 6, 31 + seed);
        skips += check_stuck_gated(&c, &patterns);
    }
    assert!(skips > 0, "the gate never engaged on the hold stimulus");
}

#[test]
fn stuck_gated_matches_ungated_on_a_benchmark() {
    let c = cfs_netlist::generate::benchmark("s298g").expect("known benchmark");
    let patterns = hold_patterns(&c, 16, 8, 0x1992);
    let skips = check_stuck_gated(&c, &patterns);
    assert!(skips > 0, "the gate never engaged on s298g");
}

#[test]
fn transition_gated_matches_ungated() {
    let mut skips = 0;
    for seed in 0..3u64 {
        let spec = CircuitSpec::new(format!("qgt{seed}"), 4, 3, 5, 60, 7300 + seed);
        let c = generate(&spec);
        let patterns = hold_patterns(&c, 10, 6, 77 + seed);
        skips += check_transition_gated(&c, &patterns);
    }
    let c = cfs_netlist::generate::benchmark("s298g").expect("known benchmark");
    skips += check_transition_gated(&c, &hold_patterns(&c, 12, 8, 0xDAC));
    assert!(skips > 0, "the transition gate never engaged");
}

/// Gating composes with fault sharding, including more shards than
/// workers. The gated sharded runs must match the ungated serial
/// reference bit for bit.
#[test]
fn gated_matches_under_sharding() {
    let c = cfs_netlist::generate::benchmark("s298g").expect("known benchmark");
    let patterns = hold_patterns(&c, 12, 8, 0x41);
    let stuck = collapse_stuck_at(&c).representatives;
    let variant = CsimVariant::Mv;
    let stuck_ref = ConcurrentSim::new(&c, &stuck, variant.options())
        .run(&patterns)
        .statuses;
    let transition = enumerate_transition(&c);
    let transition_ref = TransitionSim::new(&c, &transition, TransitionOptions::default())
        .run(&patterns)
        .statuses;
    for (threads, shards) in [(2usize, 2usize), (4, 4), (2, 5)] {
        let mut par = ConcurrentSim::with_probes_sharded(
            &c,
            &stuck,
            gated(variant, 4),
            threads,
            shards,
            ShardPlan::RoundRobin,
            None,
            |_| NullProbe,
        );
        let report = par.run(&patterns);
        assert_eq!(
            report.statuses, stuck_ref,
            "stuck gated threads={threads} shards={shards}"
        );
        let mut tpar = TransitionSim::with_probes_sharded(
            &c,
            &transition,
            gated_transition(4),
            threads,
            shards,
            ShardPlan::RoundRobin,
            None,
            |_| NullProbe,
        );
        let treport = tpar.run(&patterns);
        assert_eq!(
            treport.statuses, transition_ref,
            "transition gated threads={threads} shards={shards}"
        );
    }
}

/// A fault whose excitation arrives only long after the circuit went
/// dormant must still be detected, at the exact ungated pattern. The
/// stimulus holds one pattern for 40 cycles (dormancy streak ≫ every
/// window under test), then sweeps the whole 4-bit input space — so some
/// fault is necessarily detected first in the late phase.
#[test]
fn long_dormant_fault_still_detected_after_wake() {
    let c = cfs_netlist::data::s27();
    let n = c.num_inputs();
    let mut patterns = vec![vec![Logic::Zero; n]; 40];
    for bits in 0..(1u32 << n) {
        let p: Vec<Logic> = (0..n)
            .map(|i| Logic::from_bool(bits >> i & 1 == 1))
            .collect();
        for _ in 0..8 {
            patterns.push(p.clone());
        }
    }
    let faults = collapse_stuck_at(&c).representatives;
    let reference = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options())
        .run(&patterns)
        .statuses;
    let late = reference
        .iter()
        .filter(|s| matches!(s, FaultStatus::Detected { pattern } if *pattern >= 40))
        .count();
    assert!(
        late > 0,
        "fixture is vacuous: no detection after the quiet span"
    );
    for window in [1u32, 2, 8] {
        let mut sim = ConcurrentSim::new(&c, &faults, gated(CsimVariant::Mv, window));
        let report = sim.run(&patterns);
        assert_eq!(report.statuses, reference, "gated window={window}");
        assert!(
            sim.quiesce_skips() > 0,
            "window={window}: nothing went dormant during the 40-cycle hold"
        );
        assert!(
            sim.quiesce_wakes() > 0,
            "window={window}: the input-space sweep never woke a dormant node"
        );
    }
}

proptest! {
    /// Killing a stuck-at run at a random pattern boundary, serializing
    /// the checkpoint to bytes, and resuming in a fresh simulator
    /// reproduces the cold run exactly — statuses and event counters —
    /// for random gating windows and stimulus seeds.
    #[test]
    fn stuck_resume_at_random_checkpoint_matches_cold(
        seed in 0u64..500,
        cut in 1usize..63,
        window in 0u32..6,
    ) {
        let c = cfs_netlist::data::s27();
        let patterns = hold_patterns(&c, 16, 4, seed);
        let faults = collapse_stuck_at(&c).representatives;
        let options = gated(CsimVariant::Mv, window);
        let mut cold = ConcurrentSim::new(&c, &faults, options.clone());
        let cold_report = cold.run(&patterns);

        let mut first = ConcurrentSim::new(&c, &faults, options.clone());
        for p in &patterns[..cut] {
            first.step(p);
        }
        let bytes = first.checkpoint().to_bytes();
        drop(first);

        let restored = Checkpoint::from_bytes(&bytes).expect("round trip");
        let mut second = ConcurrentSim::new(&c, &faults, options);
        second.restore(&restored).expect("restore");
        for p in &patterns[cut..] {
            second.step(p);
        }
        prop_assert_eq!(second.statuses(), cold_report.statuses);
        prop_assert_eq!(second.events(), cold.events());
        prop_assert_eq!(second.fault_evaluations(), cold.fault_evaluations());
        prop_assert_eq!(second.peak_elements(), cold.peak_elements());
    }

    /// The same property for the transition engine, whose checkpoint
    /// additionally carries the previous-pattern pin values.
    #[test]
    fn transition_resume_at_random_checkpoint_matches_cold(
        seed in 0u64..500,
        cut in 1usize..47,
        window in 0u32..6,
    ) {
        let c = cfs_netlist::data::s27();
        let patterns = hold_patterns(&c, 12, 4, seed ^ 0xD5);
        let faults = enumerate_transition(&c);
        let options = gated_transition(window);
        let mut cold = TransitionSim::new(&c, &faults, options.clone());
        let cold_report = cold.run(&patterns);

        let mut first = TransitionSim::new(&c, &faults, options.clone());
        for p in &patterns[..cut] {
            first.step(p);
        }
        let bytes = first.checkpoint().to_bytes();
        drop(first);

        let restored = Checkpoint::from_bytes(&bytes).expect("round trip");
        let mut second = TransitionSim::new(&c, &faults, options);
        second.restore(&restored).expect("restore");
        for p in &patterns[cut..] {
            second.step(p);
        }
        prop_assert_eq!(second.statuses(), cold_report.statuses);
        prop_assert_eq!(second.events(), cold.events());
        prop_assert_eq!(second.fault_evaluations(), cold.fault_evaluations());
    }
}
