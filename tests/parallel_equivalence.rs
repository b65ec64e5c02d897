//! Differential equivalence: the fault-sharded parallel simulators must be
//! byte-identical to the serial engines — same per-fault statuses (exact,
//! including detection pattern indices and untestability) and the same
//! sorted detection list — for every thread count, shard plan, csim
//! variant, and both fault models, on randomly generated netlists, with
//! more shards than workers, over many good-trace blocks, and with and
//! without static pruning.
//!
//! Also property-tests the [`ShardPlan`] partition invariant (every fault
//! in exactly one shard), pins the deterministic merge order, and keeps an
//! adversarial partition — one giant shard plus empties and singletons —
//! as a regression fixture.

use proptest::prelude::*;

use cfs_check::{analyze_circuit, prune_stuck_at, prune_transition};
use cfs_core::{
    detections_of, ConcurrentSim, CsimVariant, NullProbe, ShardPlan, TransitionOptions,
    TransitionSim,
};
use cfs_faults::{
    collapse_stuck_at, enumerate_stuck_at, enumerate_transition, FaultStatus, PrunedUniverse,
};
use cfs_logic::Logic;
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn random_patterns(circuit: &Circuit, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..circuit.num_inputs())
                .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// Serial vs. sharded stuck-at runs on one circuit: statuses and the
/// derived detection list must match exactly.
fn check_stuck_equivalence(circuit: &Circuit, patterns: &[Vec<Logic>], plan: ShardPlan) {
    let faults = collapse_stuck_at(circuit).representatives;
    for variant in CsimVariant::ALL {
        let mut serial = ConcurrentSim::new(circuit, &faults, variant.options());
        let reference = serial.run(patterns);
        let ref_detections = detections_of(&reference.statuses);
        for threads in THREAD_COUNTS {
            let mut par =
                ConcurrentSim::sharded(circuit, &faults, variant.options(), threads, plan);
            let report = par.run(patterns);
            assert_eq!(
                report.statuses,
                reference.statuses,
                "{}: {variant} threads={threads} plan={plan}",
                circuit.name()
            );
            assert_eq!(
                par.detections(),
                ref_detections,
                "{}: {variant} threads={threads} plan={plan}",
                circuit.name()
            );
        }
    }
}

/// Serial vs. sharded transition runs on one circuit.
fn check_transition_equivalence(circuit: &Circuit, patterns: &[Vec<Logic>], plan: ShardPlan) {
    let faults = enumerate_transition(circuit);
    let mut serial = TransitionSim::new(circuit, &faults, TransitionOptions::default());
    let reference = serial.run(patterns);
    for threads in THREAD_COUNTS {
        let mut par = TransitionSim::sharded(
            circuit,
            &faults,
            TransitionOptions::default(),
            threads,
            plan,
        );
        let report = par.run(patterns);
        assert_eq!(
            report.statuses,
            reference.statuses,
            "{}: transition threads={threads} plan={plan}",
            circuit.name()
        );
    }
}

#[test]
fn stuck_at_parallel_matches_serial_on_random_netlists() {
    for seed in 0..4u64 {
        let spec = CircuitSpec::new(format!("pe{seed}"), 5, 4, 6, 70, 9000 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 40, seed ^ 0xC0FFEE);
        let plan = ShardPlan::ALL[seed as usize % ShardPlan::ALL.len()];
        check_stuck_equivalence(&c, &patterns, plan);
    }
}

#[test]
fn transition_parallel_matches_serial_on_random_netlists() {
    for seed in 0..4u64 {
        let spec = CircuitSpec::new(format!("pet{seed}"), 4, 3, 5, 60, 7000 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 40, seed ^ 0xDEC0DE);
        let plan = ShardPlan::ALL[seed as usize % ShardPlan::ALL.len()];
        check_transition_equivalence(&c, &patterns, plan);
    }
}

#[test]
fn all_plans_agree_on_a_benchmark_circuit() {
    let c = cfs_netlist::generate::benchmark("s526g").expect("known benchmark");
    let patterns = random_patterns(&c, 60, 0x5EED);
    for plan in ShardPlan::ALL {
        check_stuck_equivalence(&c, &patterns, plan);
    }
}

/// Oversharding (more shards than workers, never a multiple) through
/// `with_probes_sharded`: worker `w` owns shards `w, w + threads, …`, and
/// every variant stays serial-identical.
fn check_stuck_oversharded(c: &Circuit, patterns: &[Vec<Logic>]) {
    let faults = collapse_stuck_at(c).representatives;
    for variant in CsimVariant::ALL {
        let reference = ConcurrentSim::new(c, &faults, variant.options()).run(patterns);
        for threads in THREAD_COUNTS {
            let shards = threads * 2 - 1;
            let mut par = ConcurrentSim::with_probes_sharded(
                c,
                &faults,
                variant.options(),
                threads,
                shards,
                ShardPlan::RoundRobin,
                None,
                |_| NullProbe,
            );
            assert_eq!(par.num_shards(), shards);
            let report = par.run(patterns);
            assert_eq!(
                report.statuses,
                reference.statuses,
                "{}: {variant} threads={threads} shards={shards}",
                c.name()
            );
            assert_eq!(
                par.detections(),
                detections_of(&reference.statuses),
                "{}: {variant} threads={threads} shards={shards}",
                c.name()
            );
        }
    }
}

#[test]
fn stuck_at_sharded_matches_serial_on_a_benchmark() {
    let c = cfs_netlist::generate::benchmark("s298g").expect("known benchmark");
    let patterns = random_patterns(&c, 48, 0x5EED);
    check_stuck_oversharded(&c, &patterns);
}

/// The stuck-at model under oversharding, on random netlists.
#[test]
fn stuck_at_oversharded_matches_serial_on_random_netlists() {
    for seed in 0..2u64 {
        let spec = CircuitSpec::new(format!("be{seed}"), 5, 4, 6, 70, 9100 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 48, seed ^ 0xBA7C4);
        check_stuck_oversharded(&c, &patterns);
    }
}

/// The transition model under oversharding, on random netlists.
#[test]
fn transition_oversharded_matches_serial_on_random_netlists() {
    for seed in 0..2u64 {
        let spec = CircuitSpec::new(format!("bet{seed}"), 4, 3, 5, 60, 7100 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 48, seed ^ 0xBA7C5);
        let faults = enumerate_transition(&c);
        let reference =
            TransitionSim::new(&c, &faults, TransitionOptions::default()).run(&patterns);
        for threads in THREAD_COUNTS {
            let shards = threads * 2 - 1;
            let mut par = TransitionSim::with_probes_sharded(
                &c,
                &faults,
                TransitionOptions::default(),
                threads,
                shards,
                ShardPlan::RoundRobin,
                None,
                |_| NullProbe,
            );
            let report = par.run(&patterns);
            assert_eq!(
                report.statuses,
                reference.statuses,
                "{}: transition threads={threads} shards={shards}",
                c.name()
            );
        }
    }
}

/// Runs far longer than one good-trace block, so the coordinator fills
/// every worker's bounded channel and blocks on it: statuses stay
/// serial-identical for plain and oversharded dispatch.
#[test]
fn multi_block_runs_match_serial() {
    let spec = CircuitSpec::new("mb0", 5, 4, 6, 70, 9300);
    let c = generate(&spec);
    let faults = collapse_stuck_at(&c).representatives;
    let patterns = random_patterns(&c, 1000, 0xB10C);
    let reference = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options()).run(&patterns);
    for (threads, shards) in [(2, 2), (3, 5), (2, 7)] {
        let mut par = ConcurrentSim::with_probes_sharded(
            &c,
            &faults,
            CsimVariant::Mv.options(),
            threads,
            shards,
            ShardPlan::RoundRobin,
            None,
            |_| NullProbe,
        );
        let report = par.run(&patterns);
        assert_eq!(
            report.statuses, reference.statuses,
            "threads={threads} shards={shards}"
        );
    }
}

/// The `--prune` analogue: sharded runs over the statically pruned
/// universe, expanded back, must tell the same detection story as a full
/// uncollapsed serial run. Detected entries must match exactly; pruned
/// faults may report `Untestable` where the reference says `Undetected`.
fn assert_detection_equivalence(
    reference: &[FaultStatus],
    expanded: &[FaultStatus],
    context: &str,
) {
    assert_eq!(reference.len(), expanded.len(), "{context}: universe size");
    for (i, (r, e)) in reference.iter().zip(expanded).enumerate() {
        match (r, e) {
            (FaultStatus::Detected { pattern: a }, FaultStatus::Detected { pattern: b }) => {
                assert_eq!(a, b, "{context}: fault {i} first-detection pattern")
            }
            (FaultStatus::Detected { .. }, other) => {
                panic!("{context}: fault {i} detected in full run but {other:?} after pruning")
            }
            (other, FaultStatus::Detected { .. }) => {
                panic!("{context}: fault {i} {other:?} in full run but detected after pruning")
            }
            _ => {}
        }
    }
    assert_eq!(
        detections_of(reference),
        detections_of(expanded),
        "{context}: detection lists"
    );
}

#[test]
fn pruned_sharded_stuck_matches_full_serial() {
    let spec = CircuitSpec::new("bep0", 5, 4, 6, 70, 9200);
    let c = generate(&spec);
    let patterns = random_patterns(&c, 48, 0xBA7C6);
    let full = enumerate_stuck_at(&c);
    let analysis = analyze_circuit(&c);
    let pruned: PrunedUniverse<_> = prune_stuck_at(&c, &analysis);
    pruned.validate().expect("pruned universe invariants");
    for variant in CsimVariant::ALL {
        let reference = ConcurrentSim::new(&c, &full, variant.options()).run(&patterns);
        for threads in [2, 7] {
            let mut par = ConcurrentSim::sharded(
                &c,
                &pruned.sim,
                variant.options(),
                threads,
                ShardPlan::RoundRobin,
            );
            let report = par.run(&patterns);
            let expanded = pruned.expand_statuses(&report.statuses);
            assert_detection_equivalence(
                &reference.statuses,
                &expanded,
                &format!("{variant} threads={threads}"),
            );
        }
    }
}

#[test]
fn pruned_sharded_transition_matches_full_serial() {
    let spec = CircuitSpec::new("bept0", 4, 3, 5, 60, 7200);
    let c = generate(&spec);
    let patterns = random_patterns(&c, 48, 0xBA7C7);
    let full = enumerate_transition(&c);
    let analysis = analyze_circuit(&c);
    let pruned: PrunedUniverse<_> = prune_transition(&c, &analysis);
    pruned.validate().expect("pruned universe invariants");
    let reference = TransitionSim::new(&c, &full, TransitionOptions::default()).run(&patterns);
    for threads in [2, 7] {
        let mut par = TransitionSim::sharded(
            &c,
            &pruned.sim,
            TransitionOptions::default(),
            threads,
            ShardPlan::RoundRobin,
        );
        let report = par.run(&patterns);
        let expanded = pruned.expand_statuses(&report.statuses);
        assert_detection_equivalence(
            &reference.statuses,
            &expanded,
            &format!("transition threads={threads}"),
        );
    }
}

/// Regression fixture: an adversarial partition no [`ShardPlan`] would
/// produce — one giant shard holding nearly everything, plus empties and
/// singletons. The giant shard is the permanent long pole and some
/// workers own only empty shards; the run must terminate and stay
/// serial-identical.
#[test]
fn adversarial_giant_shard_partition_is_serial_identical() {
    let c = cfs_netlist::generate::benchmark("s298g").expect("known benchmark");
    let faults = collapse_stuck_at(&c).representatives;
    let n = faults.len();
    assert!(n > 8, "fixture needs a non-trivial universe");
    let patterns = random_patterns(&c, 32, 0xADE);
    let options = CsimVariant::Mv.options();
    let reference = ConcurrentSim::new(&c, &faults, options.clone()).run(&patterns);
    // Shard 0: everything but the last three faults. Then two empties,
    // three singletons, and another empty — an exact cover of 0..n.
    let parts: Vec<Vec<usize>> = vec![
        (0..n - 3).collect(),
        Vec::new(),
        Vec::new(),
        vec![n - 3],
        vec![n - 2],
        vec![n - 1],
        Vec::new(),
    ];
    for threads in [2, 4] {
        let mut par = ConcurrentSim::with_partition(
            &c,
            &faults,
            options.clone(),
            threads,
            parts.clone(),
            |_| NullProbe,
        );
        let report = par.run(&patterns);
        assert_eq!(
            report.statuses, reference.statuses,
            "adversarial partition threads={threads}"
        );
        assert_eq!(
            par.detections(),
            detections_of(&reference.statuses),
            "adversarial partition threads={threads}"
        );
    }
}

/// Pins the merge order: detections come out sorted by pattern first, then
/// by global fault index, with ties broken deterministically — the
/// contract the CLI `--detections` dump and any downstream diffing rely
/// on.
#[test]
fn merge_order_regression() {
    let statuses = vec![
        FaultStatus::Detected { pattern: 9 },  // fault 0
        FaultStatus::Untestable,               // fault 1
        FaultStatus::Detected { pattern: 2 },  // fault 2
        FaultStatus::Undetected,               // fault 3
        FaultStatus::Detected { pattern: 2 },  // fault 4
        FaultStatus::Detected { pattern: 0 },  // fault 5
        FaultStatus::Detected { pattern: 11 }, // fault 6
        FaultStatus::Detected { pattern: 2 },  // fault 7
    ];
    assert_eq!(
        detections_of(&statuses),
        vec![(5, 0), (2, 2), (4, 2), (7, 2), (0, 9), (6, 11)],
        "detections must be sorted by (pattern, fault id)"
    );
    // And the list is a pure function of the statuses: permutation-proof
    // by construction, so recomputing yields the identical vector.
    assert_eq!(detections_of(&statuses), detections_of(&statuses));
}

/// The parallel report is stable run-to-run (thread scheduling must not
/// leak into results): two 4-thread runs produce identical statuses.
#[test]
fn parallel_runs_are_reproducible() {
    let c = cfs_netlist::generate::benchmark("s641g").expect("known benchmark");
    let faults = collapse_stuck_at(&c).representatives;
    let patterns = random_patterns(&c, 50, 0xAB1E);
    let run = |plan| {
        let mut sim = ConcurrentSim::sharded(&c, &faults, CsimVariant::Mv.options(), 4, plan);
        sim.run(&patterns).statuses
    };
    for plan in ShardPlan::ALL {
        assert_eq!(run(plan), run(plan), "{plan}");
    }
    // Different plans also agree with each other.
    assert_eq!(run(ShardPlan::RoundRobin), run(ShardPlan::Contiguous));
    assert_eq!(run(ShardPlan::RoundRobin), run(ShardPlan::LevelAware));
}

fn arb_plan() -> impl Strategy<Value = ShardPlan> {
    prop_oneof![
        Just(ShardPlan::RoundRobin),
        Just(ShardPlan::Contiguous),
        Just(ShardPlan::LevelAware),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every shard plan is an exact cover of the fault list: no fault is
    /// lost, none is duplicated, and shard-local order stays ascending so
    /// local fault ids map monotonically to global indices.
    #[test]
    fn shard_partition_is_an_exact_cover(
        plan in arb_plan(),
        levels in prop::collection::vec(0u32..64, 0..200),
        shards in 1usize..12,
    ) {
        let parts = plan.partition(&levels, shards);
        prop_assert_eq!(parts.len(), shards);
        let mut seen = vec![false; levels.len()];
        for part in &parts {
            prop_assert!(
                part.windows(2).all(|w| w[0] < w[1]),
                "shard indices must be strictly ascending"
            );
            for &i in part {
                prop_assert!(i < levels.len(), "index out of range");
                prop_assert!(!seen[i], "fault {} appears in two shards", i);
                seen[i] = true;
            }
        }
        for (i, s) in seen.iter().enumerate() {
            prop_assert!(*s, "fault {} lost by {}", i, plan);
        }
    }

    /// Shard sizes stay balanced: the largest and smallest shard differ by
    /// at most one fault for round-robin, contiguous, and level-aware
    /// dealing.
    #[test]
    fn shard_partition_is_balanced(
        plan in arb_plan(),
        levels in prop::collection::vec(0u32..64, 1..200),
        shards in 1usize..12,
    ) {
        let parts = plan.partition(&levels, shards);
        let min = parts.iter().map(Vec::len).min().unwrap();
        let max = parts.iter().map(Vec::len).max().unwrap();
        prop_assert!(max - min <= 1, "{}: sizes {} .. {}", plan, min, max);
    }

    /// `detections_of` output is sorted by (pattern, fault) and contains
    /// exactly the detected faults.
    #[test]
    fn detections_are_sorted_and_complete(
        statuses in prop::collection::vec(
            prop_oneof![
                Just(FaultStatus::Undetected),
                Just(FaultStatus::Untestable),
                (0usize..50).prop_map(|pattern| FaultStatus::Detected { pattern }),
            ],
            0..120,
        ),
    ) {
        let dets = detections_of(&statuses);
        prop_assert!(dets.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
        prop_assert_eq!(
            dets.len(),
            statuses.iter().filter(|s| s.is_detected()).count()
        );
        for (fault, pattern) in dets {
            prop_assert_eq!(
                statuses[fault as usize],
                FaultStatus::Detected { pattern: pattern as usize }
            );
        }
    }
}
