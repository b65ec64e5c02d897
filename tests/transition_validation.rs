//! Cross-validation of the concurrent transition fault simulator against
//! the serial transition reference.

use cfs_baselines::SerialTransitionSim;
use cfs_core::{TransitionOptions, TransitionSim};
use cfs_faults::{enumerate_transition, Edge, TransitionFault};
use cfs_logic::Logic;
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::{data::s27, parse_bench, Circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn cross_validate(circuit: &Circuit, patterns: &[Vec<Logic>]) {
    let faults = enumerate_transition(circuit);
    let reference = SerialTransitionSim::new(circuit, &faults).run(patterns);
    for split in [false, true] {
        let mut sim = TransitionSim::new(
            circuit,
            &faults,
            TransitionOptions {
                split_invisible: split,
                drop_detected: true,
                quiesce_window: 0,
            },
        );
        let report = sim.run(patterns);
        for (i, (a, b)) in reference.statuses.iter().zip(&report.statuses).enumerate() {
            assert_eq!(
                a,
                b,
                "split={split} {}: fault {i} ({})",
                circuit.name(),
                faults[i].describe(circuit)
            );
        }
    }
}

#[test]
fn s27_transition_agrees_with_serial() {
    let c = s27();
    let patterns = random_patterns(&c, 60, 0xD00D);
    cross_validate(&c, &patterns);
}

#[test]
fn generated_circuits_transition_agree() {
    for seed in 0..5 {
        let spec = CircuitSpec::new(format!("tv{seed}"), 5, 4, 5, 55, 5000 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 40, seed * 13 + 1);
        cross_validate(&c, &patterns);
    }
}

#[test]
fn transition_with_x_patterns_agrees() {
    let spec = CircuitSpec::new("tvx", 4, 3, 4, 40, 8888);
    let c = generate(&spec);
    let mut rng = StdRng::seed_from_u64(3);
    let patterns: Vec<Vec<Logic>> = (0..30)
        .map(|_| {
            (0..c.num_inputs())
                .map(|_| match rng.gen_range(0..8) {
                    0 => Logic::X,
                    k => Logic::from_bool(k % 2 == 0),
                })
                .collect()
        })
        .collect();
    cross_validate(&c, &patterns);
}

#[test]
fn figure4_concurrent_detects_like_the_paper() {
    // Figure 4's qualitative behaviour through the concurrent simulator: a
    // slow-to-rise fault at an AND input caught by a 0→1 sequence with the
    // other side sensitized through a flip-flop.
    let c = parse_bench(
        "fig4",
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(b)\ny = AND(a, q)\n",
    )
    .unwrap();
    let y = c.find("y").unwrap();
    let fault = TransitionFault::new(y, 0, Edge::Rise);
    let mut sim = TransitionSim::new(&c, &[fault], TransitionOptions::default());
    assert!(sim
        .step(&[Logic::Zero, Logic::One])
        .new_detections
        .is_empty());
    let det = sim.step(&[Logic::One, Logic::One]).new_detections;
    assert_eq!(det, vec![0], "held 0 at the sensitized AND input");
}

#[test]
fn transition_coverage_of_toggling_vs_constant_patterns() {
    // Constant patterns create no transitions: nothing can be detected.
    let c = s27();
    let faults = enumerate_transition(&c);
    let constant = vec![vec![Logic::One; 4]; 10];
    let mut sim = TransitionSim::new(&c, &faults, TransitionOptions::default());
    let r = sim.run(&constant);
    assert_eq!(r.detected(), 0, "no transitions, no detections");

    let toggling: Vec<Vec<Logic>> = (0..10)
        .map(|i| vec![Logic::from_bool(i % 2 == 0); 4])
        .collect();
    let mut sim = TransitionSim::new(&c, &faults, TransitionOptions::default());
    let r = sim.run(&toggling);
    assert!(r.detected() > 0, "toggling inputs exercise transitions");
}
