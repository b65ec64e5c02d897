//! Arbitrary-delay simulation: the mode concurrent simulation is prized
//! for in industry (§1 of the paper). Shows a static hazard producing a
//! glitch that zero-delay simulation cannot see, and clocked operation of
//! a sequential circuit under per-gate delays.
//!
//! ```text
//! cargo run --example delay_simulation
//! ```

use cfs::goodsim::{DelayModel, DelaySim};
use cfs::logic::{parse_pattern, Logic};
use cfs::netlist::{data::s27, parse_bench};

fn main() {
    hazard_demo();
    clocked_demo();
}

/// y = OR(a, NOT(a)) is constant 1 in zero-delay logic, but a slow inverter
/// exposes a 0-glitch on the falling edge of `a`.
fn hazard_demo() {
    println!("— static-1 hazard under arbitrary delays —");
    let c = parse_bench("hz", "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n")
        .expect("hazard netlist");
    let delays = DelayModel::from_fn(&c, |id| if c.gate(id).name() == "n" { 5 } else { 1 });
    let mut sim = DelaySim::new(&c, delays);
    let y = c.find("y").expect("signal y");

    sim.set_input(0, Logic::One);
    sim.run_until_quiet(100).expect("settles");
    let before = sim.transitions(y);
    sim.set_input(0, Logic::Zero);
    sim.run_until_quiet(100).expect("settles");
    println!(
        "  falling edge on a: y made {} transitions (glitch!), final value {}",
        sim.transitions(y) - before,
        sim.value(y)
    );
}

/// Clocked operation of s27 with unit delays.
fn clocked_demo() {
    println!("— clocked s27 under unit delays —");
    let c = s27();
    let mut dsim = DelaySim::new(&c, DelayModel::unit(&c));
    let sequence = ["0000", "1111", "0101", "0011"];
    for (t, pat) in sequence.iter().enumerate() {
        let p = parse_pattern(pat).expect("pattern");
        // Apply inputs, let the network settle, sample, then clock the
        // flip-flops.
        dsim.set_inputs(&p);
        let settled_at = dsim.run_until_quiet(1_000).expect("settles");
        let dout = dsim.value(c.outputs()[0]);
        dsim.clock();
        dsim.run_until_quiet(1_000).expect("clock-to-q settles");
        println!("  cycle {t}: inputs {pat} → PO {dout} (settled t={settled_at})");
    }
    println!("  events processed by the delay simulator: {}", dsim.events);
}
