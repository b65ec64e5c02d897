//! Zero-delay simulation of the fault-free machine.
//!
//! §2.1 of the paper: for synchronous circuits "only the second phase is
//! necessary since the evaluated value can be assigned directly on the
//! output as long as the gate evaluation is done orderly according to its
//! level". [`FullSim`] is the plainest form of that model: every gate is
//! evaluated in level order every cycle.

use cfs_logic::Logic;
use cfs_netlist::{Circuit, GateId};

/// One clock cycle's primary-input assignment.
pub type Pattern = Vec<Logic>;

/// Oracle-grade full simulation: re-evaluates every gate every cycle in
/// level order, with no event-driven shortcuts. Used as the good-machine
/// oracle by the delay simulator, ATPG unrolling and serial fault
/// simulation tests.
#[derive(Debug, Clone)]
pub struct FullSim<'c> {
    circuit: &'c Circuit,
    values: Vec<Logic>,
}

impl<'c> FullSim<'c> {
    /// Creates a full simulator with all state at `X`.
    pub fn new(circuit: &'c Circuit) -> Self {
        FullSim {
            circuit,
            values: vec![Logic::X; circuit.num_nodes()],
        }
    }

    /// Node values after the last step.
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// Forces the flip-flop state.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the flip-flop count.
    pub fn set_state(&mut self, state: &[Logic]) {
        assert_eq!(state.len(), self.circuit.num_dffs());
        for (&q, &v) in self.circuit.dffs().iter().zip(state) {
            self.values[q.index()] = v;
        }
    }

    /// Simulates one clock cycle.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn step(&mut self, inputs: &[Logic]) -> Vec<Logic> {
        assert_eq!(inputs.len(), self.circuit.num_inputs());
        for (&pi, &v) in self.circuit.inputs().iter().zip(inputs) {
            self.values[pi.index()] = v;
        }
        let mut scratch = Vec::new();
        for &id in self.circuit.topo_order() {
            let gate = self.circuit.gate(id);
            scratch.clear();
            for &src in gate.fanin() {
                scratch.push(self.values[src.index()]);
            }
            let f = gate.kind().gate_fn().expect("topo order holds gates");
            self.values[id.index()] = f.eval(&scratch);
        }
        let outputs: Vec<Logic> = self
            .circuit
            .outputs()
            .iter()
            .map(|&po| self.values[po.index()])
            .collect();
        let updates: Vec<(GateId, Logic)> = self
            .circuit
            .dffs()
            .iter()
            .map(|&q| (q, self.values[self.circuit.gate(q).fanin()[0].index()]))
            .collect();
        for (q, v) in updates {
            self.values[q.index()] = v;
        }
        outputs
    }

    /// Simulates a sequence of patterns.
    pub fn run(&mut self, patterns: &[Pattern]) -> Vec<Vec<Logic>> {
        patterns.iter().map(|p| self.step(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_logic::parse_pattern;
    use cfs_netlist::data::s27;

    #[test]
    fn s27_initializes_from_x() {
        // With all-X state, the first pattern often yields X; after an
        // initializing sequence outputs become binary.
        let c = s27();
        let mut sim = FullSim::new(&c);
        let seq = ["0000", "1111", "0000", "1010", "0101"];
        let mut last = Vec::new();
        for p in seq {
            last = sim.step(&parse_pattern(p).unwrap());
        }
        assert!(last[0].is_binary(), "s27 initializes quickly: {last:?}");
    }
}
