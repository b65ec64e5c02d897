//! Arbitrary-delay event-driven simulation with a timing wheel.
//!
//! Concurrent fault simulation's industrial appeal (§1 of the paper) is its
//! "flexibility to allow arbitrary delay fault simulation (i.e., the circuit
//! gates may have arbitrary but known propagation delays)". This module
//! provides the fault-free arbitrary-delay substrate: a two-phase
//! event-driven simulator with per-gate transport delays and a timing-wheel
//! scheduler, exactly the structure §2 describes for the general case
//! (phase 1 assigns matured output values; phase 2 evaluates fanouts and
//! posts new events).

use std::collections::BTreeMap;

use cfs_logic::Logic;
use cfs_netlist::{Circuit, GateId};

/// Per-gate propagation delays (simulation time units).
///
/// Primary inputs and flip-flop clock-to-Q delays are also representable;
/// a delay of zero is legal (the event matures in the current time step).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayModel {
    delays: Vec<u32>,
}

impl DelayModel {
    /// Unit delay for every node.
    pub fn unit(circuit: &Circuit) -> Self {
        DelayModel {
            delays: vec![1; circuit.num_nodes()],
        }
    }

    /// Arbitrary delays computed per node.
    pub fn from_fn(circuit: &Circuit, mut f: impl FnMut(GateId) -> u32) -> Self {
        DelayModel {
            delays: (0..circuit.num_nodes())
                .map(|i| f(GateId::from_index(i)))
                .collect(),
        }
    }

    /// The delay of one node.
    #[inline]
    pub fn of(&self, id: GateId) -> u32 {
        self.delays[id.index()]
    }

    /// The largest delay in the model.
    pub fn max_delay(&self) -> u32 {
        self.delays.iter().copied().max().unwrap_or(0)
    }
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: u64,
    gate: GateId,
    value: Logic,
}

/// A timing wheel: O(1) insertion and in-order retrieval of events within a
/// horizon, with an overflow map for events beyond it.
#[derive(Debug)]
struct TimingWheel {
    slots: Vec<Vec<Event>>,
    overflow: BTreeMap<u64, Vec<Event>>,
    now: u64,
    len: usize,
}

impl TimingWheel {
    fn new(horizon: usize) -> Self {
        let size = horizon.next_power_of_two().max(8);
        TimingWheel {
            slots: (0..size).map(|_| Vec::new()).collect(),
            overflow: BTreeMap::new(),
            now: 0,
            len: 0,
        }
    }

    fn schedule(&mut self, ev: Event) {
        debug_assert!(ev.time >= self.now);
        self.len += 1;
        if (ev.time - self.now) < self.slots.len() as u64 {
            let idx = (ev.time as usize) & (self.slots.len() - 1);
            self.slots[idx].push(ev);
        } else {
            self.overflow.entry(ev.time).or_default().push(ev);
        }
    }

    /// Pops all events maturing exactly at the wheel's current time, then
    /// advances to the next nonempty time. Returns `None` when empty.
    fn next_batch(&mut self) -> Option<(u64, Vec<Event>)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let idx = (self.now as usize) & (self.slots.len() - 1);
            // Pull in overflow events that are now within the horizon.
            let horizon_end = self.now + self.slots.len() as u64;
            let near: Vec<u64> = self
                .overflow
                .range(..horizon_end)
                .map(|(&t, _)| t)
                .collect();
            for t in near {
                if let Some(evs) = self.overflow.remove(&t) {
                    for ev in evs {
                        let i = (ev.time as usize) & (self.slots.len() - 1);
                        self.slots[i].push(ev);
                    }
                }
            }
            let matured: Vec<Event> = {
                let slot = &mut self.slots[idx];
                let (now_evs, later): (Vec<Event>, Vec<Event>) =
                    slot.drain(..).partition(|e| e.time == self.now);
                *slot = later;
                now_evs
            };
            if !matured.is_empty() {
                self.len -= matured.len();
                let t = self.now;
                return Some((t, matured));
            }
            self.now += 1;
            if self.len == 0 {
                return None;
            }
        }
    }
}

/// Arbitrary-delay good-machine simulator (transport delay semantics).
///
/// Drive it by calling [`DelaySim::set_input`] and then advancing time with
/// [`DelaySim::run_until_quiet`] or [`DelaySim::advance_to`]; clock the
/// flip-flops explicitly with [`DelaySim::clock`].
///
/// # Examples
///
/// ```
/// use cfs_goodsim::{DelayModel, DelaySim};
/// use cfs_logic::Logic;
/// use cfs_netlist::parse_bench;
///
/// let c = parse_bench("buf2", "INPUT(a)\nOUTPUT(y)\nm = BUF(a)\ny = BUF(m)\n")?;
/// let delays = DelayModel::unit(&c);
/// let mut sim = DelaySim::new(&c, delays);
/// sim.set_input(0, Logic::One);
/// let settled_at = sim.run_until_quiet(100).expect("settles");
/// assert_eq!(settled_at, 2); // two unit-delay buffers
/// # Ok::<(), cfs_netlist::ParseBenchError>(())
/// ```
#[derive(Debug)]
pub struct DelaySim<'c> {
    circuit: &'c Circuit,
    delays: DelayModel,
    values: Vec<Logic>,
    wheel: TimingWheel,
    /// Output transition count per node (glitches included).
    transitions: Vec<u64>,
    /// Events processed.
    pub events: u64,
    scratch: Vec<Logic>,
}

impl<'c> DelaySim<'c> {
    /// Creates a simulator with all values at `X` and time 0.
    pub fn new(circuit: &'c Circuit, delays: DelayModel) -> Self {
        let horizon = (delays.max_delay() as usize + 1) * 4;
        DelaySim {
            circuit,
            delays,
            values: vec![Logic::X; circuit.num_nodes()],
            wheel: TimingWheel::new(horizon),
            transitions: vec![0; circuit.num_nodes()],
            events: 0,
            scratch: Vec::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.wheel.now
    }

    /// Current node values.
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// Value of one node.
    pub fn value(&self, id: GateId) -> Logic {
        self.values[id.index()]
    }

    /// Number of output transitions each node has made (hazard/glitch
    /// analysis: compare against the zero-delay change count).
    pub fn transitions(&self, id: GateId) -> u64 {
        self.transitions[id.index()]
    }

    /// Drives primary input `pi_index` to `v` at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `pi_index` is out of range.
    pub fn set_input(&mut self, pi_index: usize, v: Logic) {
        let id = self.circuit.inputs()[pi_index];
        self.wheel.schedule(Event {
            time: self.wheel.now,
            gate: id,
            value: v,
        });
    }

    /// Drives all primary inputs at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn set_inputs(&mut self, inputs: &[Logic]) {
        assert_eq!(inputs.len(), self.circuit.num_inputs(), "input width");
        for (i, &v) in inputs.iter().enumerate() {
            self.set_input(i, v);
        }
    }

    /// Clocks every flip-flop: Q takes the current D value after the
    /// flip-flop's own (clock-to-Q) delay.
    pub fn clock(&mut self) {
        let now = self.wheel.now;
        for &q in self.circuit.dffs() {
            let d = self.circuit.gate(q).fanin()[0];
            let v = self.values[d.index()];
            self.wheel.schedule(Event {
                time: now + u64::from(self.delays.of(q)),
                gate: q,
                value: v,
            });
        }
    }

    /// Processes events until the queue is empty or `max_time` is reached.
    /// Returns the time of the last processed event, or `None` if events
    /// beyond `max_time` remain pending (the circuit "did not settle").
    pub fn run_until_quiet(&mut self, max_time: u64) -> Option<u64> {
        let mut last = self.wheel.now;
        while let Some((t, batch)) = self.wheel.next_batch() {
            if t > max_time {
                for ev in batch {
                    self.wheel.schedule(ev);
                }
                return None;
            }
            self.apply_batch(t, batch);
            last = t;
        }
        Some(last)
    }

    /// Processes all events strictly before `time`, then advances the clock
    /// to exactly `time` (pending later events remain queued).
    pub fn advance_to(&mut self, time: u64) {
        while let Some((t, batch)) = self.wheel.next_batch() {
            if t >= time {
                for ev in batch {
                    self.wheel.schedule(ev);
                }
                break;
            }
            self.apply_batch(t, batch);
        }
        self.wheel.now = self.wheel.now.max(time);
    }

    /// Phase 1 + phase 2 for one matured time step.
    fn apply_batch(&mut self, t: u64, batch: Vec<Event>) {
        // Phase 1: assign matured values; collect fanouts with real changes.
        let mut local: Vec<GateId> = Vec::new();
        for ev in batch {
            self.events += 1;
            if self.values[ev.gate.index()] != ev.value {
                self.values[ev.gate.index()] = ev.value;
                self.transitions[ev.gate.index()] += 1;
                for &f in self.circuit.gate(ev.gate).fanout() {
                    if self.circuit.gate(f).kind().is_comb() && !local.contains(&f) {
                        local.push(f);
                    }
                }
            }
        }
        // Phase 2: evaluate affected gates; post output events.
        for g in local {
            let gate = self.circuit.gate(g);
            self.scratch.clear();
            for &src in gate.fanin() {
                self.scratch.push(self.values[src.index()]);
            }
            let f = gate.kind().gate_fn().expect("combinational");
            let out = f.eval(&self.scratch);
            self.wheel.schedule(Event {
                time: t + u64::from(self.delays.of(g)),
                gate: g,
                value: out,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_netlist::parse_bench;
    use Logic::*;

    #[test]
    fn inverter_chain_accumulates_delay() {
        let c = parse_bench(
            "chain",
            "INPUT(a)\nOUTPUT(y)\nn1 = NOT(a)\nn2 = NOT(n1)\nn3 = NOT(n2)\ny = NOT(n3)\n",
        )
        .unwrap();
        let mut sim = DelaySim::new(&c, DelayModel::from_fn(&c, |_| 3));
        sim.set_input(0, Zero);
        let t = sim.run_until_quiet(1000).unwrap();
        assert_eq!(t, 12, "4 gates × 3 units");
        assert_eq!(sim.value(c.find("y").unwrap()), Zero);
    }

    #[test]
    fn static_hazard_produces_a_glitch() {
        // y = OR(a, NOT(a)): logically constant 1, but with a slower
        // inverter the 1→0 edge on `a` exposes a 0-glitch on y.
        let c = parse_bench("hz", "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n").unwrap();
        let delays = DelayModel::from_fn(&c, |id| if c.gate(id).name() == "n" { 5 } else { 1 });
        let mut sim = DelaySim::new(&c, delays);
        sim.set_input(0, One);
        sim.run_until_quiet(100).unwrap();
        let y = c.find("y").unwrap();
        let before = sim.transitions(y);
        assert_eq!(sim.value(y), One);
        // Falling edge on a: y glitches 1→0→1.
        sim.set_input(0, Zero);
        sim.run_until_quiet(100).unwrap();
        assert_eq!(sim.value(y), One);
        assert_eq!(sim.transitions(y) - before, 2, "glitch = two transitions");
    }

    #[test]
    fn settles_to_zero_delay_fixpoint() {
        let c = cfs_netlist::generate::benchmark("s344g").unwrap();
        let delays = DelayModel::from_fn(&c, |id| 1 + (id.index() as u32 % 4));
        let mut dsim = DelaySim::new(&c, delays);
        let mut zsim = crate::FullSim::new(&c);
        let pat: Vec<Logic> = (0..c.num_inputs())
            .map(|i| Logic::from_bool(i % 2 == 0))
            .collect();
        dsim.set_inputs(&pat);
        dsim.run_until_quiet(1_000_000).expect("settles");
        zsim.step(&pat);
        // Compare combinational values (flip-flops were not clocked in the
        // delay sim, so compare pre-latch: FullSim already latched; check
        // only combinational nodes driven purely by PIs would be fragile —
        // instead run FullSim fresh and compare before its latch via a
        // second identical step with the same state).
        let mut zsim2 = crate::FullSim::new(&c);
        zsim2.step(&pat);
        for &g in c.topo_order() {
            // Gates fed (transitively) by DFFs still at X agree because both
            // simulators hold DFFs at X (delay sim never clocked).
            let z = zsim2.values()[g.index()];
            let d = dsim.value(g);
            // zsim2 stepped once: its DFF values changed after latch, but
            // gate values were computed pre-latch, so they are comparable.
            assert_eq!(d, z, "{}", c.gate(g).name());
        }
    }

    #[test]
    fn clocking_latches_d_after_clk_to_q() {
        let c = parse_bench("ff", "INPUT(a)\nOUTPUT(q)\nq = DFF(n)\nn = NOT(a)\n").unwrap();
        let mut sim = DelaySim::new(&c, DelayModel::unit(&c));
        sim.set_input(0, Zero);
        sim.run_until_quiet(100).unwrap();
        let q = c.find("q").unwrap();
        assert_eq!(sim.value(q), X, "not clocked yet");
        sim.clock();
        sim.run_until_quiet(100).unwrap();
        assert_eq!(sim.value(q), One, "latched NOT(0)");
    }

    #[test]
    fn zero_delay_gates_are_legal() {
        let c = parse_bench("z", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n").unwrap();
        let mut sim = DelaySim::new(&c, DelayModel::from_fn(&c, |_| 0));
        sim.set_input(0, One);
        sim.run_until_quiet(10).unwrap();
        assert_eq!(sim.value(c.find("y").unwrap()), One);
    }

    #[test]
    fn far_future_events_survive_the_horizon() {
        let c = parse_bench("far", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n").unwrap();
        let mut sim = DelaySim::new(&c, DelayModel::from_fn(&c, |_| 1000));
        sim.set_input(0, One);
        let t = sim.run_until_quiet(10_000).unwrap();
        assert_eq!(t, 1000);
        assert_eq!(sim.value(c.find("y").unwrap()), One);
    }

    #[test]
    fn unsettled_returns_none() {
        // An odd-length combinational... a ring is impossible (validated),
        // so emulate non-settling by a tiny max_time budget instead.
        let c = parse_bench(
            "slow",
            "INPUT(a)\nOUTPUT(y)\nn1 = NOT(a)\nn2 = NOT(n1)\ny = NOT(n2)\n",
        )
        .unwrap();
        let mut sim = DelaySim::new(&c, DelayModel::from_fn(&c, |_| 10));
        sim.set_input(0, One);
        assert!(sim.run_until_quiet(5).is_none(), "budget too small");
    }
}
