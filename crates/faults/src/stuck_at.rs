//! Single stuck-at fault model and structural fault collapsing.

use std::fmt;

use cfs_logic::Logic;
use cfs_netlist::{Circuit, GateId, GateKind};

/// The site of a fault: a node's output stem or one of its input pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// The output of `gate` (before any fanout branches).
    Output {
        /// The node whose output is faulty.
        gate: GateId,
    },
    /// Input pin `pin` of `gate` (a branch fault: other branches of the
    /// driving stem are unaffected).
    Pin {
        /// The node with the faulty input.
        gate: GateId,
        /// Pin index into the node's fanin list.
        pin: u8,
    },
}

impl FaultSite {
    /// The node the fault is attached to.
    pub fn gate(self) -> GateId {
        match self {
            FaultSite::Output { gate } | FaultSite::Pin { gate, .. } => gate,
        }
    }
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StuckAt {
    /// Where the fault is.
    pub site: FaultSite,
    /// The stuck value (`true` = stuck-at-1).
    pub stuck_at_one: bool,
}

impl StuckAt {
    /// Output stuck-at fault on `gate`.
    pub fn output(gate: GateId, stuck_at_one: bool) -> Self {
        StuckAt {
            site: FaultSite::Output { gate },
            stuck_at_one,
        }
    }

    /// Input-pin stuck-at fault on `gate`.
    pub fn pin(gate: GateId, pin: u8, stuck_at_one: bool) -> Self {
        StuckAt {
            site: FaultSite::Pin { gate, pin },
            stuck_at_one,
        }
    }

    /// The forced logic value.
    pub fn value(self) -> Logic {
        Logic::from_bool(self.stuck_at_one)
    }

    /// Human-readable description against a circuit (the paper's
    /// "input 2 of gate e stuck at 0" style).
    pub fn describe(self, circuit: &Circuit) -> String {
        match self.site {
            FaultSite::Output { gate } => format!(
                "output of {} stuck at {}",
                circuit.gate(gate).name(),
                u8::from(self.stuck_at_one)
            ),
            FaultSite::Pin { gate, pin } => format!(
                "input {} of {} stuck at {}",
                pin,
                circuit.gate(gate).name(),
                u8::from(self.stuck_at_one)
            ),
        }
    }
}

impl fmt::Display for StuckAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.site {
            FaultSite::Output { gate } => {
                write!(f, "{gate}/sa{}", u8::from(self.stuck_at_one))
            }
            FaultSite::Pin { gate, pin } => {
                write!(f, "{gate}.{pin}/sa{}", u8::from(self.stuck_at_one))
            }
        }
    }
}

/// Enumerates the *uncollapsed* single stuck-at universe of a circuit:
/// two faults on every node output (PIs, flip-flops, gates) and two on every
/// input pin of gates and flip-flops.
pub fn enumerate_stuck_at(circuit: &Circuit) -> Vec<StuckAt> {
    let mut faults = Vec::new();
    for (i, gate) in circuit.gates().iter().enumerate() {
        let id = GateId::from_index(i);
        for v in [false, true] {
            faults.push(StuckAt::output(id, v));
        }
        if matches!(gate.kind(), GateKind::Comb(_) | GateKind::Dff) {
            for pin in 0..gate.fanin().len() {
                for v in [false, true] {
                    faults.push(StuckAt::pin(id, pin as u8, v));
                }
            }
        }
    }
    faults
}

/// Per-gate starting offsets of the [`enumerate_stuck_at`] fault blocks,
/// so the enumeration index of any fault is computable without a hash map.
fn enumeration_offsets(circuit: &Circuit) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(circuit.num_nodes());
    let mut acc = 0usize;
    for gate in circuit.gates() {
        offsets.push(acc);
        acc += 2;
        if matches!(gate.kind(), GateKind::Comb(_) | GateKind::Dff) {
            acc += 2 * gate.fanin().len();
        }
    }
    offsets
}

fn enumeration_index(offsets: &[usize], f: StuckAt) -> usize {
    let base = offsets[f.site.gate().index()];
    match f.site {
        FaultSite::Output { .. } => base + usize::from(f.stuck_at_one),
        FaultSite::Pin { pin, .. } => base + 2 + 2 * pin as usize + usize::from(f.stuck_at_one),
    }
}

/// Structural equivalence collapsing of the stuck-at universe.
///
/// Classical rules (Abramovici et al.):
///
/// * AND: any input sa-0 ≡ output sa-0; NAND: any input sa-0 ≡ output sa-1;
///   OR: any input sa-1 ≡ output sa-1; NOR: any input sa-1 ≡ output sa-0.
/// * BUF: input sa-v ≡ output sa-v; NOT: input sa-v ≡ output sa-v̄.
/// * A fanout-free connection (stem with exactly one consumer pin):
///   driver output sa-v ≡ consumer pin sa-v. The same holds across a
///   flip-flop's D pin to its Q output (zero-delay, one-cycle shift does
///   not change detectability on an indefinitely observed sequence, and is
///   the standard collapse).
///
/// Returns the collapsed fault list (class representatives, one per
/// equivalence class) and the class id of every uncollapsed fault, aligned
/// with [`enumerate_stuck_at`] order.
pub fn collapse_stuck_at(circuit: &Circuit) -> CollapsedFaults {
    collapse_impl(circuit, true)
}

/// *Exact* equivalence collapsing: the classical rules minus the flip-flop
/// D-pin ≡ Q-output merge.
///
/// Every remaining rule equates faults whose faulty machines have identical
/// values on every net any observer can see, at every cycle — so members of
/// one class share the *same first-detection pattern*, not merely the same
/// detectability. The D ≡ Q merge does not have that property: the Q-output
/// fault perturbs the present cycle while the D-pin fault perturbs the next,
/// and with the cycle-0 all-`X` flip-flop state the two machines can first
/// become visible at different patterns. [`collapse_stuck_at`] keeps the
/// classical merge (detectability on an indefinitely observed sequence is
/// unaffected); this variant is for callers that must expand per-pattern
/// results back to the full universe bit-identically, e.g. `--prune`.
pub fn collapse_stuck_at_exact(circuit: &Circuit) -> CollapsedFaults {
    collapse_impl(circuit, false)
}

fn collapse_impl(circuit: &Circuit, merge_dff_pin: bool) -> CollapsedFaults {
    let all = enumerate_stuck_at(circuit);
    let offsets = enumeration_offsets(circuit);
    debug_assert!(all
        .iter()
        .enumerate()
        .all(|(i, &f)| enumeration_index(&offsets, f) == i));
    let idx = |f: StuckAt| -> usize { enumeration_index(&offsets, f) };

    let mut uf = UnionFind::new(all.len());
    for (i, gate) in circuit.gates().iter().enumerate() {
        let id = GateId::from_index(i);
        match gate.kind() {
            GateKind::Comb(f) => {
                // Gate-local equivalences.
                if let (Some(cv), Some(co)) = (f.controlling_value(), f.controlled_output()) {
                    let cv1 = cv == Logic::One;
                    let co1 = co == Logic::One;
                    for pin in 0..gate.fanin().len() {
                        uf.union(
                            idx(StuckAt::pin(id, pin as u8, cv1)),
                            idx(StuckAt::output(id, co1)),
                        );
                    }
                }
                if f.is_unary() {
                    let inv = f.is_inverting();
                    for v in [false, true] {
                        uf.union(
                            idx(StuckAt::pin(id, 0, v)),
                            idx(StuckAt::output(id, v ^ inv)),
                        );
                    }
                }
            }
            GateKind::Dff => {
                // D pin faults ≡ Q output faults (one-cycle shift). Omitted
                // by the exact collapse: the shift changes *when* the fault
                // is first seen.
                if merge_dff_pin {
                    for v in [false, true] {
                        uf.union(idx(StuckAt::pin(id, 0, v)), idx(StuckAt::output(id, v)));
                    }
                }
            }
            GateKind::Input => {}
        }
    }
    // Fanout-free connections: stem output ≡ the single consumer pin.
    // A node tapped as a primary output keeps its stem faults distinct
    // (the tap is an extra observation point).
    let mut consumer_pins: Vec<Vec<(GateId, u8)>> = vec![Vec::new(); circuit.num_nodes()];
    for (i, gate) in circuit.gates().iter().enumerate() {
        for (pin, &src) in gate.fanin().iter().enumerate() {
            consumer_pins[src.index()].push((GateId::from_index(i), pin as u8));
        }
    }
    let mut po_taps = vec![0usize; circuit.num_nodes()];
    for &po in circuit.outputs() {
        po_taps[po.index()] += 1;
    }
    for (i, pins) in consumer_pins.iter().enumerate() {
        if pins.len() == 1 && po_taps[i] == 0 {
            let id = GateId::from_index(i);
            let (dst, pin) = pins[0];
            let dst_kind = circuit.gate(dst).kind();
            if matches!(dst_kind, GateKind::Comb(_) | GateKind::Dff) {
                for v in [false, true] {
                    uf.union(idx(StuckAt::output(id, v)), idx(StuckAt::pin(dst, pin, v)));
                }
            }
        }
    }

    // Build class table: representative = lowest enumeration index.
    let mut class_of = vec![usize::MAX; all.len()];
    let mut representatives = Vec::new();
    for i in 0..all.len() {
        let root = uf.find(i);
        if class_of[root] == usize::MAX {
            class_of[root] = representatives.len();
            representatives.push(all[root]);
        }
        class_of[i] = class_of[root];
    }
    CollapsedFaults {
        all,
        representatives,
        class_of,
    }
}

/// Result of stuck-at fault collapsing.
#[derive(Debug, Clone)]
pub struct CollapsedFaults {
    /// The full uncollapsed universe, in enumeration order.
    pub all: Vec<StuckAt>,
    /// One representative per equivalence class.
    pub representatives: Vec<StuckAt>,
    /// Class id of each uncollapsed fault (indexes `representatives`).
    pub class_of: Vec<usize>,
}

impl CollapsedFaults {
    /// Number of collapsed classes.
    pub fn num_classes(&self) -> usize {
        self.representatives.len()
    }

    /// Collapse ratio (collapsed / uncollapsed).
    pub fn ratio(&self) -> f64 {
        self.representatives.len() as f64 / self.all.len() as f64
    }
}

#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Keep the smaller index as root so representatives are stable.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Collapse-by-dominance over the exact equivalence classes.
///
/// Fault `f` *dominates* `g` when every test that detects `g` also detects
/// `f` (`T(g) ⊆ T(f)`). For an n-input gate with controlling value `cv` and
/// controlled output `co` (AND/NAND/OR/NOR, n ≥ 2), the output stuck-at-co̅
/// fault dominates each input stuck-at-cv̅ fault: exciting the input fault
/// sets the input to `cv`, so good and faulty gate outputs are `co` vs `co̅`
/// — exactly the output fault's effect, propagated identically.
///
/// Dominators can therefore be dropped from an ATPG target list: detecting
/// any dominated fault implies the dominator. Unlike equivalence this is an
/// *implication*, not an identity — the dominator's first-detection pattern
/// is not recoverable, and the rule is only sound combinationally (in a
/// sequential circuit the two faulty machines accumulate different state
/// histories). It is exposed as an analysis artifact, and is **not** used by
/// the bit-exact `--prune` path.
#[derive(Debug, Clone)]
pub struct DominanceCollapse {
    /// The exact equivalence collapse the dominance edges are built over.
    pub base: CollapsedFaults,
    /// `(dominator, dominated)` pairs of class ids: every test for the
    /// dominated class detects the dominator class.
    pub edges: Vec<(u32, u32)>,
    /// Class ids retained as targets after dropping dominators whose
    /// detection is implied by at least one dominated class.
    pub kept: Vec<u32>,
}

impl DominanceCollapse {
    /// Number of dominator classes dropped from the target list.
    pub fn dropped(&self) -> usize {
        self.base.num_classes() - self.kept.len()
    }
}

/// Builds the dominance collapse of a circuit's stuck-at universe: gate-local
/// dominance edges over the exact equivalence classes (fanout-free-region
/// chains compose automatically because the stem ≡ branch merges already
/// identify the classes along the region).
pub fn dominance_collapse(circuit: &Circuit) -> DominanceCollapse {
    let base = collapse_stuck_at_exact(circuit);
    let offsets = enumeration_offsets(circuit);
    let class = |f: StuckAt| -> u32 { base.class_of[enumeration_index(&offsets, f)] as u32 };
    let mut edges = Vec::new();
    for (i, gate) in circuit.gates().iter().enumerate() {
        let GateKind::Comb(f) = gate.kind() else {
            continue;
        };
        let (Some(cv), Some(co)) = (f.controlling_value(), f.controlled_output()) else {
            continue;
        };
        if gate.fanin().len() < 2 {
            continue; // single-input gates collapse by equivalence instead
        }
        let id = GateId::from_index(i);
        let dominator = class(StuckAt::output(id, co != Logic::One));
        for pin in 0..gate.fanin().len() {
            let dominated = class(StuckAt::pin(id, pin as u8, cv != Logic::One));
            if dominated != dominator {
                edges.push((dominator, dominated));
            }
        }
    }
    let mut droppable = vec![false; base.num_classes()];
    for &(dominator, _) in &edges {
        droppable[dominator as usize] = true;
    }
    let kept = (0..base.num_classes() as u32)
        .filter(|&c| !droppable[c as usize])
        .collect();
    DominanceCollapse { base, edges, kept }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_netlist::{data::s27, parse_bench};

    #[test]
    fn enumeration_counts() {
        // y = AND(a,b): outputs a,b,y (6) + pins of y (4) = 10 faults.
        let c = parse_bench("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        assert_eq!(enumerate_stuck_at(&c).len(), 10);
    }

    #[test]
    fn and_gate_collapse() {
        let c = parse_bench("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let col = collapse_stuck_at(&c);
        // Classes: {a/sa0≡y.0/sa0≡y/sa0≡b/sa0... careful: a stem feeds only
        // y.0 so a/sa0 ≡ y.0/sa0 ≡ y/sa0, and b/sa0 ≡ y.1/sa0 ≡ y/sa0 — all
        // sa0 merge into one class. Remaining: a/sa1≡y.0/sa1, b/sa1≡y.1/sa1,
        // y/sa1. Total 4 classes.
        assert_eq!(col.num_classes(), 4);
        // Every fault maps to a valid class.
        assert!(col.class_of.iter().all(|&c| c < col.num_classes()));
    }

    #[test]
    fn inverter_chain_collapses_to_two() {
        let c = parse_bench("t", "INPUT(a)\nOUTPUT(y)\nm = NOT(a)\ny = NOT(m)\n").unwrap();
        let col = collapse_stuck_at(&c);
        // a—NOT—m—NOT—y: all 10 faults collapse to 2 classes (sa0/sa1 at
        // one site, propagated through equivalences).
        assert_eq!(col.num_classes(), 2);
    }

    #[test]
    fn s27_collapse_is_substantial_and_consistent() {
        let c = s27();
        let col = collapse_stuck_at(&c);
        assert!(col.num_classes() < col.all.len());
        assert!(col.ratio() > 0.2 && col.ratio() < 0.9, "{}", col.ratio());
        // Representatives are members of their own class.
        for (ci, rep) in col.representatives.iter().enumerate() {
            let i = col.all.iter().position(|f| f == rep).unwrap();
            assert_eq!(col.class_of[i], ci);
        }
    }

    #[test]
    fn po_tapped_stem_is_not_collapsed_across_the_connection() {
        // g1 drives g2 and is also a PO: the stem fault must stay distinct
        // from g2's pin fault because the tap observes the stem directly.
        let c = parse_bench(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(g1)\nOUTPUT(g2)\ng1 = AND(a, b)\ng2 = NOT(g1)\n",
        )
        .unwrap();
        let col = collapse_stuck_at(&c);
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        let i_stem = col
            .all
            .iter()
            .position(|f| *f == StuckAt::output(g1, true))
            .unwrap();
        let i_pin = col
            .all
            .iter()
            .position(|f| *f == StuckAt::pin(g2, 0, true))
            .unwrap();
        assert_ne!(col.class_of[i_stem], col.class_of[i_pin]);
    }

    #[test]
    fn dff_pin_collapses_to_q() {
        let c = parse_bench("t", "INPUT(a)\nOUTPUT(q)\nq = DFF(y)\ny = NOT(a)\n").unwrap();
        let col = collapse_stuck_at(&c);
        let q = c.find("q").unwrap();
        let i_d = col
            .all
            .iter()
            .position(|f| *f == StuckAt::pin(q, 0, false))
            .unwrap();
        let i_q = col
            .all
            .iter()
            .position(|f| *f == StuckAt::output(q, false))
            .unwrap();
        assert_eq!(col.class_of[i_d], col.class_of[i_q]);
    }

    #[test]
    fn exact_collapse_keeps_dff_pin_distinct_from_q() {
        let c = parse_bench("t", "INPUT(a)\nOUTPUT(q)\nq = DFF(y)\ny = NOT(a)\n").unwrap();
        let classical = collapse_stuck_at(&c);
        let exact = collapse_stuck_at_exact(&c);
        // Exactly the two D ≡ Q merges are undone; everything else agrees.
        assert_eq!(exact.num_classes(), classical.num_classes() + 2);
        let q = c.find("q").unwrap();
        for v in [false, true] {
            let i_d = exact
                .all
                .iter()
                .position(|f| *f == StuckAt::pin(q, 0, v))
                .unwrap();
            let i_q = exact
                .all
                .iter()
                .position(|f| *f == StuckAt::output(q, v))
                .unwrap();
            assert_ne!(exact.class_of[i_d], exact.class_of[i_q]);
            assert_eq!(classical.class_of[i_d], classical.class_of[i_q]);
        }
    }

    #[test]
    fn exact_collapse_refines_the_classical_partition() {
        // Every exact class must sit wholly inside one classical class.
        let c = s27();
        let classical = collapse_stuck_at(&c);
        let exact = collapse_stuck_at_exact(&c);
        assert_eq!(classical.all, exact.all);
        let mut image = vec![usize::MAX; exact.num_classes()];
        for i in 0..exact.all.len() {
            let (e, cl) = (exact.class_of[i], classical.class_of[i]);
            if image[e] == usize::MAX {
                image[e] = cl;
            } else {
                assert_eq!(image[e], cl, "exact class {e} straddles classical classes");
            }
        }
    }

    #[test]
    fn dominance_drops_controlling_gate_outputs() {
        // y = AND(a, b): exact classes are {all sa-0}, a/sa1, b/sa1, y/sa1.
        // y/sa1 dominates a/sa1 and b/sa1 and is dropped: 3 targets remain.
        let c = parse_bench("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let dom = dominance_collapse(&c);
        assert_eq!(dom.base.num_classes(), 4);
        assert_eq!(dom.edges.len(), 2);
        assert_eq!(dom.kept.len(), 3);
        assert_eq!(dom.dropped(), 1);
        let y = c.find("y").unwrap();
        let y_sa1_class = {
            let i = dom
                .base
                .all
                .iter()
                .position(|f| *f == StuckAt::output(y, true))
                .unwrap();
            dom.base.class_of[i] as u32
        };
        assert!(dom.edges.iter().all(|&(d, _)| d == y_sa1_class));
        assert!(!dom.kept.contains(&y_sa1_class));
    }

    #[test]
    fn dominance_skips_xor_and_unary_gates() {
        let c = parse_bench(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = XOR(a, b)\ny = NOT(x)\n",
        )
        .unwrap();
        let dom = dominance_collapse(&c);
        assert!(dom.edges.is_empty());
        assert_eq!(dom.kept.len(), dom.base.num_classes());
    }

    #[test]
    fn display_and_describe() {
        let c = parse_bench("t", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let y = c.find("y").unwrap();
        let f = StuckAt::pin(y, 0, false);
        assert!(f.to_string().contains("sa0"));
        assert_eq!(f.describe(&c), "input 0 of y stuck at 0");
    }
}
