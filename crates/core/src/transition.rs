//! The transition fault simulator of §3: the concurrent method "is ideal to
//! simulate the transition faults because all previous input values of all
//! the gates are available."
//!
//! Each clock cycle runs two passes over the combinational logic:
//!
//! 1. **Sampling pass** — faulty transitions are *held* (each activated pin
//!    presents its previous value per Table 1); primary outputs are sampled
//!    for detection and flip-flop masters latch the faulty next state.
//! 2. **Settling pass** — transitions are released (the delay defect is
//!    smaller than a clock cycle, so the logic settles correctly) with the
//!    *old* flip-flop state still visible; the settled pin values become the
//!    previous values for the next cycle. Only then do the flip-flop slaves
//!    take the stashed state.

use cfs_faults::TransitionFault;
use cfs_logic::Logic;
use cfs_telemetry::{NullProbe, Phase, Probe};

use crate::engine::{Detection, Engine};
use crate::parallel::ShardedSim;

/// Configuration of the transition fault simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionOptions {
    /// Keep invisible fault elements on a separate list.
    pub split_invisible: bool,
    /// Purge elements of detected faults during traversal.
    pub drop_detected: bool,
    /// Quiescence gating window in patterns (`0` disables); see
    /// [`crate::CsimOptions::quiesce_window`].
    pub quiesce_window: u32,
}

impl Default for TransitionOptions {
    fn default() -> Self {
        TransitionOptions {
            split_invisible: true,
            drop_detected: true,
            quiesce_window: 0,
        }
    }
}

/// Concurrent transition fault simulator: the transition-fault
/// [`ShardedSim`] (gate-level; the transition model addresses individual
/// gate pins, so macro collapsing does not apply). The per-fault
/// previous-pin state and the latch stash live inside each shard's own
/// engine, so sharding changes nothing about the two-pass semantics.
///
/// # Examples
///
/// ```
/// use cfs_core::TransitionSim;
/// use cfs_faults::enumerate_transition;
/// use cfs_logic::parse_pattern;
/// use cfs_netlist::data::s27;
///
/// let circuit = s27();
/// let faults = enumerate_transition(&circuit);
/// let mut sim = TransitionSim::new(&circuit, &faults, Default::default());
/// let patterns: Vec<_> = ["0000", "1111", "0000", "1111"]
///     .iter()
///     .map(|p| parse_pattern(p))
///     .collect::<Result<_, _>>()?;
/// let report = sim.run(&patterns);
/// assert_eq!(report.total_faults(), faults.len());
/// # Ok::<(), cfs_logic::ParseLogicError>(())
/// ```
pub type TransitionSim<P = NullProbe> = ShardedSim<TransitionFault, P>;

impl<P: Probe> Engine<P> {
    /// One transition clock cycle (both passes) against an optional shared
    /// good-machine trace (the settled good values for this cycle,
    /// computed once by a fault-free engine). The good machine is
    /// untouched by the hold/release passes, so the same trace serves
    /// both.
    pub(crate) fn step_transition(
        &mut self,
        inputs: &[Logic],
        shared: Option<&[Logic]>,
    ) -> Vec<Detection> {
        self.pattern_begin();
        // Pass 1: transitions held; sample and latch masters.
        self.probe.phase_start(Phase::TransitionFirst);
        self.transition_hold = true;
        self.apply_inputs(inputs);
        self.propagate_with(shared);
        let detections = self.detect();
        let stash = self.latch_collect();
        self.probe.phase_end(Phase::TransitionFirst);
        // Pass 2: transitions released, old flip-flop state still visible.
        self.probe.phase_start(Phase::TransitionSecond);
        self.transition_hold = false;
        self.schedule_transition_sites();
        self.propagate_with(shared);
        self.record_prev_pins();
        // Slaves take the stashed state only now.
        self.latch_commit(stash);
        self.probe.phase_end(Phase::TransitionSecond);
        self.pattern_index += 1;
        self.pattern_end();
        self.verify_after_pattern();
        detections
    }
}
