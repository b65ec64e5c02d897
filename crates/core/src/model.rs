//! Fault models: the per-model pieces of a concurrent simulation.
//!
//! The paper runs both of its fault models on one concurrent engine. They
//! differ in how the fault universe compiles into the network (stuck-at
//! faults may collapse into macro cells, transition faults address gate
//! pins) and in the per-cycle step: §3's transition model adds a two-pass
//! hold/release cycle where stuck-at runs one pass. [`FaultModel`] names
//! exactly those differences, so one [`ShardedSim`](crate::ShardedSim)
//! serves both models.

use std::fmt;

use cfs_faults::{StuckAt, TransitionFault};
use cfs_logic::Logic;
use cfs_netlist::Circuit;
use cfs_telemetry::Probe;

use crate::checkpoint::Model;
use crate::engine::{Detection, Engine};
use crate::network::{build_gate_network, build_macro_network, FaultSpec};
use crate::stuck::CsimOptions;
use crate::transition::TransitionOptions;

/// A fault model the concurrent engine simulates: [`StuckAt`] or the §3
/// [`TransitionFault`]. The trait is sealed; the engine hooks behind it
/// are internal to this crate.
pub trait FaultModel: Copy + Send + Sync + sealed::Sealed {
    /// Engine configuration: [`CsimOptions`] or [`TransitionOptions`].
    type Options: Clone + fmt::Debug + Send + Sync;

    /// The model tag that checkpoints of this model carry.
    const CHECKPOINT: Model;

    /// The serial simulator's display name under `options` (`csim-MV`,
    /// `csim-T`, …).
    fn name(options: &Self::Options) -> &'static str;

    /// Site logic level per fault: the default balance key of
    /// [`ShardPlan::partition`](crate::ShardPlan::partition).
    fn site_levels(circuit: &Circuit, faults: &[Self]) -> Vec<u32>;
}

pub(crate) mod sealed {
    use super::{Circuit, Detection, Engine, FaultModel, Logic, Probe};

    /// The engine hooks of a [`FaultModel`].
    pub trait Sealed: Sized {
        /// Compiles the network for `faults` under `options` and wraps it
        /// in an engine carrying `probe`.
        fn engine<P: Probe>(
            circuit: &Circuit,
            faults: &[Self],
            options: &<Self as FaultModel>::Options,
            probe: P,
        ) -> Engine<P>
        where
            Self: FaultModel;

        /// One clock cycle, against an optional shared good-machine trace
        /// (see [`Engine::propagate_with`]). Returns the new detections.
        fn step<P: Probe>(
            engine: &mut Engine<P>,
            pattern: &[Logic],
            shared: Option<&[Logic]>,
        ) -> Vec<Detection>;
    }
}

impl FaultModel for StuckAt {
    type Options = CsimOptions;

    const CHECKPOINT: Model = Model::Stuck;

    fn name(options: &CsimOptions) -> &'static str {
        match (options.split_invisible, options.use_macros) {
            (false, false) => "csim",
            (true, false) => "csim-V",
            (false, true) => "csim-M",
            (true, true) => "csim-MV",
        }
    }

    fn site_levels(circuit: &Circuit, faults: &[Self]) -> Vec<u32> {
        faults
            .iter()
            .map(|f| circuit.level(f.site.gate()))
            .collect()
    }
}

impl sealed::Sealed for StuckAt {
    fn engine<P: Probe>(
        circuit: &Circuit,
        faults: &[Self],
        options: &CsimOptions,
        probe: P,
    ) -> Engine<P> {
        let specs: Vec<FaultSpec> = faults.iter().map(|&f| FaultSpec::Stuck(f)).collect();
        let net = if options.use_macros {
            build_macro_network(circuit, &specs, options.macro_max_inputs)
        } else {
            build_gate_network(circuit, &specs)
        };
        let mut engine =
            Engine::with_probe(net, options.split_invisible, options.drop_detected, probe);
        engine.quiesce_window = options.quiesce_window;
        engine
    }

    fn step<P: Probe>(
        engine: &mut Engine<P>,
        pattern: &[Logic],
        shared: Option<&[Logic]>,
    ) -> Vec<Detection> {
        engine.step_stuck_with(pattern, shared)
    }
}

impl FaultModel for TransitionFault {
    type Options = TransitionOptions;

    const CHECKPOINT: Model = Model::Transition;

    fn name(_: &TransitionOptions) -> &'static str {
        "csim-T"
    }

    fn site_levels(circuit: &Circuit, faults: &[Self]) -> Vec<u32> {
        faults.iter().map(|f| circuit.level(f.gate)).collect()
    }
}

impl sealed::Sealed for TransitionFault {
    /// Gate-level only: the transition model addresses individual gate
    /// pins, so macro collapsing does not apply.
    fn engine<P: Probe>(
        circuit: &Circuit,
        faults: &[Self],
        options: &TransitionOptions,
        probe: P,
    ) -> Engine<P> {
        let specs: Vec<FaultSpec> = faults.iter().map(|&f| FaultSpec::Transition(f)).collect();
        let net = build_gate_network(circuit, &specs);
        let mut engine =
            Engine::with_probe(net, options.split_invisible, options.drop_detected, probe);
        engine.quiesce_window = options.quiesce_window;
        engine
    }

    fn step<P: Probe>(
        engine: &mut Engine<P>,
        pattern: &[Logic],
        shared: Option<&[Logic]>,
    ) -> Vec<Detection> {
        engine.step_transition(pattern, shared)
    }
}
