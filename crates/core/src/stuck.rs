//! The stuck-at concurrent fault simulator: `csim` and its `-V`/`-M`/`-MV`
//! variants from §4 of the paper.

use std::fmt;

use cfs_faults::StuckAt;
use cfs_logic::Logic;
use cfs_netlist::DEFAULT_MACRO_MAX_INPUTS;
use cfs_telemetry::NullProbe;

use crate::parallel::ShardedSim;

/// Configuration of the concurrent simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsimOptions {
    /// Keep invisible fault elements on a separate list (`-V`): propagation
    /// traverses only visible elements.
    pub split_invisible: bool,
    /// Collapse fanout-free regions into look-up-table macro cells (`-M`);
    /// internal faults become functional (faulty-LUT) faults.
    pub use_macros: bool,
    /// Support cap for macro cells.
    pub macro_max_inputs: usize,
    /// Purge elements of detected faults during list traversal
    /// (event-driven fault dropping).
    pub drop_detected: bool,
    /// Quiescence gating window in patterns (`0` disables): nodes whose
    /// state is unchanged for strictly more than this many consecutive
    /// patterns are fenced out of the per-pattern sweeps. Detections are
    /// bit-identical to the ungated engine for every window.
    pub quiesce_window: u32,
}

impl Default for CsimOptions {
    fn default() -> Self {
        CsimVariant::Mv.options()
    }
}

/// The four simulator configurations evaluated in the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsimVariant {
    /// Plain concurrent simulation (single lists, no macros).
    Base,
    /// Visible/invisible list splitting only.
    V,
    /// Macro extraction only.
    M,
    /// Both improvements (the paper's final `csim-MV`).
    Mv,
}

impl CsimVariant {
    /// All four variants, in Table 3 column order.
    pub const ALL: [CsimVariant; 4] = [
        CsimVariant::Base,
        CsimVariant::V,
        CsimVariant::M,
        CsimVariant::Mv,
    ];

    /// The paper's name for the variant.
    pub fn name(self) -> &'static str {
        match self {
            CsimVariant::Base => "csim",
            CsimVariant::V => "csim-V",
            CsimVariant::M => "csim-M",
            CsimVariant::Mv => "csim-MV",
        }
    }

    /// The options this variant stands for (fault dropping is always on, as
    /// in the paper).
    pub fn options(self) -> CsimOptions {
        CsimOptions {
            split_invisible: matches!(self, CsimVariant::V | CsimVariant::Mv),
            use_macros: matches!(self, CsimVariant::M | CsimVariant::Mv),
            macro_max_inputs: DEFAULT_MACRO_MAX_INPUTS,
            drop_detected: true,
            quiesce_window: 0,
        }
    }
}

impl fmt::Display for CsimVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one simulated clock cycle.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Good-machine primary-output values.
    pub outputs: Vec<Logic>,
    /// Indices (into the fault list) of faults first detected this cycle.
    pub new_detections: Vec<usize>,
}

/// The concurrent stuck-at fault simulator for synchronous sequential
/// circuits: the stuck-at [`ShardedSim`], serial when built with
/// [`ShardedSim::new`].
///
/// # Examples
///
/// ```
/// use cfs_core::{ConcurrentSim, CsimVariant};
/// use cfs_faults::collapse_stuck_at;
/// use cfs_logic::parse_pattern;
/// use cfs_netlist::data::s27;
///
/// let circuit = s27();
/// let faults = collapse_stuck_at(&circuit).representatives;
/// let mut sim = ConcurrentSim::new(&circuit, &faults, CsimVariant::Mv.options());
/// let patterns: Vec<_> = ["0000", "1111", "0101", "1010"]
///     .iter()
///     .map(|p| parse_pattern(p))
///     .collect::<Result<_, _>>()?;
/// let report = sim.run(&patterns);
/// assert!(report.detected() > 0);
/// # Ok::<(), cfs_logic::ParseLogicError>(())
/// ```
pub type ConcurrentSim<P = NullProbe> = ShardedSim<StuckAt, P>;
