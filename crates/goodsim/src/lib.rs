//! Fault-free ("good machine") simulators for synchronous sequential
//! circuits.
//!
//! Part of the workspace reproducing *Lee & Reddy, DAC 1992*. Two
//! simulators share the netlist substrate:
//!
//! * [`FullSim`] — the paper's zero-delay model (one step = one clock
//!   cycle), evaluating every gate in level order; the oracle other
//!   simulators are checked against;
//! * [`DelaySim`] — arbitrary-delay two-phase event-driven simulation with a
//!   timing wheel, the general mode concurrent simulation is prized for.
//!
//! # Examples
//!
//! ```
//! use cfs_goodsim::{DelayModel, DelaySim, FullSim};
//! use cfs_logic::parse_pattern;
//! use cfs_netlist::data::s27;
//!
//! let circuit = s27();
//! let mut full = FullSim::new(&circuit);
//! let mut delay = DelaySim::new(&circuit, DelayModel::unit(&circuit));
//! for p in ["0000", "1111", "0011"] {
//!     let p = parse_pattern(p)?;
//!     let zero_delay = full.step(&p);
//!     delay.set_inputs(&p);
//!     delay.run_until_quiet(1_000).expect("settles");
//!     assert_eq!(delay.value(circuit.outputs()[0]), zero_delay[0]);
//!     delay.clock();
//!     delay.run_until_quiet(1_000).expect("clock-to-q settles");
//! }
//! # Ok::<(), cfs_logic::ParseLogicError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod delay;
mod zero_delay;

pub use delay::{DelayModel, DelaySim};
pub use zero_delay::{FullSim, Pattern};
