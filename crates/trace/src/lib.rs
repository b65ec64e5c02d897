//! Event-level tracing of fault-list dynamics.
//!
//! The concurrent algorithm's cost is governed by fault-list *activity* —
//! faulty machines diverging from and reconverging with the good machine
//! (Lee & Reddy, DAC 1992) — but aggregate counters cannot show *when* or
//! *where* that activity happens. This crate records it event by event:
//! a [`TraceRecorder`] implements the engine's zero-cost
//! [`Probe`](cfs_telemetry::Probe) hook surface and captures
//!
//! * **spans** — per-pattern and per-phase begin/end wall times,
//! * **fault lifecycle** — first excitation (= first divergence),
//!   divergence (concurrent-list insertion), convergence (deletion),
//!   detection, per-window quiescence (the machines ERASER would skip),
//! * **arena events** — compaction passes and end-of-pattern counter
//!   samples of live elements and queue depth,
//!
//! into a bounded per-thread ring buffer ([`TraceConfig::capacity`],
//! drop-oldest). One recorder is owned by one engine, so a fault-sharded
//! parallel run records lock-free: each worker fills its own ring against
//! a shared epoch clock, and the streams merge only at export.
//!
//! Three consumers sit on top:
//!
//! * [`write_chrome_trace`] — Chrome Trace Event / Perfetto JSON, one
//!   thread track per shard plus a summed counter track (`--trace-out`),
//! * [`FaultTimeline`] — one fault's excitation→detection story
//!   (`fsim explain`),
//! * [`Heatmap`] — per-node activity totals identifying hot cones
//!   (`fsim heatmap`), exact even when the ring overflowed.
//!
//! The probe-off path is untouched: recording only exists in engines
//! monomorphized with a recording probe, exactly like `cfs-telemetry`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod heatmap;
mod recorder;
mod timeline;

pub use chrome::{validate_chrome_trace, write_chrome_trace, ChromeTraceStats, TrackTrace};
pub use event::{Micros, TraceEvent};
pub use heatmap::Heatmap;
pub use recorder::{NodeActivity, TraceConfig, TraceRecorder};
pub use timeline::FaultTimeline;
