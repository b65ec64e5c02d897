//! The concurrent fault simulator, serial or fault-sharded.
//!
//! The concurrent algorithm's fault universe is embarrassingly
//! partitionable: every faulty machine lives on its own list elements and
//! never interacts with another fault, so splitting the fault list across
//! `P` independent engines changes nothing about per-fault semantics.
//! [`ShardedSim`] is the one simulator type, for either [`FaultModel`]
//! ([`ConcurrentSim`](crate::ConcurrentSim) for stuck-at,
//! [`TransitionSim`](crate::TransitionSim) for the §3 transition model):
//!
//! * the fault list is partitioned by a pluggable [`ShardPlan`] into `P`
//!   exact-cover shards, one engine per shard,
//! * the **good machine is evaluated once per pattern** by a fault-free
//!   engine and its settled node values are shared read-only with every
//!   shard (`Engine::propagate_with`), eliminating the per-shard
//!   redundancy of re-simulating the identical good machine,
//! * the caller's thread steps that good engine and sends each block of
//!   128 good traces, behind an `Arc`, to every worker through a
//!   bounded channel (a few blocks of lookahead, so trace memory stays
//!   flat however long the run); worker `w` owns shards `w`, `w + T`, …
//!   and advances each over the block in pattern order,
//! * results merge deterministically — statuses by global fault index,
//!   detections sorted by `(pattern, fault id)` — so the output is
//!   bit-identical for any thread count and shard plan, including
//!   `P = 1`, the serial simulator: it builds no good engine and starts
//!   no worker thread.
//!
//! Determinism needs no locks because fault detection is a per-fault fact:
//! whether (and at which pattern) fault `f` is detected depends only on
//! the circuit, the pattern sequence, and `f` itself — never on which
//! other faults share its engine or which worker runs it (the traces a
//! shard consumes are the same values the serial good machine computes,
//! and each shard sees its patterns in order).

use std::fmt;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

use cfs_faults::{FaultSimReport, FaultStatus, StuckAt};
use cfs_logic::Logic;
use cfs_netlist::Circuit;
use cfs_telemetry::{MetricsSnapshot, NullProbe, Probe, SimMetrics};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::engine::Engine;
use crate::model::FaultModel;
use crate::stuck::StepResult;

/// Patterns per good-trace block (also the progress-callback
/// granularity): bounds live trace memory while keeping channel traffic
/// rare.
const BLOCK: usize = 128;

/// Blocks of good traces a worker's channel may hold ahead of it.
const LOOKAHEAD: usize = 4;

/// How the fault list is split across shards.
///
/// Every plan is an *exact cover*: each fault index appears in exactly one
/// shard. Plans only affect load balance, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardPlan {
    /// Fault `i` goes to shard `i mod P`. Site-adjacent faults (which the
    /// enumeration orders together) spread across shards, which balances
    /// well in practice.
    #[default]
    RoundRobin,
    /// `P` nearly-equal contiguous slices of the fault list. Keeps each
    /// shard's faults clustered on few sites (smaller per-shard lists),
    /// at the risk of imbalance when detectability clusters.
    Contiguous,
    /// Faults sorted by their site's logic level, then dealt round-robin,
    /// so each shard receives the same mix of shallow and deep faults.
    LevelAware,
    /// Faults sorted by a per-fault weight (descending), then snake-dealt
    /// (`0..P`, `P-1..0`, …) so heavy faults spread evenly *and* each
    /// shard's total weight stays close. With plain levels as keys this
    /// degenerates to a level-spread plan; its intended keys are the SCOAP
    /// detection-difficulty weights from `cfs-check` (the `keys` of
    /// [`ShardedSim::with_probes`]), which track how long a fault stays
    /// undetected — and therefore how much list work it causes.
    WeightAware,
}

impl ShardPlan {
    /// All plans, for sweeps and tests.
    pub const ALL: [ShardPlan; 4] = [
        ShardPlan::RoundRobin,
        ShardPlan::Contiguous,
        ShardPlan::LevelAware,
        ShardPlan::WeightAware,
    ];

    /// Stable CLI/display name.
    pub fn name(self) -> &'static str {
        match self {
            ShardPlan::RoundRobin => "round-robin",
            ShardPlan::Contiguous => "contiguous",
            ShardPlan::LevelAware => "level-aware",
            ShardPlan::WeightAware => "weight-aware",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<ShardPlan> {
        match s {
            "round-robin" => Some(ShardPlan::RoundRobin),
            "contiguous" => Some(ShardPlan::Contiguous),
            "level-aware" => Some(ShardPlan::LevelAware),
            "weight-aware" => Some(ShardPlan::WeightAware),
            _ => None,
        }
    }

    /// Partitions fault indices `0..levels.len()` into `shards` lists,
    /// each sorted ascending. `levels[i]` is a balance key for fault `i`
    /// — the site's logic level by default, or an externally supplied
    /// weight — consulted only by [`ShardPlan::LevelAware`] and
    /// [`ShardPlan::WeightAware`].
    ///
    /// The result is an exact cover: every index in exactly one shard.
    /// Empty shards are possible when there are fewer faults than shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn partition(self, levels: &[u32], shards: usize) -> Vec<Vec<usize>> {
        assert!(shards > 0, "at least one shard");
        let n = levels.len();
        let mut out = vec![Vec::with_capacity(n / shards + 1); shards];
        match self {
            ShardPlan::RoundRobin => {
                for i in 0..n {
                    out[i % shards].push(i);
                }
            }
            ShardPlan::Contiguous => {
                // Balanced slices: the first n % shards slices get one extra.
                for (k, shard) in out.iter_mut().enumerate() {
                    let lo = k * n / shards;
                    let hi = (k + 1) * n / shards;
                    shard.extend(lo..hi);
                }
            }
            ShardPlan::LevelAware => {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| (levels[i], i));
                for (k, &i) in order.iter().enumerate() {
                    out[k % shards].push(i);
                }
                for shard in &mut out {
                    shard.sort_unstable();
                }
            }
            ShardPlan::WeightAware => {
                // Snake deal by descending weight: the heaviest P faults
                // land on distinct shards, the next P come back in reverse
                // order, and so on. Each round gives every shard exactly
                // one fault before any shard gets a second, so shard sizes
                // stay within one of each other (the exact-cover balance
                // bound) while total weights stay close — the classic
                // LPT-style trick without LPT's size skew.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| (std::cmp::Reverse(levels[i]), i));
                for (k, &i) in order.iter().enumerate() {
                    let round = k / shards;
                    let pos = k % shards;
                    let shard = if round.is_multiple_of(2) {
                        pos
                    } else {
                        shards - 1 - pos
                    };
                    out[shard].push(i);
                }
                for shard in &mut out {
                    shard.sort_unstable();
                }
            }
        }
        out
    }
}

impl fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A detection in global fault-index terms: `(fault index, pattern)`.
pub type GlobalDetection = (u32, u32);

/// The deterministic detection list of a status vector: every detected
/// fault as `(fault index, pattern)`, sorted by pattern then fault index —
/// the merge order the differential harness pins.
pub fn detections_of(statuses: &[FaultStatus]) -> Vec<GlobalDetection> {
    let mut dets: Vec<GlobalDetection> = statuses
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            FaultStatus::Detected { pattern } => Some((i as u32, *pattern as u32)),
            _ => None,
        })
        .collect();
    dets.sort_unstable_by_key(|&(f, p)| (p, f));
    dets
}

/// Panics unless `parts` is an exact cover of `0..n` with each part
/// sorted ascending — the invariant every shard constructor relies on.
fn assert_exact_cover(parts: &[Vec<usize>], n: usize) {
    let mut seen = vec![false; n];
    for part in parts {
        assert!(
            part.windows(2).all(|w| w[0] < w[1]),
            "shard indices must be sorted ascending"
        );
        for &i in part {
            assert!(i < n, "fault index {i} out of range (universe {n})");
            assert!(
                !std::mem::replace(&mut seen[i], true),
                "fault {i} appears in more than one shard"
            );
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "partition drops faults: not an exact cover"
    );
}

/// Advances every shard over `patterns` on `threads` workers.
///
/// The calling thread steps the scalar good machine ([`Engine::good_cycle`])
/// in pattern order and sends each block's traces to every worker; worker
/// `w` owns shards `w, w + threads, …` and calls `step(shard, pattern,
/// trace)` for each of them, block by block. Each shard therefore sees
/// exactly the serial pattern order and good traces, so results cannot
/// depend on the thread count. Returns once every worker has drained its
/// channel; a worker panic propagates through the scope.
fn dispatch<S, F>(
    threads: usize,
    good: &mut Engine,
    shards: &mut [S],
    patterns: &[Vec<Logic>],
    step: F,
) where
    S: Send,
    F: Fn(&mut S, &[Logic], &[Logic]) + Sync,
{
    let workers = threads.min(shards.len());
    let mut owned: Vec<Vec<&mut S>> = (0..workers).map(|_| Vec::new()).collect();
    for (k, shard) in shards.iter_mut().enumerate() {
        owned[k % workers].push(shard);
    }
    let step = &step;
    std::thread::scope(|scope| {
        let senders: Vec<_> = owned
            .into_iter()
            .map(|mut mine| {
                let (tx, rx) = sync_channel::<(usize, Arc<Vec<Vec<Logic>>>)>(LOOKAHEAD);
                scope.spawn(move || {
                    for (lo, traces) in rx {
                        for shard in &mut mine {
                            for (p, t) in patterns[lo..].iter().zip(traces.iter()) {
                                step(shard, p, t);
                            }
                        }
                    }
                });
                tx
            })
            .collect();
        for (k, block) in patterns.chunks(BLOCK).enumerate() {
            let traces: Arc<Vec<Vec<Logic>>> =
                Arc::new(block.iter().map(|p| good.good_cycle(p)).collect());
            for tx in &senders {
                // A closed channel means its worker panicked; stop
                // producing and let the scope re-raise that panic.
                if tx.send((k * BLOCK, Arc::clone(&traces))).is_err() {
                    return;
                }
            }
        }
    });
}

struct Shard<P: Probe> {
    engine: Engine<P>,
    /// Global fault index per local fault id (ascending).
    global: Vec<usize>,
}

/// The concurrent fault simulator, generic over the [`FaultModel`]: `P`
/// engines over disjoint fault shards, one shared good machine.
///
/// One shard is the serial simulator of the paper: it holds no good
/// engine, starts no worker thread, and its engine steps its own good
/// machine. [`ShardedSim::new`], [`ShardedSim::instrumented`] and
/// [`ShardedSim::with_probe`] build that one-shard simulator;
/// [`ShardedSim::sharded`] and the `with_probes*` constructors spread the
/// faults over worker threads. The serial-only accessors
/// ([`step`](Self::step), [`probe`](Self::probe),
/// [`metrics`](Self::metrics), [`checkpoint`](Self::checkpoint), …) panic
/// on more than one shard.
///
/// # Examples
///
/// ```
/// use cfs_core::{ConcurrentSim, CsimVariant, ShardPlan};
/// use cfs_faults::collapse_stuck_at;
/// use cfs_logic::parse_pattern;
/// use cfs_netlist::data::s27;
///
/// let circuit = s27();
/// let faults = collapse_stuck_at(&circuit).representatives;
/// let mut par = ConcurrentSim::sharded(
///     &circuit, &faults, CsimVariant::Mv.options(), 4, ShardPlan::RoundRobin);
/// let mut serial = ConcurrentSim::new(&circuit, &faults, CsimVariant::Mv.options());
/// let patterns: Vec<_> = ["0000", "1111", "0101", "1010"]
///     .iter()
///     .map(|p| parse_pattern(p))
///     .collect::<Result<_, _>>()?;
/// let rp = par.run(&patterns);
/// let rs = serial.run(&patterns);
/// assert_eq!(rp.statuses, rs.statuses);
/// # Ok::<(), cfs_logic::ParseLogicError>(())
/// ```
pub struct ShardedSim<M: FaultModel, P: Probe = NullProbe> {
    shards: Vec<Shard<P>>,
    /// Fault-free engine advancing the shared good machine; built only
    /// when there is more than one shard.
    good: Option<Engine>,
    options: M::Options,
    plan: ShardPlan,
    circuit_name: String,
    num_faults: usize,
    /// Worker threads (may differ from the shard count; worker `w`
    /// owns shards `w, w + threads, …`).
    threads: usize,
}

/// Another name for [`ConcurrentSim`](crate::ConcurrentSim), kept for
/// existing callers.
pub type ParallelSim<P = NullProbe> = ShardedSim<StuckAt, P>;

impl<M: FaultModel, P: Probe> fmt::Debug for ShardedSim<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSim")
            .field("model", &M::CHECKPOINT)
            .field("circuit", &self.circuit_name)
            .field("faults", &self.num_faults)
            .field("threads", &self.threads)
            .field("shards", &self.shards.len())
            .field("plan", &self.plan)
            .field("options", &self.options)
            .finish()
    }
}

impl<M: FaultModel> ShardedSim<M> {
    /// The serial simulator: compiles the circuit (and, for stuck-at
    /// `-M`, its macro cells) with the whole fault universe on one
    /// engine. It carries no probe and pays no instrumentation cost.
    pub fn new(circuit: &Circuit, faults: &[M], options: M::Options) -> Self {
        Self::with_probe(circuit, faults, options, NullProbe)
    }

    /// Shards `faults` across `threads` engines per `plan` (see
    /// [`ShardedSim::with_probes`]). Each shard carries no probe.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn sharded(
        circuit: &Circuit,
        faults: &[M],
        options: M::Options,
        threads: usize,
        plan: ShardPlan,
    ) -> Self {
        Self::with_probes(circuit, faults, options, threads, plan, None, |_| NullProbe)
    }
}

impl<M: FaultModel> ShardedSim<M, SimMetrics> {
    /// Like [`ShardedSim::new`], but with a recording [`SimMetrics`]
    /// probe attached: per-pattern counters, histograms, and phase times
    /// accumulate as the simulation runs.
    pub fn instrumented(circuit: &Circuit, faults: &[M], options: M::Options) -> Self {
        Self::with_probe(circuit, faults, options, SimMetrics::new())
    }

    /// The accumulated telemetry of a one-shard simulator (a sharded one
    /// merges its shards through [`ShardedSim::snapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if the simulator has more than one shard.
    pub fn metrics(&self) -> &SimMetrics {
        self.probe()
    }
}

impl<M: FaultModel, P: Probe + AsRef<SimMetrics>> ShardedSim<M, P> {
    /// Telemetry merged across all shards: counters summed, peaks maxed,
    /// rates recomputed (see [`MetricsSnapshot::merge_shard`]). The good
    /// engine's once-per-pattern work is folded into the event and
    /// good-evaluation totals so the sum stays comparable to a serial run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut merged: Option<MetricsSnapshot> = None;
        for metrics in self.shard_metrics() {
            let snap = metrics.snapshot("", &self.circuit_name);
            match merged.as_mut() {
                None => merged = Some(snap),
                Some(m) => m.merge_shard(&snap),
            }
        }
        let mut snap = merged.unwrap_or_default();
        snap.simulator = self.name();
        snap.circuit = self.circuit_name.clone();
        if let Some(good) = &self.good {
            snap.events += good.events;
            snap.good_evals += good.good_evals;
        }
        snap
    }

    /// Per-shard metric recorders, in shard order.
    pub fn shard_metrics(&self) -> impl Iterator<Item = &SimMetrics> {
        self.shards.iter().map(|s| s.engine.probe.as_ref())
    }
}

impl<M: FaultModel, P: Probe> ShardedSim<M, P> {
    /// Like [`ShardedSim::new`], with an arbitrary probe attached (e.g.
    /// a trace recorder).
    pub fn with_probe(circuit: &Circuit, faults: &[M], options: M::Options, probe: P) -> Self {
        let mut probe = Some(probe);
        Self::with_partition(
            circuit,
            faults,
            options,
            1,
            vec![(0..faults.len()).collect()],
            |_| probe.take().expect("one shard takes one probe"),
        )
    }

    /// The fully general constructor: one shard per thread, but never
    /// more shards than faults (so no engine or worker is spent on an
    /// empty shard), partitioned per `plan` on `keys` when given and on
    /// site logic levels otherwise. `probe(shard_index)` is attached to
    /// each shard — the hook for per-shard trace recorders and other
    /// custom probes.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or a key slice has the wrong length.
    pub fn with_probes(
        circuit: &Circuit,
        faults: &[M],
        options: M::Options,
        threads: usize,
        plan: ShardPlan,
        keys: Option<&[u32]>,
        probe: impl FnMut(usize) -> P,
    ) -> Self {
        let shards = threads.min(faults.len()).max(1);
        Self::with_probes_sharded(circuit, faults, options, threads, shards, plan, keys, probe)
    }

    /// [`ShardedSim::with_probes`] with exactly `shards` fault partitions
    /// driven by `threads` workers; worker `w` owns shards
    /// `w, w + threads, …`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, `shards == 0`, or a key slice has the
    /// wrong length.
    #[allow(clippy::too_many_arguments)]
    pub fn with_probes_sharded(
        circuit: &Circuit,
        faults: &[M],
        options: M::Options,
        threads: usize,
        shards: usize,
        plan: ShardPlan,
        keys: Option<&[u32]>,
        probe: impl FnMut(usize) -> P,
    ) -> Self {
        assert!(shards > 0, "at least one shard");
        let parts = match keys {
            Some(keys) => {
                assert_eq!(keys.len(), faults.len(), "one balance key per fault");
                plan.partition(keys, shards)
            }
            None => plan.partition(&M::site_levels(circuit, faults), shards),
        };
        Self::from_parts(circuit, faults, options, threads, plan, parts, probe)
    }

    /// Builds the simulator from an explicit fault partition — the hook
    /// for adversarial load shapes (one giant shard plus empties) that no
    /// [`ShardPlan`] would produce. `parts[k]` lists shard `k`'s global
    /// fault indices; [`ShardedSim::plan`] reports the default plan.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, `parts` is empty, a part is not sorted
    /// ascending, or `parts` is not an exact cover of
    /// `0..faults.len()` (every index in exactly one part).
    pub fn with_partition(
        circuit: &Circuit,
        faults: &[M],
        options: M::Options,
        threads: usize,
        parts: Vec<Vec<usize>>,
        probe: impl FnMut(usize) -> P,
    ) -> Self {
        assert!(!parts.is_empty(), "at least one shard");
        Self::from_parts(
            circuit,
            faults,
            options,
            threads,
            ShardPlan::default(),
            parts,
            probe,
        )
    }

    fn from_parts(
        circuit: &Circuit,
        faults: &[M],
        options: M::Options,
        threads: usize,
        plan: ShardPlan,
        parts: Vec<Vec<usize>>,
        mut probe: impl FnMut(usize) -> P,
    ) -> Self {
        assert!(threads > 0, "at least one thread");
        assert_exact_cover(&parts, faults.len());
        let shards: Vec<Shard<P>> = parts
            .into_iter()
            .enumerate()
            .map(|(k, global)| {
                let subset: Vec<M> = global.iter().map(|&i| faults[i]).collect();
                Shard {
                    engine: M::engine(circuit, &subset, &options, probe(k)),
                    global,
                }
            })
            .collect();
        // The good engine must live on the same compiled network shape as
        // the shards (macro collapsing renumbers nodes). It has no fault
        // lists for the quiescence gate to fence, so it runs ungated.
        let good = (shards.len() > 1).then(|| {
            let mut good = M::engine(circuit, &[], &options, NullProbe);
            good.quiesce_window = 0;
            good
        });
        ShardedSim {
            shards,
            good,
            options,
            plan,
            circuit_name: circuit.name().to_owned(),
            num_faults: faults.len(),
            threads,
        }
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fault-shard count: the thread count, clamped to the fault count,
    /// unless constructed with an explicit shard count or partition.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The sharding plan in use.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// The display name: the model's (`csim-MV`, `csim-T`, …), suffixed
    /// `-pN` when `N > 1` worker threads drive it.
    fn name(&self) -> String {
        let base = M::name(&self.options);
        if self.threads == 1 {
            base.to_owned()
        } else {
            format!("{base}-p{}", self.threads)
        }
    }

    /// Forces the good-machine flip-flop state on every shard and the
    /// shared good engine.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the flip-flop count.
    pub fn set_state(&mut self, state: &[Logic]) {
        if let Some(good) = &mut self.good {
            good.set_dff_state(state);
        }
        for shard in &mut self.shards {
            shard.engine.set_dff_state(state);
        }
    }

    /// Forces every shard's per-pattern invariant verifier on (or off)
    /// regardless of the build profile — the CLI's `--paranoid`.
    pub fn set_paranoid(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.engine.verify = on;
        }
    }

    /// Per-shard probes paired with their global fault maps
    /// (`map[local id] = global index`), in shard order — what a trace
    /// exporter needs to merge shard streams onto global fault ids.
    pub fn shard_probes(&self) -> impl Iterator<Item = (&P, &[usize])> {
        self.shards
            .iter()
            .map(|s| (&s.engine.probe, s.global.as_slice()))
    }

    /// Captures a pattern-boundary checkpoint of a one-shard simulator.
    /// Call only between runs.
    ///
    /// # Panics
    ///
    /// Panics if the simulator has more than one shard: a checkpoint
    /// holds one engine.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(self.serial_engine(), M::CHECKPOINT)
    }

    /// Restores a checkpoint into a one-shard simulator configured like
    /// the one that captured it (same circuit, fault universe, and
    /// options).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the checkpoint does not match
    /// this simulator's model or configuration.
    ///
    /// # Panics
    ///
    /// Panics if the simulator has more than one shard.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        ck.restore_into(self.serial_engine_mut(), M::CHECKPOINT)
    }

    /// The engine of a one-shard simulator.
    fn serial_engine(&self) -> &Engine<P> {
        assert_eq!(self.shards.len(), 1, "needs a one-shard simulator");
        &self.shards[0].engine
    }

    fn serial_engine_mut(&mut self) -> &mut Engine<P> {
        assert_eq!(self.shards.len(), 1, "needs a one-shard simulator");
        &mut self.shards[0].engine
    }

    /// Simulates one clock cycle on a one-shard simulator (both passes
    /// for the transition model).
    ///
    /// # Panics
    ///
    /// Panics if the simulator has more than one shard, or if
    /// `inputs.len()` differs from the primary-input count.
    pub fn step(&mut self, inputs: &[Logic]) -> StepResult {
        let engine = self.serial_engine_mut();
        let detections = M::step(engine, inputs, None);
        StepResult {
            outputs: engine
                .net
                .po_taps
                .iter()
                .map(|&p| engine.good[p as usize])
                .collect(),
            new_detections: detections.into_iter().map(|(f, _)| f as usize).collect(),
        }
    }

    /// The attached probe of a one-shard simulator (e.g. to drain a trace
    /// recorder after a run); see [`ShardedSim::shard_probes`] for every
    /// shard's.
    ///
    /// # Panics
    ///
    /// Panics if the simulator has more than one shard.
    pub fn probe(&self) -> &P {
        &self.serial_engine().probe
    }

    /// Per-fault statuses in the global fault order given to the
    /// constructor — bit-identical for any thread count.
    pub fn statuses(&self) -> Vec<FaultStatus> {
        let mut statuses = vec![FaultStatus::Undetected; self.num_faults];
        for shard in &self.shards {
            for (&g, s) in shard.global.iter().zip(shard.engine.statuses()) {
                statuses[g] = s;
            }
        }
        statuses
    }

    /// The deterministic merged detection list: `(global fault index,
    /// pattern)` sorted by pattern, then fault index.
    pub fn detections(&self) -> Vec<GlobalDetection> {
        detections_of(&self.statuses())
    }

    /// Faults detected so far.
    pub fn detected(&self) -> usize {
        self.shards.iter().map(|s| s.engine.detected()).sum()
    }

    /// Node activations across all shards plus the shared good engine.
    pub fn events(&self) -> u64 {
        let good = self.good.as_ref().map_or(0, |g| g.events);
        good + self.shards.iter().map(|s| s.engine.events).sum::<u64>()
    }

    /// Faulty-machine evaluations across all shards.
    pub fn fault_evaluations(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.fault_evals).sum()
    }

    /// Paper-comparable memory model summed over shards and the good
    /// engine.
    pub fn memory_bytes(&self) -> usize {
        let good = self.good.as_ref().map_or(0, Engine::memory_bytes);
        good + self
            .shards
            .iter()
            .map(|s| s.engine.memory_bytes())
            .sum::<usize>()
    }

    /// Peak live fault elements: the maximum over shards. Shards run the
    /// same pattern sequence concurrently, so the run's high-water mark is
    /// the largest single arena, not the sum of per-shard peaks (which
    /// need not coincide in time).
    pub fn peak_elements(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.arena.peak())
            .max()
            .unwrap_or(0)
    }

    /// Live fault elements right now, summed over shards.
    pub fn live_elements(&self) -> usize {
        self.shards.iter().map(|s| s.engine.arena.live()).sum()
    }

    /// Work units skipped by quiescence gating so far, summed over shards.
    pub fn quiesce_skips(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.quiesce_skips).sum()
    }

    /// Dormant-node wakes observed so far, summed over shards.
    pub fn quiesce_wakes(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.quiesce_wakes).sum()
    }

    /// Validates every shard's fault-list invariants (sorted unique
    /// lists, element accounting, permanent local elements).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation. Intended for
    /// tests and debugging; cost is linear in live elements.
    pub fn assert_invariants(&self) {
        for shard in &self.shards {
            shard.engine.assert_invariants();
        }
    }
}

impl<M: FaultModel, P: Probe + Send> ShardedSim<M, P> {
    /// Simulates a pattern sequence and assembles the merged report.
    pub fn run(&mut self, patterns: &[Vec<Logic>]) -> FaultSimReport {
        self.run_with(patterns, |_, _| {})
    }

    /// Like [`ShardedSim::run`], but calls `after_block(self, done)` on
    /// the coordinating thread after each block of patterns settles on
    /// every shard (`done` = patterns completed so far in this call). The
    /// callback sees quiescent shards, so it may read per-shard probes and
    /// merge them — the deterministic hook behind `--trace-every` progress
    /// under `--threads N`. One shard calls back as it goes; on sharded
    /// runs the callbacks replay after the workers finish, and because
    /// probes record per-pattern, the merged view at each boundary is
    /// identical to a barriered run's.
    pub fn run_with(
        &mut self,
        patterns: &[Vec<Logic>],
        mut after_block: impl FnMut(&Self, usize),
    ) -> FaultSimReport {
        let start = Instant::now();
        let mut done = 0usize;
        if let Some(good) = &mut self.good {
            dispatch(
                self.threads,
                good,
                &mut self.shards,
                patterns,
                |shard: &mut Shard<P>, p, t| {
                    M::step(&mut shard.engine, p, Some(t));
                },
            );
            for block in patterns.chunks(BLOCK) {
                done += block.len();
                after_block(self, done);
            }
        } else {
            for block in patterns.chunks(BLOCK) {
                for p in block {
                    M::step(&mut self.shards[0].engine, p, None);
                }
                done += block.len();
                after_block(self, done);
            }
        }
        FaultSimReport {
            simulator: self.name(),
            circuit: self.circuit_name.clone(),
            patterns: patterns.len(),
            statuses: self.statuses(),
            cpu: start.elapsed(),
            memory_bytes: self.memory_bytes(),
            events: self.events(),
            evaluations: self.fault_evaluations(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stuck::{ConcurrentSim, CsimVariant};
    use crate::transition::{TransitionOptions, TransitionSim};
    use cfs_faults::{collapse_stuck_at, enumerate_stuck_at, enumerate_transition};
    use cfs_logic::parse_pattern;
    use cfs_netlist::data::s27;

    fn patterns() -> Vec<Vec<Logic>> {
        [
            "0000", "1111", "0101", "1010", "0011", "1100", "0110", "1001",
        ]
        .iter()
        .map(|p| parse_pattern(p).unwrap())
        .collect()
    }

    #[test]
    fn every_plan_is_an_exact_cover() {
        let levels: Vec<u32> = (0..37).map(|i| (i * 7) % 11).collect();
        for plan in ShardPlan::ALL {
            for shards in [1, 2, 3, 5, 37, 50] {
                let parts = plan.partition(&levels, shards);
                assert_eq!(parts.len(), shards);
                let mut seen = vec![false; levels.len()];
                for part in &parts {
                    assert!(part.windows(2).all(|w| w[0] < w[1]), "{plan}: sorted");
                    for &i in part {
                        assert!(!seen[i], "{plan}: fault {i} duplicated");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "{plan}: fault lost");
            }
        }
    }

    #[test]
    fn weight_aware_balances_sizes_and_weights() {
        // Heavily skewed weights: a few expensive faults, many cheap ones.
        let weights: Vec<u32> = (0..23).map(|i| if i < 3 { 1000 } else { i }).collect();
        for shards in [2, 3, 4, 7] {
            let parts = ShardPlan::WeightAware.partition(&weights, shards);
            let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
            let (smin, smax) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(smax - smin <= 1, "sizes {sizes:?} not within one");
            let totals: Vec<u32> = parts
                .iter()
                .map(|p| p.iter().map(|&i| weights[i]).sum())
                .collect();
            // The heavy faults must spread as evenly as arithmetic allows,
            // never pile onto one shard.
            let heavy: Vec<usize> = parts
                .iter()
                .map(|p| p.iter().filter(|&&i| weights[i] == 1000).count())
                .collect();
            let (hmin, hmax) = (heavy.iter().min().unwrap(), heavy.iter().max().unwrap());
            assert!(
                hmax - hmin <= 1,
                "shards={shards} heavies {heavy:?} totals {totals:?}"
            );
        }
    }

    #[test]
    fn keyed_partition_matches_serial_results() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let mut serial = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
        let reference = serial.run(&patterns());
        // Arbitrary keys: results must not depend on the partition.
        let keys: Vec<u32> = (0..faults.len() as u32).map(|i| (i * 37) % 13).collect();
        for plan in [ShardPlan::WeightAware, ShardPlan::LevelAware] {
            let mut par = ConcurrentSim::with_probes(
                &c,
                &faults,
                CsimVariant::Mv.options(),
                3,
                plan,
                Some(&keys),
                |_| NullProbe,
            );
            assert_eq!(par.run(&patterns()).statuses, reference.statuses, "{plan}");
        }
        let tfaults = enumerate_transition(&c);
        let mut tserial = TransitionSim::new(&c, &tfaults, TransitionOptions::default());
        let treference = tserial.run(&patterns());
        let tkeys: Vec<u32> = (0..tfaults.len() as u32).map(|i| (i * 31) % 7).collect();
        let mut tpar = TransitionSim::with_probes(
            &c,
            &tfaults,
            TransitionOptions::default(),
            3,
            ShardPlan::WeightAware,
            Some(&tkeys),
            |_| NullProbe,
        );
        assert_eq!(tpar.run(&patterns()).statuses, treference.statuses);
    }

    #[test]
    fn parallel_matches_serial_on_s27() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let mut serial = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
        let reference = serial.run(&patterns());
        for threads in [1, 2, 3, 5] {
            for plan in ShardPlan::ALL {
                let mut par =
                    ConcurrentSim::sharded(&c, &faults, CsimVariant::Mv.options(), threads, plan);
                let report = par.run(&patterns());
                assert_eq!(
                    report.statuses, reference.statuses,
                    "threads={threads} plan={plan}"
                );
            }
        }
    }

    #[test]
    fn parallel_transition_matches_serial_on_s27() {
        let c = s27();
        let faults = enumerate_transition(&c);
        let mut serial = TransitionSim::new(&c, &faults, TransitionOptions::default());
        let reference = serial.run(&patterns());
        for threads in [1, 2, 4] {
            let mut par = TransitionSim::sharded(
                &c,
                &faults,
                TransitionOptions::default(),
                threads,
                ShardPlan::RoundRobin,
            );
            let report = par.run(&patterns());
            assert_eq!(report.statuses, reference.statuses, "threads={threads}");
        }
    }

    #[test]
    fn detections_sorted_by_pattern_then_fault() {
        let statuses = vec![
            FaultStatus::Detected { pattern: 3 },
            FaultStatus::Undetected,
            FaultStatus::Detected { pattern: 0 },
            FaultStatus::Detected { pattern: 3 },
            FaultStatus::Untestable,
            FaultStatus::Detected { pattern: 1 },
        ];
        assert_eq!(
            detections_of(&statuses),
            vec![(2, 0), (5, 1), (0, 3), (3, 3)]
        );
    }

    #[test]
    fn merged_snapshot_counts_all_shards() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let mut par = ConcurrentSim::with_probes(
            &c,
            &faults,
            CsimVariant::Mv.options(),
            3,
            ShardPlan::LevelAware,
            None,
            |_| SimMetrics::new(),
        );
        let report = par.run(&patterns());
        let snap = par.snapshot();
        assert_eq!(snap.patterns as usize, patterns().len());
        assert_eq!(snap.detected as usize, report.detected());
        assert_eq!(snap.events, report.events);
        assert_eq!(snap.fault_evals, report.evaluations);
        assert!(snap.simulator.ends_with("-p3"), "{}", snap.simulator);
    }

    #[test]
    fn one_shard_holds_no_good_engine() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let serial = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
        assert!(
            serial.good.is_none(),
            "one shard steps its own good machine"
        );
        let oversubscribed = ConcurrentSim::with_probes_sharded(
            &c,
            &faults,
            CsimVariant::Mv.options(),
            4,
            1,
            ShardPlan::RoundRobin,
            None,
            |_| NullProbe,
        );
        assert!(oversubscribed.good.is_none());
        let sharded = ConcurrentSim::sharded(
            &c,
            &faults,
            CsimVariant::Mv.options(),
            2,
            ShardPlan::RoundRobin,
        );
        assert!(sharded.good.is_some());
    }

    #[test]
    fn shard_count_is_clamped_to_the_fault_count() {
        let c = s27();
        let faults = collapse_stuck_at(&c).representatives;
        let reference = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options()).run(&patterns());
        let mut par = ConcurrentSim::sharded(
            &c,
            &faults,
            CsimVariant::Mv.options(),
            64,
            ShardPlan::RoundRobin,
        );
        assert_eq!(par.num_shards(), 26, "one shard per collapsed s27 fault");
        assert_eq!(par.threads(), 64);
        let report = par.run(&patterns());
        assert_eq!(report.simulator, "csim-MV-p64");
        assert_eq!(report.statuses, reference.statuses);
        assert_eq!(par.detections(), detections_of(&reference.statuses));
        let none = TransitionSim::sharded(
            &c,
            &[],
            TransitionOptions::default(),
            8,
            ShardPlan::RoundRobin,
        );
        assert_eq!(
            none.num_shards(),
            1,
            "an empty universe still gets one shard"
        );
    }

    #[test]
    fn one_shard_checkpoint_resumes_like_a_cold_run() {
        let c = s27();
        let faults = enumerate_transition(&c);
        let pats = patterns();
        let options = TransitionOptions::default();
        let cold = TransitionSim::new(&c, &faults, options.clone()).run(&pats);
        let mut first = TransitionSim::new(&c, &faults, options.clone());
        first.run(&pats[..3]);
        let ck = first.checkpoint();
        assert_eq!(ck.pattern_index(), 3);
        let mut resumed = TransitionSim::new(&c, &faults, options);
        resumed.restore(&ck).unwrap();
        resumed.run(&pats[3..]);
        assert_eq!(resumed.statuses(), cold.statuses);
        let mut stuck = ConcurrentSim::new(&c, &enumerate_stuck_at(&c), CsimVariant::Mv.options());
        assert!(
            stuck.restore(&ck).is_err(),
            "a transition checkpoint is refused by a stuck-at sim"
        );
    }

    #[test]
    #[should_panic(expected = "needs a one-shard simulator")]
    fn serial_only_accessors_refuse_a_sharded_sim() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let mut par = ConcurrentSim::sharded(
            &c,
            &faults,
            CsimVariant::Mv.options(),
            2,
            ShardPlan::RoundRobin,
        );
        par.step(&patterns()[0]);
    }
}
