//! The `BENCH.json` performance harness: one documented command that runs
//! the bundled ISCAS-style example circuits across every concurrent-engine
//! configuration (all four `csim` variants plus `csim-T`, serial and
//! fault-sharded parallel) and records a machine-readable trajectory —
//! wall time, events per pattern, detection counts, peak arena bytes, and
//! per-phase timings from the existing telemetry.
//!
//! ```text
//! cargo run --release -p cfs-bench --bin repro-tables -- --bench-json BENCH.json
//! ```
//!
//! Every cell times the one simulator users run, `cfs_core::ShardedSim`
//! (one shard for serial cells), through one generic `Bench::measure`.
//!
//! The JSON is stable and diffable: work and memory counters (`events`,
//! `detected`, `peak_elements`, `memory_bytes`) are deterministic for a
//! given circuit/seed and act as a drift gate in CI (`--bench-check`),
//! while timings are advisory. Passing
//! `--bench-baseline FILE` embeds a previously recorded run and computes
//! wall-time speedups against it, which is how a perf PR records a real
//! before/after trajectory.
//!
//! Every stuck-at and transition cell has a `-pruned` twin that runs the
//! statically pruned universe (`cfs_check::prune_stuck_at` /
//! `prune_transition`) and records both the simulated and the full
//! uncollapsed fault count, so the trajectory captures how much work the
//! static analyses remove. Pruned cells report full-universe detection
//! counts (after expansion), making them comparable to an `--uncollapsed`
//! run.
//!
//! Each circuit additionally carries a serial `csim-MV-learned` and a
//! `csim-T-learned` cell: the `-pruned` twin under implication learning
//! (`--prune --learn`), simulating the conflict-pruned universe from
//! `prune_stuck_at_learned` / `prune_transition_learned`. Because
//! `faults` / `faults_full` are part of the drift gate, these cells pin
//! the learned-universe sizes — a regression in pruning power shows up
//! as workload drift in `--bench-check`.
//!
//! Each circuit also carries a `csim-MV-incremental` and a
//! `csim-T-incremental` cell: a scripted dead-logic edit is applied, the
//! change-impact analysis splits the edited circuit's uncollapsed
//! universe into affected and transferred faults, and only the affected
//! cone is re-simulated (the CLI's `--incremental`); the baseline run
//! that fates transfer from is untimed. `faults` records the affected
//! count, `faults_full` the full universe, and `detected` the
//! full-universe detections after fate transfer, so the cell is directly
//! comparable to an `--uncollapsed` run and the drift gate pins the
//! transfer split itself.
//!
//! Finally each circuit carries the quiescence trio — `csim-MV-hold`,
//! `csim-MV-quiesce`, and `csim-MV-resume` — serial cells on burst-idle
//! stimulus (a random vector held 4 cycles, then 12 cycles of the
//! all-zero idle vector, so the circuit actually goes quiet between
//! functional bursts). `-hold` is the ungated reference, `-quiesce` the
//! same run under the engine's quiescence gate (`--quiesce-window 2`;
//! the harness asserts detections stay bit-identical), and `-resume`
//! times the second half of the gated run after restoring a
//! byte-round-tripped mid-run checkpoint into a fresh simulator, with
//! the full run's counters (the checkpoint restores them) so the drift
//! gate pins restart determinism too.

use std::time::Instant;

use cfs_check::{
    analyze_circuit, classify_stuck_at, classify_transition, diff_netlists, impact_analysis,
    prune_stuck_at, prune_stuck_at_learned, prune_transition, prune_transition_learned,
    ImplicationGraph, LearnOptions,
};
use cfs_core::{
    Arena, Checkpoint, ConcurrentSim, CsimOptions, CsimVariant, FaultModel, Probe, ShardPlan,
    ShardedSim, SimMetrics, TransitionOptions, TransitionSim,
};
use cfs_faults::{collapse_stuck_at, enumerate_stuck_at, enumerate_transition, FaultStatus};
use cfs_logic::Logic;
use cfs_netlist::{apply_edit, BenchEdit, Circuit};
use cfs_telemetry::{write_json_f64, write_json_string, JsonValue, MetricsSnapshot, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default circuit list: the bundled `examples/bench` netlists, smallest to
/// largest (the last one is the headline speedup circuit).
pub const DEFAULT_CIRCUITS: &[&str] = &["s27", "s298g", "s641g", "s1238g"];

/// Configuration of one harness invocation.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Circuits to run (`s27` or generated `s*g` benchmark names).
    pub circuits: Vec<String>,
    /// Random patterns per circuit.
    pub patterns: usize,
    /// Thread counts: `1` is the serial engine, anything larger the
    /// fault-sharded parallel engine.
    pub threads: Vec<usize>,
    /// Timing repetitions; the recorded wall time is the minimum.
    pub repeats: usize,
    /// Seed for the pattern generator.
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            circuits: DEFAULT_CIRCUITS.iter().map(|s| (*s).to_owned()).collect(),
            patterns: 256,
            threads: vec![1, 2],
            repeats: 3,
            seed: 0x01992DAC,
        }
    }
}

/// One measured configuration: a circuit × simulator variant × thread
/// count.
#[derive(Debug, Clone)]
pub struct PerfRun {
    /// Circuit name.
    pub circuit: String,
    /// Simulator name (`csim`, `csim-V`, `csim-M`, `csim-MV`, `csim-T`).
    pub variant: String,
    /// Worker threads (1 = serial path).
    pub threads: usize,
    /// Patterns simulated.
    pub patterns: usize,
    /// Faults actually simulated.
    pub faults: usize,
    /// Full uncollapsed universe behind a `-pruned` cell (`0` for plain
    /// cells, which simulate classically collapsed representatives).
    pub faults_full: usize,
    /// Minimum wall time over the configured repeats, in seconds.
    pub wall_seconds: f64,
    /// Node activations (deterministic work measure).
    pub events: u64,
    /// `events / patterns`.
    pub events_per_pattern: f64,
    /// Faults detected (deterministic).
    pub detected: usize,
    /// Peak live fault elements across all engines.
    pub peak_elements: usize,
    /// Peak fault-element storage in bytes (`peak_elements ×
    /// ELEMENT_BYTES`).
    pub peak_arena_bytes: usize,
    /// Full modeled memory in bytes.
    pub memory_bytes: usize,
    /// Per-phase seconds from one instrumented repetition, in
    /// [`Phase::ALL`] order (zero entries omitted from the JSON).
    pub phase_seconds: Vec<(&'static str, f64)>,
}

impl PerfRun {
    /// Stable identity key within a BENCH.json file.
    pub fn key(&self) -> String {
        format!("{}/{}/t{}", self.circuit, self.variant, self.threads)
    }
}

/// Resolves a harness circuit name (the paper's `s27` or a generated
/// benchmark).
///
/// # Panics
///
/// Panics on an unknown name.
pub fn perf_circuit(name: &str) -> Circuit {
    if name == "s27" {
        cfs_netlist::data::s27()
    } else {
        cfs_netlist::generate::benchmark(name)
            .unwrap_or_else(|| panic!("unknown benchmark circuit {name:?}"))
    }
}

fn random_patterns(circuit: &Circuit, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..circuit.num_inputs())
                .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// Shape of the quiescence cells' stimulus: fresh random vectors every
/// cycle never let the circuit go quiet, so each burst drives
/// [`QUIESCE_ACTIVE`] cycles of a held random vector (excitation plus
/// settling) followed by [`QUIESCE_QUIET`] cycles of the all-zero idle
/// vector — a functional burst separated by the idle spans the gate
/// targets.
const QUIESCE_ACTIVE: usize = 4;
const QUIESCE_QUIET: usize = 12;

/// Gating window for the `-quiesce` and `-resume` cells (the CLI's
/// `--quiesce-window`).
const QUIESCE_WINDOW: u32 = 2;

/// Burst-idle stimulus for the quiescence cells (see [`QUIESCE_ACTIVE`]),
/// truncated to exactly `count` patterns so the cells stay comparable to
/// the harness's plain cells.
fn hold_patterns(circuit: &Circuit, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let idle = vec![Logic::Zero; circuit.num_inputs()];
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let p: Vec<Logic> = (0..circuit.num_inputs())
            .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
            .collect();
        for i in 0..QUIESCE_ACTIVE + QUIESCE_QUIET {
            if out.len() == count {
                break;
            }
            out.push(if i < QUIESCE_ACTIVE {
                p.clone()
            } else {
                idle.clone()
            });
        }
    }
    out
}

fn phase_seconds(snap: &MetricsSnapshot) -> Vec<(&'static str, f64)> {
    Phase::ALL
        .iter()
        .map(|&p| (p.name(), snap.phases.get(p).as_secs_f64()))
        .filter(|&(_, s)| s > 0.0)
        .collect()
}

/// Faults detected in a status vector.
fn count_detected(statuses: &[FaultStatus]) -> usize {
    statuses.iter().filter(|s| s.is_detected()).count()
}

/// Copies a finished simulator's deterministic counters into `run`.
fn record<M: FaultModel, P: Probe>(run: &mut PerfRun, sim: &ShardedSim<M, P>, detected: usize) {
    run.events = sim.events();
    run.events_per_pattern = run.events as f64 / run.patterns.max(1) as f64;
    run.detected = detected;
    // With threads the per-shard maximum: shards partition the fault
    // universe, so the widest shard bounds the widest per-engine arena a
    // reader has to provision for.
    run.peak_elements = sim.peak_elements();
    run.peak_arena_bytes = run.peak_elements * Arena::ELEMENT_BYTES;
    run.memory_bytes = sim.memory_bytes();
}

/// What every cell of one circuit shares: the circuit simulated, its
/// stimulus, and the number of timed repeats.
#[derive(Clone, Copy)]
struct Bench<'a> {
    circuit: &'a Circuit,
    patterns: &'a [Vec<Logic>],
    repeats: usize,
}

impl Bench<'_> {
    /// An unmeasured cell: identity and workload filled in, counters zero.
    fn cell(self, variant: String, threads: usize, faults: usize, faults_full: usize) -> PerfRun {
        PerfRun {
            circuit: self.circuit.name().to_owned(),
            variant,
            threads,
            patterns: self.patterns.len(),
            faults,
            faults_full,
            wall_seconds: f64::INFINITY,
            events: 0,
            events_per_pattern: 0.0,
            detected: 0,
            peak_elements: 0,
            peak_arena_bytes: 0,
            memory_bytes: 0,
            phase_seconds: Vec::new(),
        }
    }

    /// Measures one cell on the [`ShardedSim`] users run: one shard for
    /// `threads == 1`, round-robin fault shards otherwise. The wall time is
    /// the minimum over the timed uninstrumented repeats, the phase
    /// breakdown comes from one more, instrumented run. The cell is named
    /// after the simulator plus `suffix` (`csim-MV-pruned`, …);
    /// `faults_full` is the universe behind a reduced cell (`0` for plain
    /// cells), and `detected` maps a run's statuses to the cell's detection
    /// count — a plain count, or the full-universe count after expanding a
    /// pruned or incremental universe.
    fn measure<M: FaultModel>(
        self,
        faults: &[M],
        options: &M::Options,
        threads: usize,
        suffix: &str,
        faults_full: usize,
        mut detected: impl FnMut(&[FaultStatus]) -> usize,
    ) -> PerfRun {
        let variant = format!("{}{suffix}", M::name(options));
        let mut run = self.cell(variant, threads, faults.len(), faults_full);
        for _ in 0..self.repeats.max(1) {
            let mut sim = ShardedSim::sharded(
                self.circuit,
                faults,
                options.clone(),
                threads,
                ShardPlan::RoundRobin,
            );
            let start = Instant::now();
            let report = sim.run(self.patterns);
            run.wall_seconds = run.wall_seconds.min(start.elapsed().as_secs_f64());
            record(&mut run, &sim, detected(&report.statuses));
        }
        let mut sim = ShardedSim::with_probes(
            self.circuit,
            faults,
            options.clone(),
            threads,
            ShardPlan::RoundRobin,
            None,
            |_| SimMetrics::new(),
        );
        sim.run(self.patterns);
        run.phase_seconds = phase_seconds(&sim.snapshot());
        run
    }

    /// The `-resume` cell: the serial run checkpointed at the halfway
    /// boundary, round-tripped through the checkpoint's byte
    /// serialization, and restored into a fresh simulator. The wall time
    /// covers only the resumed second half; the counters are the full
    /// run's (the checkpoint restores them), and the statuses must equal
    /// `cold`, the uninterrupted run's.
    fn measure_resume<M: FaultModel>(
        self,
        faults: &[M],
        options: &M::Options,
        suffix: &str,
        cold: &[FaultStatus],
    ) -> PerfRun {
        let (head, tail) = self.patterns.split_at(self.patterns.len() / 2);
        let halfway = || {
            let mut first = ShardedSim::new(self.circuit, faults, options.clone());
            first.run(head);
            Checkpoint::from_bytes(&first.checkpoint().to_bytes()).expect("checkpoint round trip")
        };
        let variant = format!("{}{suffix}", M::name(options));
        let mut run = self.cell(variant, 1, faults.len(), 0);
        for _ in 0..self.repeats.max(1) {
            let snapshot = halfway();
            let mut sim = ShardedSim::new(self.circuit, faults, options.clone());
            sim.restore(&snapshot).expect("checkpoint restore");
            let start = Instant::now();
            let report = sim.run(tail);
            run.wall_seconds = run.wall_seconds.min(start.elapsed().as_secs_f64());
            assert_eq!(
                report.statuses,
                cold,
                "{}: resume diverged from the cold run",
                self.circuit.name()
            );
            record(&mut run, &sim, sim.detected());
        }
        let mut sim = ShardedSim::instrumented(self.circuit, faults, options.clone());
        sim.restore(&halfway()).expect("checkpoint restore");
        sim.run(tail);
        run.phase_seconds = phase_seconds(&sim.snapshot());
        run
    }
}

/// Runs the whole harness: every circuit × the four stuck-at variants ×
/// every thread count (each with its `-pruned` twin), plus one serial
/// `csim-T` row, its `-pruned` twin, the serial `csim-MV-learned` /
/// `csim-T-learned` cells, the two `-incremental` cells, and the
/// quiescence trio (`csim-MV-hold` / `-quiesce` / `-resume`) per
/// circuit (see the module docs for what each cell measures).
pub fn run_perf(config: &PerfConfig) -> Vec<PerfRun> {
    let mut runs = Vec::new();
    for name in &config.circuits {
        let c = &perf_circuit(name);
        let patterns = random_patterns(c, config.patterns, config.seed);
        let bench = Bench {
            circuit: c,
            patterns: &patterns,
            repeats: config.repeats,
        };
        let analysis = analyze_circuit(c);
        let pruned_stuck = prune_stuck_at(c, &analysis);
        let pruned_transition = prune_transition(c, &analysis);
        let graph = ImplicationGraph::build(c, &analysis, LearnOptions::default());
        let learned_stuck = prune_stuck_at_learned(c, &analysis, &graph).universe;
        let learned_transition = prune_transition_learned(c, &analysis, &graph);
        let collapsed = collapse_stuck_at(c).representatives;
        let mv = CsimVariant::Mv.options();
        let transition = TransitionOptions::default();

        for variant in CsimVariant::ALL {
            let options = variant.options();
            for &threads in &config.threads {
                runs.push(bench.measure(&collapsed, &options, threads, "", 0, count_detected));
                runs.push(bench.measure(
                    &pruned_stuck.sim,
                    &options,
                    threads,
                    "-pruned",
                    pruned_stuck.stats.full,
                    |s| count_detected(&pruned_stuck.expand_statuses(s)),
                ));
            }
        }
        runs.push(bench.measure(
            &learned_stuck.sim,
            &mv,
            1,
            "-learned",
            learned_stuck.stats.full,
            |s| count_detected(&learned_stuck.expand_statuses(s)),
        ));
        let transition_faults = enumerate_transition(c);
        runs.push(bench.measure(&transition_faults, &transition, 1, "", 0, count_detected));
        for (universe, suffix) in [
            (&pruned_transition, "-pruned"),
            (&learned_transition, "-learned"),
        ] {
            runs.push(bench.measure(
                &universe.sim,
                &transition,
                1,
                suffix,
                universe.stats.full,
                |s| count_detected(&universe.expand_statuses(s)),
            ));
        }

        let applied =
            apply_edit(c, BenchEdit::DeadLogic, 0).expect("dead logic applies to every fixture");
        let edited = Bench {
            circuit: &applied.circuit,
            ..bench
        };
        let impact = impact_analysis(
            c,
            edited.circuit,
            diff_netlists(c, edited.circuit, None, None),
        );
        let stuck_impact = classify_stuck_at(c, edited.circuit, &impact);
        let baseline = ConcurrentSim::new(c, &enumerate_stuck_at(c), mv.clone())
            .run(&patterns)
            .statuses;
        runs.push(edited.measure(
            &stuck_impact.affected,
            &mv,
            1,
            "-incremental",
            stuck_impact.stats.full,
            |s| count_detected(&stuck_impact.expand_statuses(s, &baseline)),
        ));
        let transition_impact = classify_transition(c, edited.circuit, &impact);
        let baseline = TransitionSim::new(c, &transition_faults, transition.clone())
            .run(&patterns)
            .statuses;
        runs.push(edited.measure(
            &transition_impact.affected,
            &transition,
            1,
            "-incremental",
            transition_impact.stats.full,
            |s| count_detected(&transition_impact.expand_statuses(s, &baseline)),
        ));

        let held = hold_patterns(c, config.patterns, config.seed);
        let hold = Bench {
            patterns: &held,
            ..bench
        };
        let gated = CsimOptions {
            quiesce_window: QUIESCE_WINDOW,
            ..mv.clone()
        };
        let mut cold = Vec::new();
        runs.push(hold.measure(&collapsed, &mv, 1, "-hold", 0, |s| {
            cold = s.to_vec();
            count_detected(s)
        }));
        runs.push(hold.measure(&collapsed, &gated, 1, "-quiesce", 0, |s| {
            assert_eq!(s, cold, "{name}: the quiescence gate changed detections");
            count_detected(s)
        }));
        runs.push(hold.measure_resume(&collapsed, &gated, "-resume", &cold));
    }
    runs
}

fn write_run(out: &mut String, run: &PerfRun) {
    out.push_str("    {");
    out.push_str("\"circuit\": ");
    write_json_string(out, &run.circuit);
    out.push_str(", \"variant\": ");
    write_json_string(out, &run.variant);
    out.push_str(&format!(
        ", \"threads\": {}, \"patterns\": {}, \"faults\": {}, \"faults_full\": {}",
        run.threads, run.patterns, run.faults, run.faults_full
    ));
    out.push_str(", \"wall_seconds\": ");
    write_json_f64(out, run.wall_seconds);
    out.push_str(&format!(", \"events\": {}", run.events));
    out.push_str(", \"events_per_pattern\": ");
    write_json_f64(out, run.events_per_pattern);
    out.push_str(&format!(
        ", \"detected\": {}, \"peak_elements\": {}, \"peak_arena_bytes\": {}, \
         \"memory_bytes\": {}",
        run.detected, run.peak_elements, run.peak_arena_bytes, run.memory_bytes
    ));
    out.push_str(", \"phase_seconds\": {");
    for (i, (name, secs)) in run.phase_seconds.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(out, name);
        out.push_str(": ");
        write_json_f64(out, *secs);
    }
    out.push_str("}}");
}

/// Renders a harness result (and an optional embedded baseline) as the
/// `BENCH.json` document.
pub fn render_bench_json(
    config: &PerfConfig,
    runs: &[PerfRun],
    baseline: Option<(&str, &[PerfRun])>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"cfs-bench/1\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"patterns\": {}, \"repeats\": {}, \"seed\": {}, \"threads\": [{}], \
         \"circuits\": [{}]}},\n",
        config.patterns,
        config.repeats,
        config.seed,
        config
            .threads
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        config
            .circuits
            .iter()
            .map(|c| format!("{c:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        write_run(&mut out, run);
        if i + 1 < runs.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]");
    if let Some((source, base_runs)) = baseline {
        out.push_str(",\n  \"baseline\": {\"source\": ");
        write_json_string(&mut out, source);
        out.push_str(", \"runs\": [\n");
        for (i, run) in base_runs.iter().enumerate() {
            write_run(&mut out, run);
            if i + 1 < base_runs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]},\n  \"speedups\": [\n");
        let speedups = speedups_against(runs, base_runs);
        for (i, (key, base_wall, wall, ratio)) in speedups.iter().enumerate() {
            out.push_str("    {\"run\": ");
            write_json_string(&mut out, key);
            out.push_str(", \"baseline_wall_seconds\": ");
            write_json_f64(&mut out, *base_wall);
            out.push_str(", \"wall_seconds\": ");
            write_json_f64(&mut out, *wall);
            out.push_str(", \"speedup\": ");
            write_json_f64(&mut out, *ratio);
            out.push('}');
            if i + 1 < speedups.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]");
    }
    out.push_str("\n}\n");
    out
}

/// Pairs current runs with baseline runs by key and computes wall-time
/// speedups (`baseline / current`; above 1.0 means the current engine is
/// faster).
pub fn speedups_against(runs: &[PerfRun], baseline: &[PerfRun]) -> Vec<(String, f64, f64, f64)> {
    runs.iter()
        .filter_map(|run| {
            let key = run.key();
            let base = baseline.iter().find(|b| b.key() == key)?;
            let ratio = if run.wall_seconds > 0.0 {
                base.wall_seconds / run.wall_seconds
            } else {
                0.0
            };
            Some((key, base.wall_seconds, run.wall_seconds, ratio))
        })
        .collect()
}

/// Reads the `runs` array of a previously written `BENCH.json` (top-level
/// runs, not the embedded baseline). Wall times load as recorded; phase
/// breakdowns are not needed for comparisons and load empty.
///
/// # Errors
///
/// Returns a description when the file is not a harness document.
pub fn parse_bench_json(input: &str) -> Result<Vec<PerfRun>, String> {
    let doc = JsonValue::parse(input)?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "missing \"runs\" array".to_owned())?;
    let str_field = |v: &JsonValue, k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(JsonValue::as_str)
            .map(ToOwned::to_owned)
            .ok_or_else(|| format!("run missing {k:?}"))
    };
    let num_field = |v: &JsonValue, k: &str| -> Result<f64, String> {
        v.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("run missing {k:?}"))
    };
    runs.iter()
        .map(|v| {
            Ok(PerfRun {
                circuit: str_field(v, "circuit")?,
                variant: str_field(v, "variant")?,
                threads: num_field(v, "threads")? as usize,
                patterns: num_field(v, "patterns")? as usize,
                faults: num_field(v, "faults")? as usize,
                // Absent in documents written before static pruning.
                faults_full: v
                    .get("faults_full")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0) as usize,
                wall_seconds: num_field(v, "wall_seconds")?,
                events: num_field(v, "events")? as u64,
                events_per_pattern: num_field(v, "events_per_pattern")?,
                detected: num_field(v, "detected")? as usize,
                peak_elements: num_field(v, "peak_elements")? as usize,
                peak_arena_bytes: num_field(v, "peak_arena_bytes")? as usize,
                memory_bytes: num_field(v, "memory_bytes")? as usize,
                phase_seconds: Vec::new(),
            })
        })
        .collect()
}

/// Compares a fresh harness result against a checked-in baseline file's
/// runs: the deterministic work counters (`events`, and with them
/// `events_per_pattern`), detection counts, the memory counters
/// (`peak_elements`, `memory_bytes`) and the workload sizes must match
/// exactly for every configuration present in both; timing differences are
/// advisory. Returns human-readable drift descriptions (empty = pass).
pub fn check_against(runs: &[PerfRun], baseline: &[PerfRun]) -> Vec<String> {
    let mut drifts = Vec::new();
    for base in baseline {
        let key = base.key();
        let Some(run) = runs.iter().find(|r| r.key() == key) else {
            drifts.push(format!("{key}: configuration missing from this run"));
            continue;
        };
        if run.events != base.events {
            drifts.push(format!(
                "{key}: events drifted {} -> {}",
                base.events, run.events
            ));
        }
        if run.detected != base.detected {
            drifts.push(format!(
                "{key}: detections drifted {} -> {}",
                base.detected, run.detected
            ));
        }
        if run.peak_elements != base.peak_elements || run.memory_bytes != base.memory_bytes {
            drifts.push(format!(
                "{key}: memory drifted (peak elements {} -> {}, bytes {} -> {})",
                base.peak_elements, run.peak_elements, base.memory_bytes, run.memory_bytes
            ));
        }
        if run.patterns != base.patterns
            || run.faults != base.faults
            || run.faults_full != base.faults_full
        {
            drifts.push(format!(
                "{key}: workload drifted (patterns {} -> {}, faults {} -> {}, full {} -> {})",
                base.patterns,
                run.patterns,
                base.faults,
                run.faults,
                base.faults_full,
                run.faults_full
            ));
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PerfConfig {
        PerfConfig {
            circuits: vec!["s27".to_owned()],
            patterns: 8,
            threads: vec![1],
            repeats: 1,
            seed: 7,
        }
    }

    #[test]
    fn harness_round_trips_through_json() {
        let config = tiny_config();
        let runs = run_perf(&config);
        // (4 stuck-at variants × 1 thread count + csim-T) × {plain, pruned}
        // plus the two -learned cells, the two -incremental cells, and the
        // quiescence trio.
        assert_eq!(runs.len(), 17);
        let json = render_bench_json(&config, &runs, None);
        let parsed = parse_bench_json(&json).expect("own output parses");
        assert_eq!(parsed.len(), runs.len());
        for (a, b) in runs.iter().zip(&parsed) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.events, b.events);
            assert_eq!(a.detected, b.detected);
            assert_eq!(a.faults_full, b.faults_full);
        }
        assert!(check_against(&parsed, &runs).is_empty(), "self-check clean");
    }

    #[test]
    fn pruned_twins_shrink_the_simulated_universe() {
        let runs = run_perf(&tiny_config());
        let pruned: Vec<_> = runs
            .iter()
            .filter(|r| r.variant.ends_with("-pruned"))
            .collect();
        assert_eq!(pruned.len(), 5);
        for r in &pruned {
            assert!(
                r.faults_full > 0,
                "{}: twin records the full universe",
                r.key()
            );
            assert!(r.faults <= r.faults_full, "{}: sim beyond full", r.key());
            // Stuck-at twins always shrink strictly: exact collapsing alone
            // merges equivalent faults. Transition faults have no collapse,
            // so their twin only shrinks when the analyses prune something
            // (nothing on s27).
            if !r.variant.starts_with("csim-T") {
                assert!(
                    r.faults < r.faults_full,
                    "{}: simulated {} should be below full {}",
                    r.key(),
                    r.faults,
                    r.faults_full
                );
            }
        }
        // A pruned stuck-at cell reports full-universe detections: compare
        // against its plain twin expanded through classical equivalence
        // (both count the same detected fault classes on s27, where the
        // analyses prune nothing and collapses agree).
        let plain = runs.iter().find(|r| r.variant == "csim-MV").unwrap();
        let twin = runs.iter().find(|r| r.variant == "csim-MV-pruned").unwrap();
        assert!(twin.detected >= plain.detected);
    }

    #[test]
    fn learned_twins_never_exceed_their_pruned_twin() {
        let runs = run_perf(&tiny_config());
        for (learned, pruned) in [
            ("csim-MV-learned", "csim-MV-pruned"),
            ("csim-T-learned", "csim-T-pruned"),
        ] {
            let learned = runs
                .iter()
                .find(|r| r.variant == learned && r.threads == 1)
                .unwrap_or_else(|| panic!("{learned}: cell missing"));
            let pruned = runs
                .iter()
                .find(|r| r.variant == pruned && r.threads == 1)
                .unwrap();
            assert!(
                learned.faults_full > 0,
                "{}: twin records the full universe",
                learned.key()
            );
            assert_eq!(
                learned.faults_full,
                pruned.faults_full,
                "{}: same full universe as the pruned twin",
                learned.key()
            );
            assert!(
                learned.faults <= pruned.faults,
                "{}: learning never grows the universe ({} vs {})",
                learned.key(),
                learned.faults,
                pruned.faults
            );
            // Both report full-universe detections, so learning must not
            // change the detection count.
            assert_eq!(
                learned.detected,
                pruned.detected,
                "{}: conflict pruning changed detections",
                learned.key()
            );
        }
    }

    #[test]
    fn incremental_twins_match_a_cold_uncollapsed_run() {
        let config = tiny_config();
        let runs = run_perf(&config);
        let circuit = perf_circuit("s27");
        let patterns = random_patterns(&circuit, config.patterns, config.seed);
        let applied = apply_edit(&circuit, BenchEdit::DeadLogic, 0).unwrap();
        let diff = diff_netlists(&circuit, &applied.circuit, None, None);
        let analysis = impact_analysis(&circuit, &applied.circuit, diff);
        let stuck = classify_stuck_at(&circuit, &applied.circuit, &analysis);
        let transition = classify_transition(&circuit, &applied.circuit, &analysis);
        let cold_stuck =
            ConcurrentSim::new(&applied.circuit, &stuck.full, CsimVariant::Mv.options())
                .run(&patterns)
                .statuses
                .iter()
                .filter(|s| matches!(s, FaultStatus::Detected { .. }))
                .count();
        let cold_transition =
            TransitionSim::new(&applied.circuit, &transition.full, Default::default())
                .run(&patterns)
                .statuses
                .iter()
                .filter(|s| matches!(s, FaultStatus::Detected { .. }))
                .count();
        for (variant, stats, cold) in [
            ("csim-MV-incremental", &stuck.stats, cold_stuck),
            ("csim-T-incremental", &transition.stats, cold_transition),
        ] {
            let cell = runs
                .iter()
                .find(|r| r.variant == variant)
                .unwrap_or_else(|| panic!("{variant}: cell missing"));
            assert_eq!(cell.faults, stats.affected, "{variant}: simulated count");
            assert_eq!(cell.faults_full, stats.full, "{variant}: full universe");
            assert!(
                cell.faults <= cell.faults_full,
                "{variant}: sim beyond full"
            );
            assert_eq!(
                cell.detected, cold,
                "{variant}: fate transfer changed detections"
            );
        }
    }

    #[test]
    fn quiesce_trio_agrees_on_detections_and_full_run_counters() {
        let runs = run_perf(&tiny_config());
        let hold = runs.iter().find(|r| r.variant == "csim-MV-hold").unwrap();
        let quiesce = runs
            .iter()
            .find(|r| r.variant == "csim-MV-quiesce")
            .unwrap();
        let resume = runs.iter().find(|r| r.variant == "csim-MV-resume").unwrap();
        // The gate must never change what is detected (the harness also
        // asserts full status equality while recording the cells)...
        assert_eq!(quiesce.detected, hold.detected);
        // ...and a resumed run carries the full run's deterministic
        // counters, not just the second half's.
        assert_eq!(resume.detected, quiesce.detected);
        assert_eq!(resume.events, quiesce.events);
        assert_eq!(resume.peak_elements, quiesce.peak_elements);
        for r in [hold, quiesce, resume] {
            assert_eq!(r.threads, 1, "{}: trio cells are serial", r.key());
            assert!(r.peak_elements > 0, "{}: peak recorded", r.key());
        }
    }

    #[test]
    fn parallel_cells_record_the_widest_shard_peak() {
        let config = PerfConfig {
            threads: vec![1, 2],
            ..tiny_config()
        };
        let runs = run_perf(&config);
        for r in &runs {
            assert!(r.peak_elements > 0, "{}: peak never recorded", r.key());
            assert_eq!(
                r.peak_arena_bytes,
                r.peak_elements * cfs_core::Arena::ELEMENT_BYTES,
                "{}: arena bytes follow the element term",
                r.key()
            );
        }
        // A shard holds a subset of the fault universe, so its widest
        // arena never exceeds the serial engine's; and the thread count
        // never changes what a cell simulates or detects.
        let t2_cells: Vec<_> = runs.iter().filter(|r| r.threads == 2).collect();
        assert_eq!(t2_cells.len(), 8, "four variants, plain and pruned");
        for t2 in t2_cells {
            let serial = runs
                .iter()
                .find(|r| r.variant == t2.variant && r.threads == 1)
                .unwrap_or_else(|| panic!("{}: no t1 twin", t2.key()));
            assert!(
                t2.peak_elements <= serial.peak_elements,
                "{}: shard peak {} above serial {}",
                t2.key(),
                t2.peak_elements,
                serial.peak_elements
            );
            assert_eq!(
                (t2.detected, t2.faults, t2.faults_full),
                (serial.detected, serial.faults, serial.faults_full),
                "{}: (detected, faults, faults_full) differ from the t1 twin",
                t2.key()
            );
        }
    }

    #[test]
    fn documents_without_faults_full_still_parse() {
        let json = r#"{"schema": "cfs-bench/1", "runs": [
            {"circuit": "s27", "variant": "csim", "threads": 1, "patterns": 8,
             "faults": 32, "wall_seconds": 0.1, "events": 100,
             "events_per_pattern": 12.5, "detected": 20, "peak_elements": 5,
             "peak_arena_bytes": 80, "memory_bytes": 1000,
             "phase_seconds": {}}]}"#;
        let runs = parse_bench_json(json).expect("legacy document parses");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].faults_full, 0);
    }

    #[test]
    fn drift_is_reported() {
        let config = tiny_config();
        let runs = run_perf(&config);
        let mut tampered = runs.clone();
        tampered[0].events += 1;
        tampered[1].detected += 1;
        tampered[2].peak_elements += 1;
        tampered[3].memory_bytes += 1;
        let drifts = check_against(&tampered, &runs);
        assert_eq!(drifts.len(), 4, "{drifts:?}");
        assert!(drifts[2].contains("peak elements"), "{drifts:?}");
        assert!(drifts[3].contains("bytes"), "{drifts:?}");
    }

    #[test]
    fn speedups_pair_by_key() {
        let config = tiny_config();
        let runs = run_perf(&config);
        let mut slower = runs.clone();
        for r in &mut slower {
            r.wall_seconds *= 2.0;
        }
        for (_, base, wall, ratio) in speedups_against(&runs, &slower) {
            assert!((base - 2.0 * wall).abs() < 1e-12);
            assert!((ratio - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_counters_are_stable_across_runs() {
        let config = tiny_config();
        let a = run_perf(&config);
        let b = run_perf(&config);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.events, y.events, "{}", x.key());
            assert_eq!(x.detected, y.detected, "{}", x.key());
        }
    }
}
