//! The traced run: the `fsim` pipeline for a workload's flags, replayed
//! in process with a span around each call into a layer.
//!
//! It calls the public functions `crates/cli/src/main.rs` calls for
//! `sim`/`transition` with `--threads`, `--prune`, `--learn`,
//! `--patterns` and `--detections`, in the same order and with the same
//! options: the default shard plan, `LearnOptions::default()`, variant
//! `mv`, no quiescence gating. Every step of the pipeline gets its span
//! even where the workload's flags skip the layer, so a bypassed layer
//! reports the time of its skipped branch.

use std::borrow::Cow;
use std::fs;
use std::path::Path;

use cfs_baselines::ProofsSim;
use cfs_check::{
    analyze_circuit, check_bench_source, prune_stuck_at, prune_stuck_at_learned, prune_transition,
    prune_transition_learned, CircuitAnalysis, ImplicationGraph, LearnOptions,
};
use cfs_core::{
    detections_of, ConcurrentSim, CsimOptions, CsimVariant, NullProbe, ParallelSim, ShardPlan,
    TransitionOptions, TransitionSim,
};
use cfs_faults::{
    collapse_stuck_at, enumerate_transition, FaultSimReport, FaultStatus, PrunedUniverse, StuckAt,
    TransitionFault,
};
use cfs_logic::{parse_pattern, Logic};
use cfs_netlist::{parse_bench, Circuit};

use crate::span::Tracer;
use crate::workload::Workload;

/// What the engine call reports.
pub struct EngineRun {
    pub statuses: Vec<FaultStatus>,
    pub events: u64,
    pub fault_evals: u64,
    pub peak_elements: usize,
    pub memory_bytes: usize,
}

/// A fault model as the CLI drives it.
pub trait Model: Copy {
    /// `--prune`, with `--learn` when a graph is given.
    fn prune(
        c: &Circuit,
        a: &CircuitAnalysis,
        g: Option<&ImplicationGraph>,
    ) -> PrunedUniverse<Self>;
    /// The simulated universe without `--prune`.
    fn unpruned(c: &Circuit) -> Vec<Self>;
    /// Constructs the engine (span `init`) and runs it (span `sim`).
    fn engine(
        tr: &mut Tracer,
        names: [&'static str; 2],
        c: &Circuit,
        faults: &[Self],
        patterns: &[Vec<Logic>],
        threads: usize,
    ) -> EngineRun;
    /// The paper's comparator, where the model has one.
    fn proofs(c: &Circuit, faults: &[Self], patterns: &[Vec<Logic>]) -> Option<FaultSimReport>;
}

fn engine_run(report: FaultSimReport, peak_elements: usize) -> EngineRun {
    EngineRun {
        events: report.events,
        fault_evals: report.evaluations,
        memory_bytes: report.memory_bytes,
        statuses: report.statuses,
        peak_elements,
    }
}

impl Model for StuckAt {
    fn prune(
        c: &Circuit,
        a: &CircuitAnalysis,
        g: Option<&ImplicationGraph>,
    ) -> PrunedUniverse<Self> {
        match g {
            Some(g) => prune_stuck_at_learned(c, a, g).universe,
            None => prune_stuck_at(c, a),
        }
    }

    fn unpruned(c: &Circuit) -> Vec<Self> {
        collapse_stuck_at(c).representatives
    }

    fn engine(
        tr: &mut Tracer,
        [init, sim]: [&'static str; 2],
        c: &Circuit,
        faults: &[Self],
        patterns: &[Vec<Logic>],
        threads: usize,
    ) -> EngineRun {
        let options = CsimOptions {
            quiesce_window: 0,
            ..CsimVariant::Mv.options()
        };
        if threads > 1 {
            let mut s = tr.span(init, || {
                ParallelSim::with_probes_sharded(
                    c,
                    faults,
                    options,
                    threads,
                    threads,
                    ShardPlan::RoundRobin,
                    None,
                    |_| NullProbe,
                )
            });
            let report = tr.span(sim, || s.run(patterns));
            engine_run(report, s.peak_elements())
        } else {
            let mut s = tr.span(init, || ConcurrentSim::new(c, faults, options));
            let report = tr.span(sim, || s.run(patterns));
            engine_run(report, s.peak_elements())
        }
    }

    fn proofs(c: &Circuit, faults: &[Self], patterns: &[Vec<Logic>]) -> Option<FaultSimReport> {
        Some(ProofsSim::new(c, faults).run(patterns))
    }
}

impl Model for TransitionFault {
    fn prune(
        c: &Circuit,
        a: &CircuitAnalysis,
        g: Option<&ImplicationGraph>,
    ) -> PrunedUniverse<Self> {
        match g {
            Some(g) => prune_transition_learned(c, a, g),
            None => prune_transition(c, a),
        }
    }

    fn unpruned(c: &Circuit) -> Vec<Self> {
        enumerate_transition(c)
    }

    fn engine(
        tr: &mut Tracer,
        [init, sim]: [&'static str; 2],
        c: &Circuit,
        faults: &[Self],
        patterns: &[Vec<Logic>],
        threads: usize,
    ) -> EngineRun {
        // No workload shards transition faults; the serial engine is the
        // only one replayed.
        assert_eq!(threads, 1, "transition workloads run on one thread");
        let options = TransitionOptions {
            quiesce_window: 0,
            ..TransitionOptions::default()
        };
        let mut s = tr.span(init, || TransitionSim::new(c, faults, options));
        let report = tr.span(sim, || s.run(patterns));
        engine_run(report, s.peak_elements())
    }

    fn proofs(_: &Circuit, _: &[Self], _: &[Vec<Logic>]) -> Option<FaultSimReport> {
        None
    }
}

/// Outcome of one traced replay.
pub struct Replica<F> {
    pub tracer: Tracer,
    /// The detection list, byte for byte as `fsim --detections` writes it.
    pub detections: String,
    pub engine: EngineRun,
    pub learned_facts: usize,
    pub circuit: Circuit,
    /// Faults handed to the engine.
    pub faults: Vec<F>,
    pub patterns: Vec<Vec<Logic>>,
}

fn io_err(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

/// Replays the workload's `fsim` command on the given files and writes
/// the detection list to `detections`. Spans named `<layer>.<step>`
/// live under the root span `cli.run`.
pub fn run<F: Model>(
    w: &Workload,
    bench: &Path,
    pattern_file: &Path,
    detections: &Path,
) -> Result<Replica<F>, String> {
    let name = bench
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    let mut tr = Tracer::new();
    let root = tr.begin("cli.run");
    let preflight = tr.span("check.preflight", || {
        fs::read_to_string(bench).map(|text| check_bench_source(name, &text))
    });
    let report = preflight.map_err(|e| io_err(bench, e))?;
    if report.has_errors() {
        return Err(format!(
            "{name}: preflight check errors:\n{}",
            report.render_text()
        ));
    }
    let c = tr.span("netlist.parse", || {
        let text = fs::read_to_string(bench).map_err(|e| io_err(bench, e))?;
        parse_bench(name, &text).map_err(|e| e.to_string())
    })?;
    let patterns = tr.span("cli.load_patterns", || {
        load_patterns(pattern_file, c.num_inputs())
    })?;
    let analysis = tr.span("check.analyze", || w.prune.then(|| analyze_circuit(&c)));
    let graph = tr.span("check.learn", || match &analysis {
        Some(a) if w.learn => Some(ImplicationGraph::build(&c, a, LearnOptions::default())),
        _ => None,
    });
    let pruned = tr.span("check.prune", || {
        analysis.as_ref().map(|a| F::prune(&c, a, graph.as_ref()))
    });
    let faults = tr.span("faults.collapse", || match &pruned {
        Some(u) => u.sim.clone(),
        None => F::unpruned(&c),
    });
    let engine = F::engine(
        &mut tr,
        ["core.init", "core.sim"],
        &c,
        &faults,
        &patterns,
        w.threads,
    );
    let statuses = tr.span("faults.expand", || match &pruned {
        Some(u) => Cow::Owned(u.expand_statuses(&engine.statuses)),
        None => Cow::Borrowed(&engine.statuses),
    });
    let text = tr.span("cli.report", || {
        let mut text = String::new();
        for (fault, pattern) in detections_of(&statuses) {
            text.push_str(&format!("{pattern} {fault}\n"));
        }
        fs::write(detections, &text).map(|()| text)
    });
    let text = text.map_err(|e| io_err(detections, e))?;
    tr.end(root);
    drop(statuses);
    Ok(Replica {
        detections: text,
        learned_facts: graph.as_ref().map_or(0, ImplicationGraph::num_learned),
        engine,
        tracer: tr,
        circuit: c,
        faults,
        patterns,
    })
}

/// The replay's engine call checked against its twins: the 1-thread
/// engine for a sharded run, PROOFS where the workload asks for it.
pub struct Comparison {
    /// Spans `parallel.twin` and `baselines.proofs`, recorded even where
    /// the step is skipped.
    pub tracer: Tracer,
    /// Events and engine time of the 1-thread twin.
    pub twin: Option<(u64, f64)>,
    /// Time of `ProofsSim::run`.
    pub proofs_s: Option<f64>,
}

/// Runs the twins on the replay's circuit, faults and patterns and
/// requires their detections to equal the replay's.
pub fn compare<F: Model>(w: &Workload, r: &Replica<F>) -> Result<Comparison, String> {
    let (c, faults, patterns) = (&r.circuit, &r.faults, &r.patterns);
    let want = detections_of(&r.engine.statuses);
    let mut tr = Tracer::new();
    let twin = tr.span("parallel.twin", || {
        (w.threads > 1).then(|| {
            let mut t = Tracer::new();
            let run = F::engine(&mut t, ["init", "sim"], c, faults, patterns, 1);
            (run, t.duration_of("sim").unwrap_or(0.0))
        })
    });
    if let Some((run, _)) = twin
        .as_ref()
        .filter(|(run, _)| detections_of(&run.statuses) != want)
    {
        return Err(format!(
            "the 1-thread twin's detections differ from the sharded run's: {}",
            first_mismatch(&run.statuses, &r.engine.statuses)
        ));
    }
    let proofs = tr.span("baselines.proofs", || {
        if !w.proofs {
            return None;
        }
        F::proofs(c, faults, patterns).map(|r| (r.statuses, r.cpu.as_secs_f64()))
    });
    // csim also proves some faults untestable inside macro cells, where
    // PROOFS leaves them undetected: compare detections, not statuses.
    if let Some((statuses, _)) = proofs.as_ref().filter(|(s, _)| detections_of(s) != want) {
        return Err(format!(
            "PROOFS and csim disagree on the detections: {}",
            first_mismatch(statuses, &r.engine.statuses)
        ));
    }
    Ok(Comparison {
        tracer: tr,
        twin: twin.map(|(run, secs)| (run.events, secs)),
        proofs_s: proofs.map(|(_, secs)| secs),
    })
}

/// Describes the first simulated fault whose first detection differs.
fn first_mismatch(twin: &[FaultStatus], csim: &[FaultStatus]) -> String {
    let pattern = |s: &FaultStatus| match s {
        FaultStatus::Detected { pattern } => Some(*pattern),
        _ => None,
    };
    twin.iter()
        .zip(csim)
        .position(|(a, b)| pattern(a) != pattern(b))
        .map_or_else(String::new, |i| {
            format!("simulated fault {i}: {} vs csim {}", twin[i], csim[i])
        })
}

/// `fsim --patterns` file parsing: one pattern per line, blank lines and
/// `#` comments skipped, each pattern as wide as the circuit's inputs.
fn load_patterns(path: &Path, inputs: usize) -> Result<Vec<Vec<Logic>>, String> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let mut patterns = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let p = parse_pattern(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if p.len() != inputs {
            return Err(format!(
                "{}:{}: pattern width {}",
                path.display(),
                n + 1,
                p.len()
            ));
        }
        patterns.push(p);
    }
    Ok(patterns)
}
