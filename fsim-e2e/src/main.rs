//! End-to-end benchmark of the `fsim` fault simulator.
//!
//! ```text
//! cargo run --release --manifest-path fsim-e2e/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout. The benchmark builds the release
//! `fsim` binary from source, writes the workload's `.bench` file and a
//! seeded pattern file, and runs `fsim` as a child process, one run at a
//! time, for `--seconds` seconds. Every run's `--detections` list is
//! checked against the serial oracle on a seeded fault sample.
//!
//! With `--trace 0` it reports the end-to-end metrics (medians over the
//! runs): `wall_s` (spawn to exit), `setup_s` (the same command on an
//! empty pattern file), `cpu_s` (user plus system CPU of the child) and
//! `peak_rss_mb`. With `--trace 1` it alternates untraced runs with an
//! in-process replay of the pipeline, a span around each layer call, and
//! reports the per-layer metrics. The last stdout line is one JSON
//! object; the exit code is 0 only when every check passed.
//!
//! `--workload all` runs every workload untraced and then traced, with
//! one JSON line per run, and exits 0 only when every run passed;
//! `--trace` is then ignored.

mod oracle;
mod process;
mod replica;
mod span;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cfs_faults::{enumerate_stuck_at, enumerate_transition, StuckAt, TransitionFault};
use cfs_netlist::parse_bench;

use oracle::{Sample, Universe};
use process::{build_fsim, first_line_of, run_measured, target_dir, Usage};
use span::self_times;
use workload::{Model, Workload};

/// Largest share of the untraced `wall_s` the traced spans may leave
/// unattributed before the traced run is judged not to mirror `fsim`.
/// Single runs on a shared 2-vCPU host vary by ±15%, and a traced run
/// holds only a few replays, so the bound catches a replay that skips a
/// layer, not noise.
const UNATTRIBUTED_BOUND: f64 = 0.5;

struct Args {
    /// `None` runs every workload.
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = match name {
        "all" => None,
        _ => Some(workload::find(name).ok_or_else(|| {
            let known: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name:?} (known: all, {})",
                known.join(", ")
            )
        })?),
    };
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed needs a number")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fsim-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let runs: Vec<(&Workload, bool)> = match args.workload {
        Some(w) => vec![(w, args.trace)],
        None => workload::WORKLOADS
            .iter()
            .flat_map(|w| [(w, false), (w, true)])
            .collect(),
    };
    let mut failed = false;
    for (w, trace) in runs {
        match run(w, args.seed, args.seconds, trace) {
            Ok(result) => {
                println!("{}", result.to_json());
                failed |= result.failed > 0;
            }
            Err(e) => {
                eprintln!("fsim-e2e: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One metric as reported.
struct Metric {
    value: f64,
    unit: &'static str,
}

type Metrics = BTreeMap<&'static str, Metric>;

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Prints one timing series: median with sample count and range.
fn report_series(name: &str, unit: &str, xs: &[f64]) {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "{name:<14} median {:>10.4} {unit:<3} n={:<3} min {min:.4} max {max:.4}",
        median(xs),
        xs.len()
    );
}

/// The files of one benchmark invocation, under the build directory.
struct WorkDir {
    dir: PathBuf,
    bench: PathBuf,
    patterns: PathBuf,
    empty: PathBuf,
    detections: PathBuf,
    stderr: PathBuf,
}

impl WorkDir {
    fn create(w: &Workload, seed: u64) -> Result<WorkDir, String> {
        let dir = target_dir().join("fsim-e2e-work").join(format!(
            "{}-{seed}-{}",
            w.name,
            std::process::id()
        ));
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir {
            bench: dir.join(format!("{}.bench", w.circuit)),
            patterns: dir.join("patterns.txt"),
            empty: dir.join("empty.txt"),
            detections: dir.join("detections.txt"),
            stderr: dir.join("stderr.txt"),
            dir,
        })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs `fsim` once and checks its detection list: against `sample`
/// (and byte-equal to `reference` once one exists) for a full run, empty
/// for a setup run.
struct Runner<'a> {
    fsim: PathBuf,
    wd: &'a WorkDir,
    w: &'a Workload,
    sample: &'a Sample,
    reference: Option<String>,
    attempted: usize,
    failed: usize,
}

impl Runner<'_> {
    fn run(&mut self, setup: bool) -> Option<Usage> {
        self.attempted += 1;
        match self.run_checked(setup) {
            Ok(u) => Some(u),
            Err(e) => {
                self.failed += 1;
                let what = if setup { "setup run" } else { "run" };
                eprintln!("fsim-e2e: {} {what} failed: {e}", self.w.name);
                None
            }
        }
    }

    fn run_checked(&mut self, setup: bool) -> Result<Usage, String> {
        let wd = self.wd;
        let _ = fs::remove_file(&wd.detections);
        let pattern_file = if setup { &wd.empty } else { &wd.patterns };
        let args = self.w.fsim_args(
            &wd.bench.to_string_lossy(),
            &pattern_file.to_string_lossy(),
            &wd.detections.to_string_lossy(),
        );
        let usage = run_measured(&self.fsim, &args, &wd.stderr)?;
        if usage.code != Some(0) {
            let stderr = fs::read_to_string(&wd.stderr).unwrap_or_default();
            return Err(format!(
                "fsim exited with {:?}: {}",
                usage.code,
                stderr.trim()
            ));
        }
        let text =
            fs::read_to_string(&wd.detections).map_err(|e| format!("no detection list: {e}"))?;
        if setup {
            if !text.is_empty() {
                return Err("detections on an empty pattern file".to_owned());
            }
            return Ok(usage);
        }
        let n = oracle::check(&text, self.sample)?;
        match &self.reference {
            Some(r) if *r != text => {
                return Err("detection list differs from the first run's".to_owned())
            }
            Some(_) => {}
            None => {
                println!(
                    "oracle: {n} detections; {} sampled faults agree with the serial oracle",
                    self.sample.indices.len()
                );
                self.reference = Some(text);
            }
        }
        Ok(usage)
    }
}

fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    println!(
        "# fsim-e2e workload={} seed={seed} seconds={seconds} trace={} nproc={} rustc=\"{}\" git={}",
        w.name,
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        first_line_of("rustc", &["-V"]),
        first_line_of("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
    );
    let fsim = build_fsim()?;

    let inputs = workload::generate(w, seed);
    let wd = WorkDir::create(w, seed)?;
    write(&wd.bench, &inputs.bench)?;
    write(&wd.patterns, &inputs.pattern_text())?;
    write(&wd.empty, "")?;

    // The oracle is not timed.
    let started = Instant::now();
    let c = parse_bench(w.circuit, &inputs.bench).map_err(|e| e.to_string())?;
    let universe = Universe::of(w, &c);
    let sample = Sample::new(&universe, &c, &inputs.patterns, w.oracle_sample, seed);
    let full_faults = match w.model {
        Model::Stuck => enumerate_stuck_at(&c).len(),
        Model::Transition => enumerate_transition(&c).len(),
    };
    println!(
        "oracle: {} of {} faults sampled, {} detected by the serial oracle ({:.2} s, untimed)",
        sample.indices.len(),
        universe.len(),
        sample.expected.iter().filter(|p| p.is_some()).count(),
        started.elapsed().as_secs_f64()
    );

    let mut runner = Runner {
        fsim,
        wd: &wd,
        w,
        sample: &sample,
        reference: None,
        attempted: 0,
        failed: 0,
    };
    // Warm-up: the binary and the inputs into the page cache.
    let metrics = match runner.run(true) {
        None => Metrics::new(),
        Some(warm) if !trace => untraced(&mut runner, seconds, warm.wall_s),
        Some(_) => {
            let result = match w.model {
                Model::Stuck => traced::<StuckAt>(&mut runner, seconds, full_faults),
                Model::Transition => traced::<TransitionFault>(&mut runner, seconds, full_faults),
            };
            result.unwrap_or_else(|e| {
                runner.failed += 1;
                eprintln!("fsim-e2e: {} traced run failed: {e}", w.name);
                Metrics::new()
            })
        }
    };
    Ok(Outcome {
        attempted: runner.attempted,
        failed: runner.failed,
        metrics,
    })
}

/// The end-to-end metrics: full runs for `seconds`, each followed by
/// enough setup runs that setup is sampled about a quarter as long as
/// the full command. `warm_setup_s` is the warm-up setup run's wall.
fn untraced(runner: &mut Runner, seconds: f64, warm_setup_s: f64) -> Metrics {
    let mut full: Vec<Usage> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    let mut setup_reps = None;
    let started = Instant::now();
    while let Some(u) = runner.run(false) {
        full.push(u);
        let reps = *setup_reps
            .get_or_insert_with(|| ((0.25 * u.wall_s / warm_setup_s).ceil() as usize).clamp(1, 8));
        for _ in 0..reps {
            match runner.run(true) {
                Some(u) => setup.push(u.wall_s),
                None => break,
            }
        }
        if runner.failed > 0 || started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall: Vec<f64> = full.iter().map(|u| u.wall_s).collect();
    let cpu: Vec<f64> = full.iter().map(|u| u.cpu_s).collect();
    let rss: Vec<f64> = full.iter().map(|u| u.peak_rss_mb).collect();
    report_series("wall_s", "s", &wall);
    report_series("setup_s", "s", &setup);
    report_series("cpu_s", "s", &cpu);
    report_series("peak_rss_mb", "MB", &rss);
    let mut m = Metrics::new();
    let mut put = |name, value, unit| {
        m.insert(name, Metric { value, unit });
    };
    put("wall_s", median(&wall), "s");
    put("setup_s", median(&setup), "s");
    put("cpu_s", median(&cpu), "s");
    put("peak_rss_mb", median(&rss), "MB");
    m
}

/// The per-layer metrics: for `seconds`, an untraced `fsim` run and then
/// a traced in-process replay, alternately, so both sample the same
/// stretch of time; then the twins once. Each layer reports the median of
/// its span's self time over the replays, and `cli.unattributed_s` is the
/// untraced median `wall_s` minus their sum. `full_faults` is the
/// uncollapsed universe the simulated faults stand for.
fn traced<F: replica::Model>(
    runner: &mut Runner,
    seconds: f64,
    full_faults: usize,
) -> Result<Metrics, String> {
    let (w, wd) = (runner.w, runner.wd);
    let mut walls = Vec::new();
    let mut layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut totals = Vec::new();
    let started = Instant::now();
    let last = loop {
        let Some(u) = runner.run(false) else {
            return Ok(Metrics::new());
        };
        walls.push(u.wall_s);
        let r = replica::run::<F>(w, &wd.bench, &wd.patterns, &wd.detections)?;
        if runner.reference.as_ref() != Some(&r.detections) {
            return Err("the in-process replica's detection list differs from fsim's".to_owned());
        }
        let spans = r.tracer.spans();
        for (s, t) in spans.iter().zip(self_times(spans)) {
            if s.parent == Some(0) {
                layer.entry(s.name).or_default().push(t);
            }
        }
        let total = r.tracer.duration_of("cli.run").unwrap_or(0.0);
        println!(
            "pair {}: fsim wall {:.4} s, traced replay {total:.4} s",
            totals.len() + 1,
            u.wall_s
        );
        totals.push(total);
        if started.elapsed().as_secs_f64() >= seconds {
            break r;
        }
    };
    let cmp = replica::compare(w, &last)?;

    let wall_s = median(&walls);
    let layer: BTreeMap<&'static str, f64> =
        layer.into_iter().map(|(k, v)| (k, median(&v))).collect();
    let unattributed = wall_s - layer.values().sum::<f64>();
    report_series("wall_s", "s", &walls);
    println!(
        "traced replays: {}; median self time per layer span:",
        totals.len()
    );
    for (name, t) in &layer {
        println!("  {name:<20} {t:>10.6} s {:>6.2}%", 100.0 * t / wall_s);
    }
    println!(
        "  {:<20} {unattributed:>10.6} s {:>6.2}%  (bound {:.0}%)",
        "cli.unattributed",
        100.0 * unattributed / wall_s,
        100.0 * UNATTRIBUTED_BOUND
    );
    if unattributed.abs() > UNATTRIBUTED_BOUND * wall_s {
        return Err(format!(
            "spans leave {unattributed:.4} s of {wall_s:.4} s unattributed (bound {:.0}%)",
            100.0 * UNATTRIBUTED_BOUND
        ));
    }

    let layer_s = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let sim_s = layer_s("core.sim");
    let e = &last.engine;
    let (dup, speedup) = match cmp.twin {
        Some((events, secs)) => {
            println!(
                "parallel: 1-thread twin {events} events in {secs:.4} s; identical detections"
            );
            (e.events as f64 / events as f64, secs / sim_s)
        }
        None => (1.0, 1.0),
    };
    if let Some(p) = cmp.proofs_s {
        println!("baselines: PROOFS {p:.4} s; detections identical to csim");
    }
    let mut m = Metrics::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        m.insert(name, Metric { value, unit });
    };
    for (name, span) in [
        ("netlist.parse_s", "netlist.parse"),
        ("check.preflight_s", "check.preflight"),
        ("check.analyze_s", "check.analyze"),
        ("check.learn_s", "check.learn"),
        ("check.prune_s", "check.prune"),
        ("faults.collapse_s", "faults.collapse"),
        ("faults.expand_s", "faults.expand"),
        ("core.init_s", "core.init"),
        ("core.sim_s", "core.sim"),
        ("cli.load_patterns_s", "cli.load_patterns"),
        ("cli.report_s", "cli.report"),
    ] {
        put(name, layer_s(span), "s");
    }
    put("check.learned_facts", last.learned_facts as f64, "count");
    put(
        "check.pruned_ratio",
        last.faults.len() as f64 / full_faults as f64,
        "ratio",
    );
    put("core.events", e.events as f64, "count");
    put("core.fault_evals", e.fault_evals as f64, "count");
    put(
        "core.ns_per_fault_eval",
        1e9 * sim_s / e.fault_evals as f64,
        "ns",
    );
    put("core.peak_elements", e.peak_elements as f64, "count");
    put("core.memory_bytes", e.memory_bytes as f64, "bytes");
    put("parallel.event_dup_ratio", dup, "ratio");
    put("parallel.speedup", speedup, "ratio");
    let proofs_s = cmp
        .proofs_s
        .unwrap_or_else(|| cmp.tracer.duration_of("baselines.proofs").unwrap_or(0.0));
    put("baselines.proofs_s", proofs_s, "s");
    put(
        "baselines.csim_vs_proofs",
        cmp.proofs_s.map_or(0.0, |p| p / sim_s),
        "ratio",
    );
    put("cli.unattributed_s", unattributed, "s");
    put("trace.overhead_ratio", median(&totals) / wall_s, "ratio");
    Ok(m)
}
