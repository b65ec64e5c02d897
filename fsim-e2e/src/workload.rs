//! The benchmark's workloads and the inputs generated for them.
//!
//! Circuits come from the repository's ISCAS-89-alike generator and are
//! fixed per workload; the seed varies the random patterns only.

use cfs_atpg::random_patterns;
use cfs_logic::{format_pattern, Logic};
use cfs_netlist::{parse_bench, write_bench};

/// Fault model a workload simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Stuck,
    Transition,
}

/// One `fsim` command line and the inputs it runs on.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Built-in benchmark written to `<circuit>.bench`.
    pub circuit: &'static str,
    pub model: Model,
    pub threads: usize,
    /// `--prune` (exact-collapse survivors, report on the full universe).
    pub prune: bool,
    /// `--learn` (implication learning on top of `--prune`).
    pub learn: bool,
    pub patterns: usize,
    /// Run the PROOFS comparator in the traced run.
    pub proofs: bool,
    /// Faults the serial oracle re-simulates per benchmark invocation.
    pub oracle_sample: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "large_stuck_t2",
        circuit: "s35932g",
        model: Model::Stuck,
        threads: 2,
        prune: false,
        learn: false,
        patterns: 384,
        proofs: false,
        oracle_sample: 24,
    },
    Workload {
        name: "learned_transition",
        circuit: "s1238g",
        model: Model::Transition,
        threads: 1,
        prune: true,
        learn: true,
        patterns: 4096,
        proofs: false,
        oracle_sample: 64,
    },
    Workload {
        name: "long_stuck",
        circuit: "s5378g",
        model: Model::Stuck,
        threads: 1,
        prune: true,
        learn: false,
        patterns: 4096,
        proofs: true,
        oracle_sample: 16,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `fsim` arguments for this workload on the given files.
    pub fn fsim_args(&self, bench: &str, patterns: &str, detections: &str) -> Vec<String> {
        let mut args = vec![
            match self.model {
                Model::Stuck => "sim",
                Model::Transition => "transition",
            }
            .to_owned(),
            bench.to_owned(),
        ];
        if self.threads > 1 {
            args.extend(["--threads".to_owned(), self.threads.to_string()]);
        }
        if self.prune {
            args.push("--prune".to_owned());
        }
        if self.learn {
            args.push("--learn".to_owned());
        }
        args.extend([
            "--patterns".to_owned(),
            patterns.to_owned(),
            "--detections".to_owned(),
            detections.to_owned(),
        ]);
        args
    }
}

/// The generated inputs of one workload and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// `.bench` source of the workload's circuit.
    pub bench: String,
    /// The random patterns, one per clock cycle.
    pub patterns: Vec<Vec<Logic>>,
}

impl Inputs {
    /// Pattern-file text: one pattern per line, as `fsim --patterns` reads.
    pub fn pattern_text(&self) -> String {
        let mut text = String::new();
        for p in &self.patterns {
            text.push_str(&format_pattern(p));
            text.push('\n');
        }
        text
    }
}

/// Generates the workload's inputs. The same seed gives the same inputs.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let circuit = cfs_netlist::generate::benchmark(w.circuit).expect("built-in benchmark");
    let bench = write_bench(&circuit);
    // Patterns are drawn for the circuit as `fsim` will parse it.
    let parsed = parse_bench(w.circuit, &bench).expect("generated netlist parses");
    let patterns = random_patterns(&parsed, w.patterns, seed);
    Inputs { bench, patterns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let w = Workload {
            patterns: 64,
            ..*find("learned_transition").unwrap()
        };
        let a = generate(&w, 7);
        assert_eq!(a, generate(&w, 7));
        assert_eq!(a.pattern_text(), generate(&w, 7).pattern_text());
        let b = generate(&w, 8);
        assert_eq!(a.bench, b.bench, "the seed varies the patterns only");
        assert_ne!(a.patterns, b.patterns);
        assert_eq!(a.patterns.len(), 64);
    }

    #[test]
    fn workload_command_lines() {
        let w = find("large_stuck_t2").unwrap();
        assert_eq!(
            w.fsim_args("c.bench", "p.txt", "d.txt").join(" "),
            "sim c.bench --threads 2 --patterns p.txt --detections d.txt"
        );
        let w = find("learned_transition").unwrap();
        assert_eq!(
            w.fsim_args("c.bench", "p.txt", "d.txt").join(" "),
            "transition c.bench --prune --learn --patterns p.txt --detections d.txt"
        );
    }
}
