//! The correctness gate: `fsim --detections` lists against the repo's
//! serial oracles on a seeded fault sample.
//!
//! The fault order is rebuilt with the public function the CLI uses for
//! the workload's flags: collapsed class representatives for plain
//! stuck-at runs, the full uncollapsed enumeration for `--prune` runs
//! (which report on the full universe).

use cfs_baselines::{SerialSim, SerialTransitionSim};
use cfs_faults::{
    collapse_stuck_at, enumerate_stuck_at, enumerate_transition, FaultStatus, StuckAt,
    TransitionFault,
};
use cfs_logic::Logic;
use cfs_netlist::Circuit;

use crate::workload::{Model, Workload};

/// The fault universe a workload's detection list indexes into.
pub enum Universe {
    Stuck(Vec<StuckAt>),
    Transition(Vec<TransitionFault>),
}

impl Universe {
    /// The universe `fsim` reports on for this workload's flags.
    pub fn of(w: &Workload, c: &Circuit) -> Universe {
        match (w.model, w.prune) {
            (Model::Stuck, false) => Universe::Stuck(collapse_stuck_at(c).representatives),
            (Model::Stuck, true) => Universe::Stuck(enumerate_stuck_at(c)),
            (Model::Transition, _) => Universe::Transition(enumerate_transition(c)),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Universe::Stuck(f) => f.len(),
            Universe::Transition(f) => f.len(),
        }
    }

    /// First-detection pattern of each listed fault, by the serial oracle,
    /// on two threads.
    pub fn oracle(
        &self,
        c: &Circuit,
        indices: &[usize],
        patterns: &[Vec<Logic>],
    ) -> Vec<Option<usize>> {
        let (a, b) = indices.split_at(indices.len() / 2);
        std::thread::scope(|s| {
            let first = s.spawn(|| self.oracle_serial(c, a, patterns));
            let mut out = self.oracle_serial(c, b, patterns);
            let mut all = first.join().expect("oracle thread");
            all.append(&mut out);
            all
        })
    }

    fn oracle_serial(
        &self,
        c: &Circuit,
        indices: &[usize],
        patterns: &[Vec<Logic>],
    ) -> Vec<Option<usize>> {
        let statuses = match self {
            Universe::Stuck(all) => {
                let faults: Vec<StuckAt> = indices.iter().map(|&i| all[i]).collect();
                SerialSim::new(c, &faults).run(patterns).statuses
            }
            Universe::Transition(all) => {
                let faults: Vec<TransitionFault> = indices.iter().map(|&i| all[i]).collect();
                SerialTransitionSim::new(c, &faults).run(patterns).statuses
            }
        };
        statuses
            .into_iter()
            .map(|s| match s {
                FaultStatus::Detected { pattern } => Some(pattern),
                _ => None,
            })
            .collect()
    }
}

/// The oracle's verdicts on a seeded sample of the universe.
#[derive(Debug, Clone)]
pub struct Sample {
    pub universe_len: usize,
    pub patterns: usize,
    /// Sampled universe indices, ascending.
    pub indices: Vec<usize>,
    /// First-detection pattern per sampled fault; `None` is undetected.
    pub expected: Vec<Option<usize>>,
}

impl Sample {
    pub fn new(
        u: &Universe,
        c: &Circuit,
        patterns: &[Vec<Logic>],
        count: usize,
        seed: u64,
    ) -> Sample {
        let indices = sample_indices(u.len(), count, seed);
        let expected = u.oracle(c, &indices, patterns);
        Sample {
            universe_len: u.len(),
            patterns: patterns.len(),
            indices,
            expected,
        }
    }
}

/// `count` distinct indices below `n`, ascending, deterministic in `seed`
/// (partial Fisher–Yates driven by splitmix64).
pub fn sample_indices(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x5EED_0F0A_C1E5;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let count = count.min(n);
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = i + (next() % (n - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(count);
    all.sort_unstable();
    all
}

/// Parses a `--detections` list (`pattern fault` per line) and checks its
/// shape: sorted by pattern then fault, each fault once, every index in
/// range. Returns `(fault, pattern)` pairs.
pub fn parse_detections(
    text: &str,
    universe_len: usize,
    patterns: usize,
) -> Result<Vec<(usize, usize)>, String> {
    let mut out = Vec::new();
    let mut seen = vec![false; universe_len];
    let mut last: Option<(usize, usize)> = None;
    for (n, line) in text.lines().enumerate() {
        let mut it = line.split(' ');
        let (Some(p), Some(f), None) = (it.next(), it.next(), it.next()) else {
            return Err(format!(
                "line {}: expected `pattern fault`, got {line:?}",
                n + 1
            ));
        };
        let p: usize = p
            .parse()
            .map_err(|_| format!("line {}: bad pattern {p:?}", n + 1))?;
        let f: usize = f
            .parse()
            .map_err(|_| format!("line {}: bad fault {f:?}", n + 1))?;
        if f >= universe_len || p >= patterns {
            return Err(format!("line {}: ({p}, {f}) out of range", n + 1));
        }
        if last.is_some_and(|l| l >= (p, f)) {
            return Err(format!("line {}: not sorted by (pattern, fault)", n + 1));
        }
        if std::mem::replace(&mut seen[f], true) {
            return Err(format!("line {}: fault {f} listed twice", n + 1));
        }
        last = Some((p, f));
        out.push((f, p));
    }
    Ok(out)
}

/// Checks a detection list against the oracle sample. Returns the number
/// of detections in the list.
pub fn check(text: &str, sample: &Sample) -> Result<usize, String> {
    let dets = parse_detections(text, sample.universe_len, sample.patterns)?;
    let mut first = vec![None; sample.universe_len];
    for &(f, p) in &dets {
        first[f] = Some(p);
    }
    for (&i, &want) in sample.indices.iter().zip(&sample.expected) {
        if first[i] != want {
            let show =
                |v: Option<usize>| v.map_or("undetected".to_owned(), |p| format!("pattern {p}"));
            return Err(format!(
                "fault {i}: fsim says {}, the serial oracle says {}",
                show(first[i]),
                show(want)
            ));
        }
    }
    Ok(dets.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;
    use cfs_atpg::random_patterns;
    use cfs_netlist::data::s27;

    /// The detection list the oracle itself implies for the whole sample.
    fn oracle_list(sample: &Sample) -> Vec<(usize, usize)> {
        let mut dets: Vec<(usize, usize)> = sample
            .indices
            .iter()
            .zip(&sample.expected)
            .filter_map(|(&f, p)| p.map(|p| (p, f)))
            .collect();
        dets.sort_unstable();
        dets
    }

    fn render(dets: &[(usize, usize)]) -> String {
        dets.iter().map(|(p, f)| format!("{p} {f}\n")).collect()
    }

    fn s27_sample(w: &str) -> Sample {
        let c = s27();
        let u = Universe::of(find(w).unwrap(), &c);
        let patterns = random_patterns(&c, 40, 3);
        Sample::new(&u, &c, &patterns, u.len(), 11)
    }

    #[test]
    fn oracle_accepts_its_own_list() {
        for w in ["large_stuck_t2", "long_stuck", "learned_transition"] {
            let sample = s27_sample(w);
            let dets = oracle_list(&sample);
            assert!(dets.len() > 2, "{w}: s27 detects some faults");
            assert_eq!(check(&render(&dets), &sample), Ok(dets.len()));
        }
    }

    #[test]
    fn oracle_rejects_a_flipped_detection() {
        let sample = s27_sample("long_stuck");
        let mut dets = oracle_list(&sample);
        let (p, f) = dets[1];
        // Detected one pattern later than the oracle says.
        dets[1] = (p + 1, f);
        dets.sort_unstable();
        assert!(check(&render(&dets), &sample).is_err());
    }

    #[test]
    fn oracle_rejects_a_dropped_detection() {
        let sample = s27_sample("learned_transition");
        let mut dets = oracle_list(&sample);
        dets.remove(dets.len() / 2);
        assert!(check(&render(&dets), &sample).is_err());
    }

    #[test]
    fn oracle_rejects_an_extra_detection() {
        let sample = s27_sample("large_stuck_t2");
        let undetected = sample.indices[sample.expected.iter().position(Option::is_none).unwrap()];
        let mut dets = oracle_list(&sample);
        dets.push((0, undetected));
        dets.sort_unstable();
        assert!(check(&render(&dets), &sample).is_err());
    }

    #[test]
    fn malformed_lists_are_rejected() {
        let sample = s27_sample("long_stuck");
        assert!(check("1 2\n0 3\n", &sample).is_err(), "unsorted");
        assert!(check("0 2\n1 2\n", &sample).is_err(), "duplicate fault");
        assert!(check("0 99999\n", &sample).is_err(), "fault out of range");
        assert!(check("0\n", &sample).is_err(), "missing field");
    }

    #[test]
    fn sample_is_seeded_and_distinct() {
        let a = sample_indices(1000, 50, 4);
        assert_eq!(a, sample_indices(1000, 50, 4));
        assert_ne!(a, sample_indices(1000, 50, 5));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_indices(10, 50, 4), (0..10).collect::<Vec<_>>());
    }
}
