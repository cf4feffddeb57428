//! Shared experiment plumbing: the repro binaries' argument reader, the
//! extraction trial, the learning-curve loop every learning study runs,
//! and chart rendering.

use std::str::FromStr;

use coreda_adl::activity::AdlSpec;
use coreda_adl::routine::Routine;
use coreda_adl::step::StepId;
use coreda_core::fleet::FleetEngine;
use coreda_core::metrics::mean_curve;
use coreda_core::planning::{PlanningConfig, PlanningSubsystem};
use coreda_des::rng::SimRng;
use coreda_sensornet::detect::Thresholds;
use coreda_sensornet::network::{LinkConfig, StarNetwork};
use coreda_sensornet::node::PavenetNode;

/// Number of 100 ms samples per second (the PAVENET rate).
pub const TICKS_PER_SEC: u64 = 10;

/// A repro binary's command line: positional values in a fixed order,
/// each falling back to its default once the list runs out, plus
/// `--jobs N` anywhere in the list for the studies that fan out on a
/// [`FleetEngine`]. Reading ends with [`Args::engine`] or
/// [`Args::finish`], which reject whatever is left over.
#[derive(Debug)]
pub struct Args {
    values: std::vec::IntoIter<String>,
    jobs: Option<usize>,
}

impl Args {
    /// Splits `--jobs N` off `raw`.
    ///
    /// # Errors
    ///
    /// `--jobs` repeated, or not followed by a worker count.
    pub fn new<S: Into<String>>(raw: impl IntoIterator<Item = S>) -> Result<Args, String> {
        let mut raw = raw.into_iter().map(Into::into);
        let mut values = Vec::new();
        let mut jobs = None;
        while let Some(arg) = raw.next() {
            if arg != "--jobs" {
                values.push(arg);
                continue;
            }
            if jobs.is_some() {
                return Err("--jobs given twice".to_owned());
            }
            let value = raw.next().ok_or("--jobs needs a worker count")?;
            jobs = Some(
                value.parse().map_err(|_| format!("--jobs got {value:?}, not a worker count"))?,
            );
        }
        Ok(Args { values: values.into_iter(), jobs })
    }

    /// The next positional value, called `name` in errors; `default`
    /// once the list has run out.
    ///
    /// # Errors
    ///
    /// The value does not parse as a `T`.
    pub fn next<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.values.next() {
            None => Ok(default),
            Some(value) => value.parse().map_err(|_| format!("{name} got {value:?}, which does not parse")),
        }
    }

    /// Ends the list of a study that fans out, returning the engine
    /// `--jobs` asked for (the default worker count without it).
    ///
    /// # Errors
    ///
    /// A positional value is left over.
    pub fn engine(mut self) -> Result<FleetEngine, String> {
        self.no_surplus()?;
        Ok(self.jobs.map_or_else(FleetEngine::default, FleetEngine::new))
    }

    /// Ends the list of a study that runs on one thread.
    ///
    /// # Errors
    ///
    /// A positional value is left over, or `--jobs` was given.
    pub fn finish(mut self) -> Result<(), String> {
        self.no_surplus()?;
        match self.jobs {
            Some(_) => Err("--jobs: this study runs on one thread".to_owned()),
            None => Ok(()),
        }
    }

    fn no_surplus(&mut self) -> Result<(), String> {
        match self.values.next() {
            Some(value) => Err(format!("unexpected argument {value:?}")),
            None => Ok(()),
        }
    }
}

/// A repro binary's `main`: reads the process's arguments, prints what
/// `study` returns, or reports its error on stderr and exits 2.
pub fn main(study: fn(Args) -> Result<String, String>) {
    match Args::new(std::env::args().skip(1)).and_then(study) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Simulates one performance of `step_idx` of `spec` and reports whether
/// the sensing pipeline extracted it: the tool's node must deliver at
/// least one `ToolUse` report to the base station while the step runs.
///
/// This is the paper's Table 3 trial: "when we pick up tea-box and take
/// tea-leaf from it, whether it can be extracted as the ADL step". The
/// caller's network is reused across trials: each trial re-registers the
/// node, which resets its link, so it behaves as a fresh network.
pub fn extract_trial(
    spec: &AdlSpec,
    step_idx: usize,
    net: &mut StarNetwork,
    rng: &mut SimRng,
) -> bool {
    let step = &spec.steps()[step_idx];
    let tool = spec.tool(step.tool()).expect("spec is validated");
    let mut node = PavenetNode::new(tool.id().into(), tool.signal(), Thresholds::default());
    net.register(node.uid());

    // Duration drawn from the step's statistics, like a real performance.
    let secs = rng.normal(step.mean_duration_s(), step.sd_duration_s()).max(1.0);
    let ticks = (secs * TICKS_PER_SEC as f64).round() as u64;
    let mut delivered = false;
    for t in 0..ticks {
        if let Some(packet) = node.sample_tick(true, t * 100, rng) {
            if net.send_uplink(&packet, rng).is_delivered() {
                delivered = true;
            }
        }
    }
    delivered
}

/// Per-step extraction success probabilities measured by Monte-Carlo
/// (used to corrupt training data realistically).
pub fn measure_extraction(spec: &AdlSpec, trials: usize, rng: &mut SimRng) -> Vec<f64> {
    let mut net = StarNetwork::new(LinkConfig::default());
    (0..spec.steps().len())
        .map(|i| {
            let hits = (0..trials)
                .filter(|_| extract_trial(spec, i, &mut net, rng))
                .count();
            hits as f64 / trials as f64
        })
        .collect()
}

/// Applies extraction noise to a clean StepID sequence, into `out`: each
/// step is dropped with its per-step miss probability (`1 − extraction`),
/// the way a missed detection removes it from the sensed sequence.
pub fn corrupt_sequence(
    steps: &[StepId],
    spec: &AdlSpec,
    extraction: &[f64],
    rng: &mut SimRng,
    out: &mut Vec<StepId>,
) {
    out.clear();
    out.extend(steps.iter().copied().filter(|s| {
        match spec.step_index(*s) {
            Some(i) => rng.chance(extraction[i].clamp(0.0, 1.0)),
            None => true, // idles / foreign steps pass through
        }
    }));
}

/// Every seed's run of [`learning_runs`], in seed order.
#[derive(Debug, Clone)]
pub struct LearningRuns {
    /// Each run's routine accuracy after each training episode.
    pub curves: Vec<Vec<f64>>,
    /// Each run's planner as its last episode left it.
    pub planners: Vec<PlanningSubsystem>,
}

impl LearningRuns {
    /// The mean accuracy after each episode, over the runs.
    #[must_use]
    pub fn mean_curve(&self) -> Vec<f64> {
        mean_curve(&self.curves)
    }

    /// The mean of `f` over the runs' trained planners.
    pub fn mean_of(&self, f: impl Fn(&PlanningSubsystem) -> f64) -> f64 {
        self.planners.iter().map(f).fold(0.0, |sum, x| sum + x) / self.planners.len() as f64
    }
}

/// The learning-curve protocol every learning study shares: one fleet
/// job per seed index `s`, which trains a new planner on `cfg_of(seed)`
/// for `episodes` recordings of `spec`'s canonical routine, drawing all
/// of its randomness from `SimRng::seed_from(seed)` with
/// `seed = seed_of(s)`, and records the routine accuracy after each
/// episode. With `extraction`, each recording first loses steps at
/// their miss rates ([`corrupt_sequence`]); without it, recordings are
/// clean and draw no corruption randomness. Each job owns its stream, so
/// the runs are identical at any worker count.
pub fn learning_runs(
    engine: FleetEngine,
    spec: &AdlSpec,
    extraction: Option<&[f64]>,
    episodes: usize,
    seeds: usize,
    seed_of: impl Fn(u64) -> u64 + Sync,
    cfg_of: impl Fn(u64) -> PlanningConfig + Sync,
) -> LearningRuns {
    let routine = Routine::canonical(spec);
    let (curves, planners) = engine
        .map((0..seeds as u64).collect(), |s| {
            let seed = seed_of(s);
            let mut rng = SimRng::seed_from(seed);
            let mut planner = PlanningSubsystem::new(spec, cfg_of(seed));
            let mut curve = Vec::with_capacity(episodes);
            let mut observed = Vec::with_capacity(routine.steps().len());
            for _ in 0..episodes {
                let recording = match extraction {
                    Some(extraction) => {
                        corrupt_sequence(routine.steps(), spec, extraction, &mut rng, &mut observed);
                        observed.as_slice()
                    }
                    None => routine.steps(),
                };
                planner.train_episode(recording, &mut rng);
                curve.push(planner.accuracy_vs_routine(&routine));
            }
            (curve, planner)
        })
        .into_iter()
        .unzip();
    LearningRuns { curves, planners }
}

/// Renders a y-range-normalised ASCII line chart of `series` (values in
/// `[0, 1]`), `height` rows tall, one column per point (downsampled to
/// `max_width` columns if longer).
#[must_use]
pub fn ascii_chart(series: &[f64], height: usize, max_width: usize) -> String {
    use std::fmt::Write as _;
    if series.is_empty() || height == 0 {
        return String::new();
    }
    // Downsample by averaging buckets.
    let width = series.len().min(max_width.max(1));
    let cols: Vec<f64> = (0..width)
        .map(|c| {
            let lo = c * series.len() / width;
            let hi = (((c + 1) * series.len()) / width).max(lo + 1);
            series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let mut out = String::new();
    for row in (0..height).rev() {
        let lo = row as f64 / height as f64;
        let hi = (row + 1) as f64 / height as f64;
        let label = if row == height - 1 {
            "100% |"
        } else if row == 0 {
            "  0% |"
        } else {
            "     |"
        };
        out.push_str(label);
        for &v in &cols {
            let ch = if v >= hi {
                '█'
            } else if v > lo {
                '▄'
            } else {
                ' '
            };
            out.push(ch);
        }
        out.push('\n');
    }
    let _ = writeln!(out, "     +{}", "-".repeat(width));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use coreda_adl::activity::catalog;

    #[test]
    fn extract_trial_usually_succeeds_on_long_steps() {
        let tea = catalog::tea_making();
        let mut rng = SimRng::seed_from(1);
        let mut net = StarNetwork::new(LinkConfig::default());
        // Step 0 (tea-box, 6 s, duty 0.6) should essentially always extract.
        let hits = (0..50).filter(|_| extract_trial(&tea, 0, &mut net, &mut rng)).count();
        assert!(hits >= 48, "tea-box extraction too weak: {hits}/50");
    }

    #[test]
    fn corrupt_sequence_drops_by_probability() {
        let tea = catalog::tea_making();
        let ids = tea.step_ids();
        let mut rng = SimRng::seed_from(2);
        // Kill step 1 always, keep the rest.
        let ext = vec![1.0, 0.0, 1.0, 1.0];
        let mut corrupted = vec![ids[1]];
        corrupt_sequence(&ids, &tea, &ext, &mut rng, &mut corrupted);
        assert_eq!(corrupted, vec![ids[0], ids[2], ids[3]]);
    }

    #[test]
    fn learning_runs_are_seeded_per_run_and_clean_runs_learn() {
        let tea = catalog::tea_making();
        let runs = |jobs| {
            learning_runs(FleetEngine::new(jobs), &tea, None, 60, 3, |s| 7 + s, |_| {
                PlanningConfig::default()
            })
        };
        let (serial, parallel) = (runs(1), runs(3));
        assert_eq!(serial.curves, parallel.curves);
        assert_eq!(serial.curves.len(), 3);
        assert!(serial.curves.iter().all(|c| c.len() == 60));
        assert_ne!(serial.curves[0], serial.curves[1], "each run draws its own stream");
        let routine = Routine::canonical(&tea);
        assert_eq!(serial.mean_of(|p| p.accuracy_vs_routine(&routine)), serial.mean_curve()[59]);
        assert!(serial.mean_curve()[59] > 0.9, "{:?}", serial.mean_curve());
    }

    #[test]
    fn ascii_chart_shape() {
        let series: Vec<f64> = (0..100).map(|i| f64::from(i) / 100.0).collect();
        let chart = ascii_chart(&series, 5, 60);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 6, "5 rows + axis");
        assert!(lines[0].starts_with("100% |"));
        assert!(lines[4].starts_with("  0% |"));
        // Rising series: the top row fills only at the right edge.
        let top = lines[0];
        let bottom = lines[4];
        assert!(top.trim_end().ends_with('█') || top.trim_end().ends_with('▄'));
        assert!(bottom.chars().filter(|&c| c == '█').count()
            > top.chars().filter(|&c| c == '█').count());
    }

    #[test]
    fn ascii_chart_handles_degenerate_input() {
        assert!(ascii_chart(&[], 5, 10).is_empty());
        assert!(ascii_chart(&[0.5], 0, 10).is_empty());
        let one = ascii_chart(&[1.0], 3, 10);
        assert!(one.contains('█'));
    }

    fn args(raw: &[&str]) -> Result<Args, String> {
        Args::new(raw.iter().copied())
    }

    #[test]
    fn args_read_positionals_with_defaults_and_jobs_anywhere() {
        let mut a = args(&["40", "--jobs", "3", "2007"]).unwrap();
        assert_eq!(a.next("trials", 1usize), Ok(40));
        assert_eq!(a.next("seed", 1u64), Ok(2007));
        assert_eq!(a.next("spare", 5usize), Ok(5), "a missing value takes its default");
        assert_eq!(a.engine().unwrap().jobs(), 3);

        let mut a = args(&[]).unwrap();
        assert_eq!(a.next("trials", 40usize), Ok(40));
        assert!(a.engine().unwrap().jobs() >= 1);
        args(&[]).unwrap().finish().unwrap();
    }

    #[test]
    fn args_reject_what_they_cannot_read() {
        // A value that does not parse names its argument.
        let mut a = args(&["4O", "2007"]).unwrap();
        assert_eq!(a.next("trials", 40usize), Err("trials got \"4O\", which does not parse".into()));
        let mut a = args(&["120", "sixty"]).unwrap();
        a.next("episodes", 120usize).unwrap();
        assert!(a.next("seeds", 30usize).unwrap_err().starts_with("seeds got \"sixty\""));
        // A surplus value.
        let mut a = args(&["10", "2007", "extra"]).unwrap();
        a.next("seeds", 10usize).unwrap();
        a.next("seed", 2007u64).unwrap();
        assert_eq!(a.engine().unwrap_err(), "unexpected argument \"extra\"");
        // `--jobs` without a count, with a bad one, twice, or where the
        // study takes none.
        assert_eq!(args(&["--jobs"]).unwrap_err(), "--jobs needs a worker count");
        assert!(args(&["--jobs", "two"]).unwrap_err().starts_with("--jobs got \"two\""));
        assert_eq!(args(&["--jobs", "2", "--jobs", "3"]).unwrap_err(), "--jobs given twice");
        let mut a = args(&["150", "--jobs", "4"]).unwrap();
        a.next("phase", 150usize).unwrap();
        assert!(a.finish().unwrap_err().starts_with("--jobs"));
    }
}
