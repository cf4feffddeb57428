//! The CLI's subcommands, written against the library's public API and
//! returning their output as strings so tests can assert on them.

use std::error::Error;

use coreda_adl::activity::{catalog, AdlSpec};
use coreda_adl::dataset;
use coreda_adl::episode::EpisodeGenerator;
use coreda_adl::patient::PatientProfile;
use coreda_adl::routine::{Routine, RoutineSet};
use coreda_core::live::StochasticBehavior;
use coreda_core::persistence;
use coreda_core::planning::{LearnerKind, PlanningConfig, PlanningSubsystem};
use coreda_core::report::DailyReport;
use coreda_core::scenario;
use coreda_core::system::{Coreda, CoredaConfig};
use coreda_des::rng::SimRng;

use crate::args::{Parsed, PAST_THE_CLOCK};

/// A boxed error for command plumbing.
pub type CmdResult = Result<String, Box<dyn Error>>;

/// Resolves an `--adl` option to a catalog activity.
pub fn resolve_adl(name: &str) -> Result<AdlSpec, String> {
    match name.to_ascii_lowercase().as_str() {
        "tea" | "tea-making" => Ok(catalog::tea_making()),
        "tooth" | "tooth-brushing" => Ok(catalog::tooth_brushing()),
        "dressing" => Ok(catalog::dressing()),
        other => Err(format!(
            "unknown ADL {other:?}; available: tea, tooth, dressing"
        )),
    }
}

/// Resolves a `--profile` option to a patient profile.
pub fn resolve_profile(name: &str, user: &str) -> Result<PatientProfile, String> {
    match name.to_ascii_lowercase().as_str() {
        "unimpaired" => Ok(PatientProfile::unimpaired(user)),
        "mild" => Ok(PatientProfile::mild(user)),
        "moderate" => Ok(PatientProfile::moderate(user)),
        "severe" => Ok(PatientProfile::severe(user)),
        other => Err(format!(
            "unknown profile {other:?}; available: unimpaired, mild, moderate, severe"
        )),
    }
}

/// Resolves an `--algorithm` option to a learner kind.
pub fn resolve_algorithm(name: &str, seed: u64) -> Result<LearnerKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "qlambda" | "td-lambda" | "watkins" => Ok(LearnerKind::WatkinsQLambda),
        "q" | "q-learning" => Ok(LearnerKind::QLearning),
        "sarsa" => Ok(LearnerKind::Sarsa),
        "double-q" => Ok(LearnerKind::DoubleQ { seed }),
        "dyna-q" => Ok(LearnerKind::DynaQ { planning_steps: 20, seed }),
        other => Err(format!(
            "unknown algorithm {other:?}; available: qlambda, q, sarsa, double-q, dyna-q"
        )),
    }
}

/// `list` — show the activity catalog.
pub fn list() -> CmdResult {
    use std::fmt::Write as _;
    let mut out = String::new();
    for adl in catalog::all() {
        let _ = writeln!(out, "{adl}");
        for (i, step) in adl.steps().iter().enumerate() {
            let tool = adl.tool(step.tool()).expect("catalog is validated");
            let _ = writeln!(
                out,
                "  {}. {:<30} [{} on {}, ~{:.0}s]",
                i + 1,
                step.name(),
                tool.sensor(),
                tool.name(),
                step.mean_duration_s()
            );
        }
    }
    Ok(out)
}

/// `generate` — synthesise an episode dataset.
pub fn generate(p: &Parsed) -> CmdResult {
    let adl = resolve_adl(p.get_or("adl", "tea"))?;
    let episodes: usize = p.get_parsed("episodes", 120)?;
    let seed: u64 = p.get_parsed("seed", 2007)?;
    let user = p.get_or("user", "anonymous");
    let profile = resolve_profile(p.get_or("profile", "mild"), user)?;
    let routine = Routine::canonical(&adl);
    let generator =
        EpisodeGenerator::new(adl.clone(), RoutineSet::single(routine), profile);
    let mut rng = SimRng::seed_from(seed);
    let batch = generator.generate_batch(episodes, &mut rng);
    let text = dataset::write_episodes(adl.name(), &batch);
    if let Some(path) = p.get("out") {
        std::fs::write(path, &text)?;
        Ok(format!("wrote {episodes} episodes of {} to {path}\n", adl.name()))
    } else {
        Ok(text)
    }
}

/// `train` — learn a routine from a dataset and save the policy.
pub fn train(p: &Parsed) -> CmdResult {
    let path = p.require("dataset")?;
    let text = std::fs::read_to_string(path)?;
    let (adl_name, episodes) = dataset::parse_episodes(&text)?;
    let adl = resolve_adl(&adl_name)?;
    let seed: u64 = p.get_parsed("seed", 2007)?;
    let learner = resolve_algorithm(p.get_or("algorithm", "qlambda"), seed)?;
    let cfg = PlanningConfig { learner, ..PlanningConfig::default() };
    let mut planner = PlanningSubsystem::new(&adl, cfg);
    let mut rng = SimRng::seed_from(seed);
    for ep in &episodes {
        planner.train_episode(&ep.step_ids(), &mut rng);
    }
    let routine = Routine::canonical(&adl);
    let accuracy = planner.accuracy_vs_routine(&routine);
    let mut out = format!(
        "trained on {} episodes of {adl_name}; canonical-routine accuracy {:.0}%\n",
        episodes.len(),
        accuracy * 100.0
    );
    if let Some(out_path) = p.get("out") {
        let blob = persistence::save_policy(&planner);
        std::fs::write(out_path, &blob)?;
        out.push_str(&format!("policy saved to {out_path} ({} bytes)\n", blob.len()));
    }
    Ok(out)
}

/// `evaluate` — load a policy and print its per-transition guidance.
pub fn evaluate(p: &Parsed) -> CmdResult {
    use std::fmt::Write as _;
    let adl = resolve_adl(p.get_or("adl", "tea"))?;
    let blob = std::fs::read(p.require("policy")?)?;
    let mut planner = PlanningSubsystem::new(&adl, PlanningConfig::default());
    persistence::restore_policy(&mut planner, &blob)?;
    let routine = Routine::canonical(&adl);
    let mut out = String::new();
    for (prev, cur, next) in routine.transitions() {
        let prompt = planner.predict(prev, cur).expect("in-domain");
        let confidence = planner.prediction_confidence(prev, cur).unwrap_or(0.0);
        let mark = if Some(prompt.tool) == next.tool() { "ok " } else { "MISS" };
        let _ = writeln!(
            out,
            "  ({prev}, {cur}) -> prompt {tool} [{level}] confidence {conf:.2} {mark}",
            tool = prompt.tool,
            level = prompt.level,
            conf = confidence,
        );
    }
    let _ = writeln!(
        out,
        "accuracy vs canonical routine: {:.0}%",
        planner.accuracy_vs_routine(&routine) * 100.0
    );
    Ok(out)
}

/// `simulate` — run live episodes and print a caregiver report.
pub fn simulate(p: &Parsed) -> CmdResult {
    let adl = resolve_adl(p.get_or("adl", "tea"))?;
    let episodes: usize = p.get_parsed("episodes", 5)?;
    let seed: u64 = p.get_parsed("seed", 2007)?;
    let user = p.get_or("user", "Mr. Tanaka").to_owned();
    let profile = resolve_profile(p.get_or("profile", "moderate"), &user)?;
    let routine = Routine::canonical(&adl);
    let mut system = Coreda::new(adl.clone(), &user, CoredaConfig::default(), seed);
    match p.get("policy") {
        Some(path) => {
            let blob = std::fs::read(path)?;
            persistence::restore_policy(system.planner_mut(), &blob)?;
        }
        None => {
            let mut rng = SimRng::seed_from(seed ^ 0xF00D);
            for _ in 0..200 {
                system.planner_mut().train_episode(routine.steps(), &mut rng);
            }
        }
    }
    let mut rng = SimRng::seed_from(seed ^ 0xBEEF);
    let mut logs = Vec::new();
    let mut out = String::new();
    for i in 1..=episodes {
        let mut behavior = StochasticBehavior::new(profile.clone());
        let log = system.run_live(&routine, &mut behavior, &mut rng);
        if p.get_or("verbose", "false") == "true" {
            out.push_str(&format!("--- episode {i} ---\n{}", log.render()));
        }
        logs.push(log);
    }
    let report = DailyReport::from_logs(&user, format!("{episodes} episodes"), &logs);
    out.push_str(&report.render());
    Ok(out)
}

/// The longest `sensor-trace --seconds`: one hour, 36,020 readings.
const MAX_TRACE_MS: u64 = 3_600_000;

/// `sensor-trace` — record a raw 10 Hz signal trace of one step's tool.
pub fn sensor_trace(p: &Parsed) -> CmdResult {
    use coreda_sensornet::trace::SignalTrace;
    let adl = resolve_adl(p.get_or("adl", "tea"))?;
    let step_no: usize = p.get_parsed("step", 1)?;
    let ms = p.get_secs_in_millis("seconds")?.unwrap_or(10_000);
    // The trace is collected up front, 32 B a reading: bound it before
    // anything is allocated.
    if ms > MAX_TRACE_MS {
        return Err(p.out_of_range("seconds", "a trace covers at most 3600 s").into());
    }
    let seed: u64 = p.get_parsed("seed", 2007)?;
    let step = adl
        .steps()
        .get(step_no.saturating_sub(1))
        .ok_or_else(|| format!("{} has no step {step_no}", adl.name()))?;
    let tool = adl.tool(step.tool()).expect("spec is validated");
    let mut rng = SimRng::seed_from(seed);
    // One second of stillness, the manipulation, one second of stillness.
    let ticks = (ms / 100 + 20) as usize;
    let active_from = 10;
    let active_to = ticks - 10;
    let trace = SignalTrace::record(
        tool.id().raw(),
        &tool.signal(),
        ticks,
        |i| (active_from..active_to).contains(&i),
        &mut rng,
    );
    let text = trace.to_text();
    if let Some(path) = p.get("out") {
        std::fs::write(path, &text)?;
        Ok(format!(
            "wrote {}s trace of {} ({}) to {path}
",
            ms / 1000,
            step.name(),
            tool.name()
        ))
    } else {
        Ok(text)
    }
}

/// `scenario` — replay the paper's Figure 1.
pub fn run_scenario(p: &Parsed) -> CmdResult {
    let seed: u64 = p.get_parsed("seed", 2007)?;
    Ok(scenario::figure1(seed).render())
}

/// `fleet` — run a benchmark suite on the parallel fleet engine.
///
/// Every suite fans its `(config, seed)` grid out over `--jobs` workers;
/// results are bit-identical at any worker count, so `--jobs` is purely a
/// wall-clock knob.
pub fn fleet(p: &Parsed) -> CmdResult {
    use coreda_bench::{ablation, baseline_cmp, contention, fig4, radio_loss, table3, table4};
    use coreda_core::fleet::{default_jobs, FleetEngine};

    let jobs: usize = p.get_parsed("jobs", default_jobs())?;
    let seeds: usize = p.get_parsed("seeds", 4)?;
    let seed: u64 = p.get_parsed("seed", 2007)?;
    let engine = FleetEngine::new(jobs);
    let suite = p.get_or("suite", "ablation");

    let mut out = format!(
        "fleet: suite={suite} jobs={} seeds={seeds} seed={seed}\n",
        engine.jobs()
    );
    match suite.to_ascii_lowercase().as_str() {
        "ablation" => {
            let lam = ablation::lambda_sweep_with(engine, &[0.0, 0.3, 0.6, 0.9], 120, seeds, seed);
            out.push_str(&ablation::render("Eligibility-trace decay (lambda)", &lam));
            let algos = ablation::algorithm_family_with(engine, 120, seeds, seed);
            out.push_str(&ablation::render("Algorithm family", &algos));
        }
        "fig4" => {
            out.push_str(&fig4::render(&fig4::run_with(engine, 160, seeds, seed)));
        }
        "table3" => {
            out.push_str(&table3::render(&table3::run_with_link_on(
                engine,
                200,
                seed,
                Default::default(),
            )));
        }
        "table4" => {
            out.push_str(&table4::render(&table4::run_on(engine, 200, seed)));
        }
        "radio-loss" => {
            out.push_str(&radio_loss::render(&radio_loss::run_on(engine, 120, 120, seeds, seed)));
        }
        "contention" => {
            out.push_str(&contention::render(&contention::run_on(engine, 60, seed)));
        }
        "baselines" => {
            let tea = catalog::tea_making();
            let rows = baseline_cmp::accuracy_study_with(engine, &tea, seeds.max(1), seed);
            out.push_str(&baseline_cmp::render_accuracy(&rows));
            out.push_str(&baseline_cmp::render_live(&baseline_cmp::live_study_with(
                engine, 12, seed,
            )));
        }
        other => {
            return Err(format!(
                "unknown suite {other:?}; available: ablation, fig4, table3, table4, \
                 radio-loss, contention, baselines"
            )
            .into())
        }
    }
    Ok(out)
}

/// Parses the metro knobs shared by `scale`, `checkpoint`, `resume`,
/// `serve` and `loadgen`.
fn metro_config(
    p: &Parsed,
    default_homes: usize,
    default_hours: f64,
) -> Result<coreda_core::metro::MetroConfig, Box<dyn Error>> {
    use coreda_core::fleet::default_jobs;
    use coreda_core::metro::MetroConfig;
    use coreda_des::time::SimDuration;

    let homes: usize = p.get_parsed("homes", default_homes)?;
    let hours: f64 = p.get_parsed("hours", default_hours)?;
    let jobs: usize = p.get_parsed("jobs", default_jobs())?;
    let seed: u64 = p.get_parsed("seed", 2007)?;
    if homes == 0 {
        return Err("--homes must be at least 1".into());
    }
    if !hours.is_finite() || hours <= 0.0 {
        return Err("--hours must be a positive number".into());
    }
    // An `as` cast saturates, turning a horizon past 2^64 ms into a run
    // that never ends; refuse it instead.
    let ms = hours * 3_600_000.0;
    if ms >= 18_446_744_073_709_551_616.0 {
        return Err(p.out_of_range("hours", PAST_THE_CLOCK).into());
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let horizon = SimDuration::from_millis(ms as u64);
    Ok(MetroConfig { homes, horizon, seed, jobs, ..MetroConfig::default() })
}

/// Encodes each fleet snapshot and writes it as `<prefix>-<N>s.ckpt`,
/// appending a line per file to `out`.
fn write_snapshots(
    prefix: &str,
    ckpts: &[coreda_core::MetroCheckpoint],
    jobs: usize,
    out: &mut String,
) -> Result<(), Box<dyn Error>> {
    for ckpt in ckpts {
        let blob = coreda_core::save_checkpoint(ckpt, jobs);
        let secs = ckpt.at.as_millis() / 1000;
        let path = format!("{prefix}-{secs}s.ckpt");
        std::fs::write(&path, &blob)?;
        out.push_str(&format!("snapshot @ {secs}s -> {path} ({} bytes)\n", blob.len()));
    }
    Ok(())
}

/// `scale` — serve a metro fleet of independent homes.
///
/// Runs `--homes` full CoReDA households for `--hours` of simulated time
/// on the multi-home serving engine, sharded over `--jobs` workers.
/// Results are bit-identical at any worker count; only the header echoes
/// the knobs. `--checkpoint-every` writes durable fleet snapshots along
/// the way; `--resume-from` continues one (the resumed report is
/// bit-identical to never having stopped). The flags build one
/// [`RunSpec`](coreda_core::metro::RunSpec).
pub fn scale(p: &Parsed) -> CmdResult {
    use coreda_core::escalation::CarePolicy;
    use coreda_core::metro::{run, RunSpec};
    use coreda_des::time::SimTime;

    let cfg = metro_config(p, 16, 0.5)?;
    let hours: f64 = p.get_parsed("hours", 0.5)?;
    let header = format!(
        "scale: homes={} hours={hours} jobs={} seed={}\n",
        cfg.homes, cfg.jobs, cfg.seed
    );

    // --care true overlays the caregiver escalation monitor — a pure
    // fold over the event log, so the fleet report is untouched; the
    // run gains the deterministic escalation summary and the fleet
    // analytics quantile rollup. The overlay is not checkpointable
    // state, so it stays plain-run only.
    let care: bool = p.get_parsed("care", false)?;
    if p.get("care-out").is_some() && !care {
        return Err("--care-out needs --care true".into());
    }
    if care
        && (p.get("trace-out").is_some()
            || p.get("wal-out").is_some()
            || p.get("resume-from").is_some()
            || p.get("checkpoint-every").is_some())
    {
        return Err("--care cannot combine with --trace-out, --wal-out, \
                    --resume-from, or --checkpoint-every; drop one"
            .into());
    }

    let ckpt_prefix = p.get("checkpoint-out");
    let stops: Vec<SimTime> = match (p.get_secs_in_millis("checkpoint-every")?, ckpt_prefix) {
        (None, None) => Vec::new(),
        (None, Some(_)) => return Err("--checkpoint-out needs --checkpoint-every S".into()),
        (Some(_), None) => return Err("--checkpoint-every needs --checkpoint-out PREFIX".into()),
        (Some(0), Some(_)) => return Err("--checkpoint-every must be at least 1".into()),
        (Some(every_ms), Some(_)) => {
            let horizon_ms = cfg.horizon.as_millis();
            if every_ms > horizon_ms {
                return Err("--checkpoint-every exceeds the horizon; nothing to snapshot".into());
            }
            (1..=horizon_ms / every_ms).map(|k| SimTime::from_millis(k * every_ms)).collect()
        }
    };
    let resume = match p.get("resume-from") {
        Some(path) => {
            let blob = std::fs::read(path)?;
            let ckpt = coreda_core::load_checkpoint(&blob, cfg.jobs)?;
            if ckpt.at.as_millis() >= cfg.horizon.as_millis() {
                return Err(format!(
                    "snapshot is at {}s but --hours ends the run at {}s; resume needs a \
                     horizon past the snapshot",
                    ckpt.at.as_millis() / 1000,
                    cfg.horizon.as_millis() / 1000
                )
                .into());
            }
            Some(ckpt)
        }
        None => None,
    };

    // --trace-out turns the flight recorder on and --wal-out the
    // write-ahead event log; the report is bit-identical either way
    // (recording draws no randomness, logging is derived, never fed
    // back). With --checkpoint-every, --wal-out switches the snapshot
    // stream to incremental durability — a full base at the first stop,
    // then one compact delta per stop, costs that scale with activity
    // rather than fleet size.
    let trace_path = p.get("trace-out");
    let wal_path = p.get("wal-out");
    if wal_path.is_some() && (trace_path.is_some() || resume.is_some()) {
        return Err("--wal-out cannot combine with --trace-out or --resume-from; drop one".into());
    }
    if trace_path.is_some() && resume.is_some() && !stops.is_empty() {
        return Err("--trace-out cannot combine with both --resume-from and --checkpoint-every; \
                    drop one"
            .into());
    }
    let policy = CarePolicy::default();
    let spec = RunSpec {
        record: false,
        trace: trace_path.is_some(),
        log: wal_path.is_some(),
        care: care.then_some(&policy),
        stops: &stops,
        resume: resume.as_ref(),
        faults: None,
    };
    let result = run(&cfg, &spec)?;

    let mut out = header;
    out.push_str(&result.report.render());
    if let Some(care) = &result.care {
        out.push_str(&care.render());
        if let Some(path) = p.get("care-out") {
            std::fs::write(path, care.render_log())?;
            out.push_str(&format!(
                "escalation log -> {path} ({} events)\n",
                care.events.len()
            ));
        }
    }
    if let Some(path) = trace_path {
        std::fs::write(path, result.telemetry.to_jsonl())?;
        out.push_str(&format!("telemetry JSONL -> {path}\n"));
    }
    match (wal_path, ckpt_prefix) {
        (Some(wal_path), None) => write_wal(wal_path, &cfg, &result.wal, &mut out)?,
        (Some(wal_path), Some(prefix)) => {
            let (_, durable) = result.into_durable();
            let base_blob = coreda_core::save_checkpoint(&durable.base, cfg.jobs);
            let base_secs = durable.base.at.as_millis() / 1000;
            let base_path = format!("{prefix}-{base_secs}s.ckpt");
            std::fs::write(&base_path, &base_blob)?;
            out.push_str(&format!(
                "base snapshot @ {base_secs}s -> {base_path} ({} bytes)\n",
                base_blob.len()
            ));
            for delta in &durable.deltas {
                let blob = coreda_core::save_delta(delta, cfg.jobs);
                let secs = delta.at.as_millis() / 1000;
                let path = format!("{prefix}-{secs}s.delta");
                std::fs::write(&path, &blob)?;
                out.push_str(&format!(
                    "delta @ {secs}s -> {path} ({} bytes, {} of {} homes dirty)\n",
                    blob.len(),
                    delta.dirty_homes(),
                    durable.base.homes.len()
                ));
            }
            write_wal(wal_path, &cfg, &durable.wal, &mut out)?;
        }
        (None, Some(prefix)) => write_snapshots(prefix, &result.checkpoints, cfg.jobs, &mut out)?,
        (None, None) => {}
    }
    Ok(out)
}

/// Encodes the write-ahead log to `path`, appending a line to `out`.
fn write_wal(
    path: &str,
    cfg: &coreda_core::metro::MetroConfig,
    wal: &[coreda_core::WalRecord],
    out: &mut String,
) -> Result<(), Box<dyn Error>> {
    let blob = coreda_core::encode_wal(coreda_core::config_digest(cfg), wal);
    std::fs::write(path, &blob)?;
    out.push_str(&format!(
        "write-ahead log: {} records -> {path} ({} bytes)\n",
        wal.len(),
        blob.len()
    ));
    Ok(())
}

/// `checkpoint` — run a metro fleet and write one durable snapshot.
///
/// Serves the fleet to `--hours`, capturing the complete resumable state
/// at `--at` seconds (default: the horizon) into `--out`. The snapshot
/// is versioned, checksummed, and config-fingerprinted; `resume`
/// continues it bit-identically.
pub fn checkpoint(p: &Parsed) -> CmdResult {
    use coreda_core::metro::{run, RunSpec};
    use coreda_des::time::SimTime;

    let cfg = metro_config(p, 16, 0.5)?;
    let out_path = p.require("out")?;
    let at_ms = p.get_secs_in_millis("at")?.unwrap_or(cfg.horizon.as_millis() / 1000 * 1000);
    let (at, at_s) = (SimTime::from_millis(at_ms), at_ms / 1000);
    if at == SimTime::ZERO || at_ms > cfg.horizon.as_millis() {
        return Err(format!(
            "--at must lie in (0, horizon]; got {at_s}s with a {}s horizon",
            cfg.horizon.as_millis() / 1000
        )
        .into());
    }
    let result = run(&cfg, &RunSpec { stops: &[at], ..RunSpec::default() })?;
    let blob = coreda_core::save_checkpoint(&result.checkpoints[0], cfg.jobs);
    std::fs::write(out_path, &blob)?;
    Ok(format!(
        "checkpoint: homes={} at={at_s}s jobs={} seed={}\n{}snapshot @ {at_s}s -> \
         {out_path} ({} bytes)\n",
        cfg.homes,
        cfg.jobs,
        cfg.seed,
        result.report.render(),
        blob.len()
    ))
}

/// `resume` — continue a metro fleet from a snapshot file.
///
/// Loads `--from`, validates its version, checksum and config
/// fingerprint (`--homes`/`--seed` must match the snapshotted run;
/// `--jobs` and `--hours` may change freely), and serves to
/// the new horizon. The report is bit-identical to a run that was never
/// interrupted.
///
/// `--from` also accepts a comma-separated incremental chain —
/// `base.ckpt,120s.delta,240s.delta` from `scale --wal-out
/// --checkpoint-every` — folded base-first before serving. `--wal FILE`
/// reads the (possibly torn) write-ahead log back tolerantly and
/// cross-checks the resumed replay against the stored tail: a log that
/// disagrees with the deterministic replay belongs to a different
/// history and fails the resume.
pub fn resume(p: &Parsed) -> CmdResult {
    use coreda_core::metro::{resume_scale_durable, run, DurableRun, RunSpec};

    let from = p.require("from")?;
    let mut parts = from.split(',');
    let base_path = parts.next().expect("split yields at least one part");
    let blob = std::fs::read(base_path)?;
    // Decoding is jobs-invariant, so one serial decode serves any run.
    let base = coreda_core::load_checkpoint(&blob, 1)?;
    let mut deltas = Vec::new();
    for path in parts {
        deltas.push(coreda_core::load_delta(&std::fs::read(path)?, 1)?);
    }
    let wal = match p.get("wal") {
        // Tolerant read: a log torn mid-chunk by the crash still yields
        // its intact record prefix.
        Some(path) => coreda_core::decode_wal_tolerant(&std::fs::read(path)?)?.records,
        None => Vec::new(),
    };
    let at = deltas.last().map_or(base.at, |d| d.at);
    // Default --homes to what the snapshot holds; the digest still
    // guards against resuming a genuinely different fleet.
    let cfg = metro_config(p, base.homes.len(), 0.5)?;
    if at.as_millis() >= cfg.horizon.as_millis() {
        return Err(format!(
            "snapshot is at {}s but --hours ends the run at {}s; resume needs a horizon \
             past the snapshot",
            at.as_millis() / 1000,
            cfg.horizon.as_millis() / 1000
        )
        .into());
    }
    let header = format!(
        "resume: from={from} at={}s homes={} jobs={} seed={}{wal_note}\n",
        at.as_millis() / 1000,
        cfg.homes,
        cfg.jobs,
        cfg.seed,
        wal_note = if wal.is_empty() {
            String::new()
        } else {
            format!(" wal={} records", wal.len())
        },
    );
    if !deltas.is_empty() || !wal.is_empty() {
        if p.get("trace-out").is_some() {
            return Err("--trace-out cannot combine with an incremental chain or --wal; \
                        drop one"
                .into());
        }
        let chain = DurableRun { base, deltas, wal };
        return Ok(format!("{header}{}", resume_scale_durable(&cfg, &chain)?.render()));
    }
    let trace_path = p.get("trace-out");
    let spec = RunSpec { trace: trace_path.is_some(), resume: Some(&base), ..RunSpec::default() };
    let result = run(&cfg, &spec)?;
    let mut out = format!("{header}{}", result.report.render());
    if let Some(path) = trace_path {
        std::fs::write(path, result.telemetry.to_jsonl())?;
        out.push_str(&format!("telemetry JSONL -> {path}\n"));
    }
    Ok(out)
}

/// `trace` — serve a metro fleet with the flight recorder on.
///
/// Same serving engine as `scale`, but every home collects pipeline
/// counters, stage-latency histograms (idle-detect delay, wrong-tool to
/// red-blink, prompt to compliance), and a bounded ring of trace events.
/// Prints the deterministic telemetry summary; `--out` additionally
/// writes the full JSONL export. The summary is bit-identical at any
/// `--jobs` count; only the header (peak queue depth) varies.
pub fn trace(p: &Parsed) -> CmdResult {
    use coreda_core::fleet::default_jobs;
    use coreda_core::metro::{run, MetroConfig, RunSpec};
    use coreda_des::time::SimDuration;

    let homes: usize = p.get_parsed("homes", 8)?;
    let horizon_ms = p.get_secs_in_millis("seconds")?.unwrap_or(900_000);
    let seconds = horizon_ms / 1000;
    let jobs: usize = p.get_parsed("jobs", default_jobs())?;
    let seed: u64 = p.get_parsed("seed", 2007)?;
    if homes == 0 {
        return Err("--homes must be at least 1".into());
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let cfg = MetroConfig {
        homes,
        horizon: SimDuration::from_millis(horizon_ms),
        seed,
        jobs,
        ..MetroConfig::default()
    };
    // --replay-home: time-travel replay of one home's logged
    // transitions, reconstructed from the write-ahead event log.
    let replay_home: Option<u32> = p.get_parsed_opt("replay-home")?;
    if let Some(home) = replay_home.filter(|&home| home as usize >= homes) {
        return Err(format!("--replay-home {home} is out of range for a {homes}-home fleet").into());
    }
    if replay_home.is_some() && p.get("out").is_some() {
        // A replay prints a timeline and runs no flight recorder.
        return Err("--out cannot combine with --replay-home; drop one".into());
    }
    let (trace, log) = (replay_home.is_none(), replay_home.is_some());
    let spec = RunSpec { trace, log, ..RunSpec::default() };
    let out = run(&cfg, &spec)?;
    if let Some(home) = replay_home {
        let mut text = format!(
            "trace: homes={homes} seconds={seconds} seed={seed} replay of home {home}\n",
        );
        text.push_str(&coreda_core::render_home_timeline(&out.wal, home));
        return Ok(text);
    }
    let mut text = format!(
        "trace: homes={homes} seconds={seconds} jobs={jobs} seed={seed} \
         (peak queue depth {peak})\n",
        peak = out.peak_pending,
    );
    text.push_str(&out.telemetry.render_summary());
    if let Some(path) = p.get("out") {
        std::fs::write(path, out.telemetry.to_jsonl())?;
        text.push_str(&format!("telemetry JSONL -> {path}\n"));
    }
    Ok(text)
}

/// `serve` — drive a metro fleet through the online serving front end.
///
/// Same households as `scale`, but every home sits behind a byte-level
/// wire connection: the server offers each DES wake as a `Poll` frame,
/// the mote client answers with a `Report`, and prompts/escalations
/// ride back as `Deliver` frames — all through the versioned,
/// CRC-guarded codec. Reports are advisory (they only move a
/// flow-control watermark), so under the sim clock the served report is
/// bit-identical to `scale` at any `--jobs`; the wire accounting line is
/// the only addition.
pub fn serve(p: &Parsed) -> CmdResult {
    use coreda_serve::{serve_scale, ServeOptions};

    let cfg = metro_config(p, 16, 0.5)?;
    let hours: f64 = p.get_parsed("hours", 0.5)?;
    let header = format!(
        "serve: homes={} hours={hours} jobs={} seed={}\n",
        cfg.homes, cfg.jobs, cfg.seed
    );
    let trace_out = p.get("trace-out");
    let care: bool = p.get_parsed("care", false)?;
    let opts = ServeOptions {
        record: false,
        trace: trace_out.is_some(),
        care: care.then(coreda_core::escalation::CarePolicy::default),
    };
    let outcome = serve_scale(cfg, &opts)?;
    let mut out = header;
    out.push_str(&outcome.output.report.render());
    let w = &outcome.wire;
    out.push_str(&format!(
        "wire: {} frames in / {} frames out, {} reports, {} deliveries, {} byes\n",
        w.frames_in, w.frames_out, w.reports, w.delivers, w.byes_out
    ));
    if let Some(care) = &outcome.care {
        out.push_str(&format!("wire escalations: {}\n", w.escalations));
        out.push_str(&care.render());
    }
    if let Some(path) = trace_out {
        std::fs::write(path, outcome.output.telemetry.to_jsonl())?;
        out.push_str(&format!("telemetry JSONL -> {path}\n"));
    }
    Ok(out)
}

/// `loadgen` — replay a metro fleet as concurrent wire clients.
///
/// Load-generator mode for the serving front end: every home becomes a
/// client hammering the ingestion loop through the real codec, and the
/// report aggregates wire traffic plus delivery-latency quantiles. By
/// default the fleet runs on the sim clock (as fast as the machine
/// allows); `--wall S` paces wakes on the wall clock at `S`× real time
/// instead. Everything above the timing lines is deterministic.
pub fn loadgen(p: &Parsed) -> CmdResult {
    use coreda_serve::run_loadgen;

    let cfg = metro_config(p, 64, 0.25)?;
    let speedup: Option<f64> = p.get_parsed_opt("wall")?;
    if speedup.is_some_and(|s| !s.is_finite() || s <= 0.0) {
        return Err("--wall must be a positive speed-up factor".into());
    }
    let report = run_loadgen(cfg, speedup)?;
    let mut out = report.render();
    out.push_str(&report.render_timing());
    Ok(out)
}

/// `fuzz` — deterministic simulation-testing campaign.
///
/// Expands `--seed` into a stream of fault plans (radio loss bursts,
/// node crashes, sensor flips, clock skew, non-compliance, severe
/// lapses, routine drift), serves each on a small production fleet
/// behind the fault overlay, at jobs 1 and at `--jobs`, every invariant
/// oracle attached, and shrinks any violation to a minimal `.seed.json`
/// repro. Fails (non-zero exit) if any oracle fires.
pub fn fuzz(p: &Parsed) -> CmdResult {
    use coreda_testkit::fuzz::{fuzz, FuzzConfig};

    let defaults = FuzzConfig::default();
    let cfg = FuzzConfig {
        seconds: p.get_parsed("seconds", defaults.seconds)?,
        seed: p.get_parsed("seed", defaults.seed)?,
        jobs: p.get_parsed("jobs", defaults.jobs)?,
        out_dir: p.get("out").map(std::path::PathBuf::from),
        trace_dir: p.get("trace-out").map(std::path::PathBuf::from),
        max_plans: p.get_parsed("plans", defaults.max_plans)?,
        kill_resume: p.get_parsed("kill-resume", defaults.kill_resume)?,
        served: p.get_parsed("served", defaults.served)?,
        care: p.get_parsed("care", defaults.care)?,
    };
    let report = fuzz(&cfg)?;
    let rendered = report.render();
    if report.passed() {
        Ok(rendered)
    } else {
        Err(rendered.into())
    }
}

/// `replay` — re-run `.seed.json` fault plans from the regression corpus.
///
/// Each entry must reproduce its recorded expectation exactly: the named
/// oracle fires again, or (for clean entries) every oracle stays silent.
pub fn replay(p: &Parsed) -> CmdResult {
    use coreda_testkit::corpus;

    let outcomes = match (p.get("file"), p.get("dir")) {
        (Some(file), None) => vec![corpus::replay_file(std::path::Path::new(file))?],
        (None, Some(dir)) => corpus::replay_dir(std::path::Path::new(dir))?,
        _ => return Err("replay needs exactly one of --file FILE or --dir DIR".into()),
    };
    let mut out = String::new();
    for o in &outcomes {
        out.push_str(&o.render());
        out.push('\n');
    }
    let failed = outcomes.iter().filter(|o| !o.pass).count();
    out.push_str(&format!("replayed {}, {failed} failed\n", outcomes.len()));
    if failed == 0 {
        Ok(out)
    } else {
        Err(out.into())
    }
}

/// `help` — usage text.
#[must_use]
pub fn help() -> String {
    "\
coreda-cli — the CoReDA context-aware ADL reminding system

USAGE: coreda-cli <command> [--option value]...
       (each command accepts only the options listed under it)

COMMANDS
  list                       show the activity catalog
  generate                   synthesise an episode dataset
      --adl tea|tooth|dressing activity                   [tea]
      --episodes N           how many                     [120]
      --profile P            unimpaired|mild|moderate|severe [mild]
      --user NAME            user name for the profile    [anonymous]
      --seed N               rng seed                     [2007]
      --out FILE             write to file instead of stdout
  train                      learn a routine from a dataset
      --dataset FILE         dataset produced by 'generate'  (required)
      --out FILE             save the learned policy blob
      --algorithm A          qlambda|q|sarsa|double-q|dyna-q [qlambda]
      --seed N               rng seed                     [2007]
  evaluate                   inspect a saved policy
      --policy FILE          policy blob from 'train'       (required)
      --adl tea|tooth        activity the policy is for   [tea]
  simulate                   run live guided episodes
      --adl tea|tooth        activity                     [tea]
      --episodes N           how many                     [5]
      --profile P            patient severity             [moderate]
      --policy FILE          use a saved policy (else trains in-process)
      --user NAME            user name for prompts        [Mr. Tanaka]
      --verbose true         print every episode timeline
      --seed N               rng seed                     [2007]
  sensor-trace               record a raw 10 Hz signal trace
      --adl tea|tooth        activity                     [tea]
      --step N               1-based step number          [1]
      --seconds N            manipulation length          [10]
      --seed N               rng seed                     [2007]
      --out FILE             write to file instead of stdout
  scenario                   replay the paper's Figure 1
      --seed N               rng seed                     [2007]
  fleet                      run a benchmark suite on the parallel engine
      --suite S              ablation|fig4|table3|table4|radio-loss|
                             contention|baselines        [ablation]
      --jobs N               worker threads (results are identical at
                             any N)                      [all cores]
      --seeds N              seeds per sweep point        [4]
      --seed N               base rng seed                [2007]
  scale                      serve a metro fleet of homes
      --homes N              independent households       [16]
      --hours H              simulated horizon (fractional ok) [0.5]
      --jobs N               worker threads (results are identical at
                             any N)                      [all cores]
      --seed N               base rng seed                [2007]
      --trace-out FILE       also run the flight recorder and write
                             telemetry JSONL here
      --checkpoint-every S   write a fleet snapshot every S simulated
                             seconds (needs --checkpoint-out)
      --checkpoint-out P     snapshot path prefix: writes P-<N>s.ckpt
                             (needs --checkpoint-every)
      --resume-from FILE     continue from a snapshot instead of starting
                             fresh (bit-identical to never stopping)
      --wal-out FILE         write the write-ahead event log here; with
                             --checkpoint-every the snapshot stream turns
                             incremental (P-<N>s.ckpt base, then compact
                             P-<N>s.delta per stop)
      --care true            overlay the caregiver escalation monitor:
                             prints the escalation summary and the fleet
                             analytics rollup (bit-identical at any
                             --jobs)                       [false]
      --care-out FILE        with --care, write the full escalation log
                             here, one line per event
  checkpoint                 run a fleet and write one durable snapshot
      --out FILE             snapshot file                  (required)
      --at S                 snapshot instant, seconds    [the horizon]
      --homes/--hours/--jobs/--seed as for scale
  resume                     continue a fleet from a snapshot
      --from FILE            snapshot from 'checkpoint' or
                             --checkpoint-every; a comma-separated
                             base.ckpt,...delta chain folds base-first
                                                            (required)
      --wal FILE             cross-check the resumed replay against a
                             stored write-ahead log (torn tails are
                             salvaged tolerantly)
      --hours H              new total horizon (must lie past the
                             snapshot instant)            [0.5]
      --homes/--seed         must match the snapshotted run (the config
                             fingerprint is enforced)
      --jobs N               free to change; results are identical
      --trace-out FILE       flight-record the resumed run; telemetry
                             merges across the snapshot boundary
  trace                      serve homes with the flight recorder on
      --homes N              independent households       [8]
      --seconds N            simulated horizon            [900]
      --jobs N               worker threads (summary is identical at
                             any N)                      [all cores]
      --seed N               base rng seed                [2007]
      --out FILE             write full telemetry JSONL here
      --replay-home N        time-travel replay: print home N's logged
                             transitions from the write-ahead event log
                             (instead of the summary; no --out)
  serve                      drive a fleet through the online serving
                             front end: every home behind a byte-level
                             wire connection (versioned, CRC-guarded
                             frames); under the sim clock the report is
                             bit-identical to 'scale'
      --homes/--hours/--jobs/--seed as for scale
      --care true            caregiver escalations ride back to the
                             clients as Escalate frames; prints the wire
                             escalation count plus the care summary
                                                           [false]
      --trace-out FILE       also run the flight recorder and write
                             telemetry JSONL here
  loadgen                    replay a fleet as concurrent wire clients
      --homes N              independent households       [64]
      --hours H              simulated horizon (fractional ok) [0.25]
      --jobs/--seed          as for scale
      --wall S               pace wakes on the wall clock at S x real
                             time instead of the sim clock
  fuzz                       deterministic simulation-testing campaign
      --seconds N            wall-clock budget            [60]
      --seed N               campaign seed                [2007]
      --jobs N               workers for the jobs differential [3]
      --plans N              hard cap on fault plans      [unlimited]
      --kill-resume true     also kill-and-resume every plan through the
                             durability codecs (full snapshot, then
                             incremental deltas; write-ahead log torn
                             mid-chunk), checking the resumed run
                             against its uninterrupted ghost [false]
      --served true          fuzz the served ingestion path instead:
                             transport fault plans (duplicated, reordered,
                             delayed frames; mid-session hangups) checked
                             against the batch run on full and
                             single-instant serving windows [false]
      --care true            fuzz the caregiver escalation overlay
                             instead: caregiver-outage fault plans checked
                             by the escalation_consistency oracle across
                             a jobs differential and the served path
                                                           [false]
      --out DIR              write shrunken .seed.json repros here
      --trace-out DIR        write violation flight records (.trace.jsonl)
                             here                        [--out dir]
  replay                     re-run .seed.json fault-plan repros
      --file FILE            one corpus entry
      --dir DIR              every *.seed.json in a directory
  help                       this text
"
    .to_owned()
}

/// A command: its name, the options it accepts, and its handler.
type Command = (&'static str, &'static [&'static str], fn(&Parsed) -> CmdResult);

/// Every command with the options it accepts and its handler, in
/// `help` order. [`dispatch`] rejects any other option before the
/// command runs, so a misspelt or retired flag fails loudly instead of
/// being silently ignored.
const COMMANDS: &[Command] = &[
    ("list", &[], |_| list()),
    ("generate", &["adl", "episodes", "profile", "user", "seed", "out"], generate),
    ("train", &["dataset", "out", "algorithm", "seed"], train),
    ("evaluate", &["policy", "adl"], evaluate),
    ("simulate", &["adl", "episodes", "profile", "policy", "user", "verbose", "seed"], simulate),
    ("sensor-trace", &["adl", "step", "seconds", "seed", "out"], sensor_trace),
    ("scenario", &["seed"], run_scenario),
    ("fleet", &["suite", "jobs", "seeds", "seed"], fleet),
    (
        "scale",
        &[
            "homes",
            "hours",
            "jobs",
            "seed",
            "trace-out",
            "checkpoint-every",
            "checkpoint-out",
            "resume-from",
            "wal-out",
            "care",
            "care-out",
        ],
        scale,
    ),
    ("checkpoint", &["out", "at", "homes", "hours", "jobs", "seed"], checkpoint),
    ("resume", &["from", "wal", "hours", "homes", "jobs", "seed", "trace-out"], resume),
    ("trace", &["homes", "seconds", "jobs", "seed", "out", "replay-home"], trace),
    ("serve", &["homes", "hours", "jobs", "seed", "care", "trace-out"], serve),
    ("loadgen", &["homes", "hours", "jobs", "seed", "wall"], loadgen),
    (
        "fuzz",
        &["seconds", "seed", "jobs", "plans", "kill-resume", "served", "care", "out", "trace-out"],
        fuzz,
    ),
    ("replay", &["file", "dir"], replay),
    ("help", &[], |_| Ok(help())),
];

/// Dispatches a parsed command line.
///
/// # Errors
///
/// An unknown command, an option the command does not accept
/// ([`ArgError::UnknownOption`](crate::args::ArgError::UnknownOption)),
/// or whatever the command itself fails with.
pub fn dispatch(p: &Parsed) -> CmdResult {
    let Some(&(_, accepted, run)) = COMMANDS.iter().find(|(name, ..)| *name == p.command())
    else {
        return Err(format!("unknown command {:?}; try 'help'", p.command()).into());
    };
    p.check_options(accepted)?;
    run(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Parsed {
        Parsed::from_args(args.iter().map(|s| (*s).to_owned())).unwrap()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("coreda-cli-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn list_shows_both_adls() {
        let out = list().unwrap();
        assert!(out.contains("Tea-making"));
        assert!(out.contains("Tooth-brushing"));
        assert!(out.contains("pressure on electronic-pot"));
    }

    #[test]
    fn generate_train_evaluate_pipeline() {
        let data = temp_path("dataset.txt");
        let policy = temp_path("policy.bin");
        let out = generate(&parse(&[
            "generate", "--adl", "tea", "--episodes", "150",
            "--out", data.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote 150 episodes"));

        let out = train(&parse(&[
            "train", "--dataset", data.to_str().unwrap(),
            "--out", policy.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("accuracy 100%"), "{out}");

        let out = evaluate(&parse(&[
            "evaluate", "--policy", policy.to_str().unwrap(), "--adl", "tea",
        ]))
        .unwrap();
        assert!(out.contains("accuracy vs canonical routine: 100%"), "{out}");
        assert!(!out.contains("MISS"), "{out}");

        let _ = std::fs::remove_file(data);
        let _ = std::fs::remove_file(policy);
    }

    #[test]
    fn generate_to_stdout_is_parseable() {
        let out = generate(&parse(&["generate", "--episodes", "3"])).unwrap();
        let (adl, eps) = coreda_adl::dataset::parse_episodes(&out).unwrap();
        assert_eq!(adl, "Tea-making");
        assert_eq!(eps.len(), 3);
    }

    #[test]
    fn simulate_prints_a_report() {
        let out =
            simulate(&parse(&["simulate", "--episodes", "2", "--profile", "mild"])).unwrap();
        assert!(out.contains("Care report"), "{out}");
        assert!(out.contains("2"), "{out}");
    }

    #[test]
    fn sensor_trace_roundtrips() {
        let out = sensor_trace(&parse(&["sensor-trace", "--step", "2", "--seconds", "5"]))
            .unwrap();
        let trace = coreda_sensornet::trace::SignalTrace::from_text(&out).unwrap();
        assert_eq!(trace.tool, coreda_adl::activity::catalog::POT);
        assert_eq!(trace.readings.len(), 70, "5s active + 2s lead in/out at 10 Hz");
    }

    #[test]
    fn sensor_trace_rejects_bad_step() {
        let err = sensor_trace(&parse(&["sensor-trace", "--step", "9"])).unwrap_err();
        assert!(err.to_string().contains("no step 9"));
    }

    #[test]
    fn scenario_prints_the_timeline() {
        let out = run_scenario(&parse(&["scenario"])).unwrap();
        assert!(out.contains("ADL completed"), "{out}");
    }

    #[test]
    fn train_accepts_alternative_algorithms() {
        let data = temp_path("dyna-dataset.txt");
        generate(&parse(&[
            "generate", "--episodes", "60", "--out", data.to_str().unwrap(),
        ]))
        .unwrap();
        let out = train(&parse(&[
            "train", "--dataset", data.to_str().unwrap(), "--algorithm", "dyna-q",
        ]))
        .unwrap();
        assert!(out.contains("accuracy 100%"), "{out}");
        let _ = std::fs::remove_file(data);
    }

    #[test]
    fn unknown_inputs_error_helpfully() {
        assert!(resolve_adl("cooking").is_err());
        assert!(resolve_profile("cyborg", "x").is_err());
        assert!(resolve_algorithm("deep-rl", 0).is_err());
        let err = dispatch(&parse(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn help_lists_every_command() {
        let h = help();
        for cmd in [
            "list", "generate", "train", "evaluate", "simulate", "scenario", "fleet", "scale",
            "checkpoint", "resume", "trace", "serve", "loadgen", "fuzz", "replay",
        ] {
            assert!(h.contains(cmd), "help is missing {cmd}");
        }
        assert_eq!(dispatch(&parse(&["help"])).unwrap(), h);
    }

    #[test]
    fn fleet_runs_a_suite_and_jobs_do_not_change_output() {
        let serial = fleet(&parse(&[
            "fleet", "--suite", "contention", "--jobs", "1", "--seed", "7",
        ]))
        .unwrap();
        let parallel = fleet(&parse(&[
            "fleet", "--suite", "contention", "--jobs", "8", "--seed", "7",
        ]))
        .unwrap();
        assert!(serial.contains("Scaling"), "{serial}");
        // The header echoes the worker count; everything below it must
        // be byte-identical.
        let body = |s: &str| s.split_once('\n').unwrap().1.to_owned();
        assert_eq!(body(&serial), body(&parallel));
    }

    #[test]
    fn scale_serves_homes_and_jobs_do_not_change_output() {
        let serial = scale(&parse(&[
            "scale", "--homes", "6", "--hours", "0.2", "--jobs", "1", "--seed", "11",
        ]))
        .unwrap();
        let parallel = scale(&parse(&[
            "scale", "--homes", "6", "--hours", "0.2", "--jobs", "8", "--seed", "11",
        ]))
        .unwrap();
        assert!(serial.contains("6 homes"), "{serial}");
        assert!(serial.contains("episodes:"), "{serial}");
        // The header echoes the worker count; everything below it must
        // be byte-identical.
        let body = |s: &str| s.split_once('\n').unwrap().1.to_owned();
        assert_eq!(body(&serial), body(&parallel));
    }

    #[test]
    fn trace_prints_summary_and_jobs_do_not_change_it() {
        let serial = trace(&parse(&[
            "trace", "--homes", "4", "--seconds", "300", "--jobs", "1", "--seed", "11",
        ]))
        .unwrap();
        let parallel = trace(&parse(&[
            "trace", "--homes", "4", "--seconds", "300", "--jobs", "8", "--seed", "11",
        ]))
        .unwrap();
        assert!(serial.contains("telemetry: 4 home(s)"), "{serial}");
        assert!(serial.contains("p95"), "{serial}");
        // The header echoes jobs and the queue-depth gauge; everything
        // below it must be byte-identical.
        let body = |s: &str| s.split_once('\n').unwrap().1.to_owned();
        assert_eq!(body(&serial), body(&parallel));
    }

    #[test]
    fn trace_writes_jsonl_when_asked() {
        let path = temp_path("trace.jsonl");
        let out = trace(&parse(&[
            "trace", "--homes", "2", "--seconds", "120",
            "--out", path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("telemetry JSONL ->"), "{out}");
        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert!(jsonl.starts_with("{\"kind\":\"summary\""), "{jsonl}");
        assert_eq!(jsonl.lines().count(), 3, "summary + one line per home");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn scale_trace_out_keeps_the_report_and_writes_jsonl() {
        let path = temp_path("scale-trace.jsonl");
        let plain = scale(&parse(&[
            "scale", "--homes", "3", "--hours", "0.1", "--jobs", "1", "--seed", "5",
        ]))
        .unwrap();
        let traced = scale(&parse(&[
            "scale", "--homes", "3", "--hours", "0.1", "--jobs", "1", "--seed", "5",
            "--trace-out", path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(traced.starts_with(&plain), "recording must not change the report");
        assert!(std::fs::read_to_string(&path).unwrap().contains("\"kind\":\"summary\""));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trace_rejects_bad_knobs() {
        let err = trace(&parse(&["trace", "--homes", "0"])).unwrap_err();
        assert!(err.to_string().contains("at least 1"));
        let err = trace(&parse(&["trace", "--seconds", "0"])).unwrap_err();
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn scale_rejects_bad_knobs() {
        let err = scale(&parse(&["scale", "--hours", "-1"])).unwrap_err();
        assert!(err.to_string().contains("positive"));
        let err = scale(&parse(&["scale", "--homes", "0"])).unwrap_err();
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn fleet_rejects_unknown_suite() {
        let err = fleet(&parse(&["fleet", "--suite", "nope"])).unwrap_err();
        assert!(err.to_string().contains("unknown suite"));
    }

    /// The body of a report, skipping the command-specific header line.
    fn body(s: &str) -> &str {
        s.split_once('\n').unwrap().1
    }

    #[test]
    fn checkpoint_then_resume_matches_an_uninterrupted_scale() {
        let snap = temp_path("mid.ckpt");
        let full = scale(&parse(&[
            "scale", "--homes", "3", "--hours", "0.1", "--jobs", "1", "--seed", "5",
        ]))
        .unwrap();
        let out = checkpoint(&parse(&[
            "checkpoint", "--homes", "3", "--hours", "0.05", "--jobs", "1", "--seed", "5",
            "--out", snap.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("snapshot @ 180s ->"), "{out}");
        // Jobs may change freely across the snapshot.
        let resumed = resume(&parse(&[
            "resume", "--from", snap.to_str().unwrap(), "--hours", "0.1", "--jobs", "8",
            "--seed", "5",
        ]))
        .unwrap();
        assert_eq!(
            body(&resumed),
            body(&full),
            "a resumed fleet must be bit-identical to one that never stopped"
        );
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn scale_checkpoint_every_writes_resumable_snapshots() {
        let prefix = temp_path("periodic");
        let out = scale(&parse(&[
            "scale", "--homes", "2", "--hours", "0.05", "--jobs", "1", "--seed", "9",
            "--checkpoint-every", "60", "--checkpoint-out", prefix.to_str().unwrap(),
        ]))
        .unwrap();
        for secs in [60, 120, 180] {
            assert!(out.contains(&format!("snapshot @ {secs}s ->")), "{out}");
        }
        let full = scale(&parse(&[
            "scale", "--homes", "2", "--hours", "0.05", "--jobs", "1", "--seed", "9",
        ]))
        .unwrap();
        let mid = format!("{}-120s.ckpt", prefix.to_str().unwrap());
        let resumed = scale(&parse(&[
            "scale", "--homes", "2", "--hours", "0.05", "--jobs", "1", "--seed", "9",
            "--resume-from", &mid,
        ]))
        .unwrap();
        assert_eq!(body(&resumed), body(&full));
        for secs in [60, 120, 180] {
            let _ = std::fs::remove_file(format!("{}-{secs}s.ckpt", prefix.to_str().unwrap()));
        }
    }

    #[test]
    fn scale_wal_out_writes_an_incremental_chain_that_resumes_bit_identically() {
        let prefix = temp_path("durable");
        let wal_path = temp_path("durable.wal");
        let out = scale(&parse(&[
            "scale", "--homes", "2", "--hours", "0.05", "--jobs", "1", "--seed", "9",
            "--checkpoint-every", "60", "--checkpoint-out", prefix.to_str().unwrap(),
            "--wal-out", wal_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("base snapshot @ 60s ->"), "{out}");
        assert!(out.contains("delta @ 120s ->"), "{out}");
        assert!(out.contains("write-ahead log:"), "{out}");
        let full = scale(&parse(&[
            "scale", "--homes", "2", "--hours", "0.05", "--jobs", "1", "--seed", "9",
        ]))
        .unwrap();
        // Fold base + the 120s delta (the 180s one sits at the horizon),
        // cross-check the stored log tail past 120s against the replay,
        // and land on the uninterrupted result.
        let chain = format!("{p}-60s.ckpt,{p}-120s.delta", p = prefix.to_str().unwrap());
        let resumed = resume(&parse(&[
            "resume", "--from", &chain, "--wal", wal_path.to_str().unwrap(),
            "--hours", "0.05", "--jobs", "8", "--seed", "9",
        ]))
        .unwrap();
        assert!(resumed.contains("wal="), "{resumed}");
        assert_eq!(body(&resumed), body(&full));
        // A delta is a small fraction of the base snapshot: the whole
        // point of incremental durability.
        let base_len = std::fs::metadata(format!("{}-60s.ckpt", prefix.to_str().unwrap()))
            .unwrap()
            .len();
        let delta_len = std::fs::metadata(format!("{}-120s.delta", prefix.to_str().unwrap()))
            .unwrap()
            .len();
        assert!(
            delta_len * 4 < base_len,
            "delta ({delta_len} B) should be well under the base ({base_len} B)"
        );
        for suffix in ["60s.ckpt", "120s.delta", "180s.delta"] {
            let _ = std::fs::remove_file(format!("{}-{suffix}", prefix.to_str().unwrap()));
        }
        let _ = std::fs::remove_file(wal_path);
    }

    #[test]
    fn trace_replay_home_prints_a_timeline() {
        let out = trace(&parse(&[
            "trace", "--homes", "3", "--seconds", "600", "--seed", "11",
            "--replay-home", "1",
        ]))
        .unwrap();
        assert!(out.contains("replay of home 1"), "{out}");
        assert!(out.contains("episode started"), "{out}");
        assert!(out.contains("home 1:"), "{out}");
        let err = trace(&parse(&[
            "trace", "--homes", "3", "--replay-home", "3",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn resume_rejects_a_mismatched_config_and_a_short_horizon() {
        let snap = temp_path("guard.ckpt");
        checkpoint(&parse(&[
            "checkpoint", "--homes", "2", "--hours", "0.05", "--jobs", "1", "--seed", "5",
            "--out", snap.to_str().unwrap(),
        ]))
        .unwrap();
        let err = resume(&parse(&[
            "resume", "--from", snap.to_str().unwrap(), "--hours", "0.1", "--seed", "6",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("different run configuration"), "{err}");
        let err = resume(&parse(&[
            "resume", "--from", snap.to_str().unwrap(), "--hours", "0.05", "--seed", "5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("past the snapshot"), "{err}");
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn checkpoint_rejects_bad_knobs() {
        let err = checkpoint(&parse(&["checkpoint", "--homes", "1"])).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
        let err = checkpoint(&parse(&[
            "checkpoint", "--homes", "1", "--hours", "0.05", "--at", "999", "--out", "x.ckpt",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("(0, horizon]"), "{err}");
        let err = scale(&parse(&[
            "scale", "--homes", "1", "--hours", "0.05", "--checkpoint-every", "60",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--checkpoint-out"), "{err}");
    }

    /// `x 1000` wraps this many seconds to 384 ms.
    const PAST_THE_CLOCK: &str = "18446744073709552";

    fn assert_out_of_range(err: &dyn Error, flag: &str, value: &str) {
        let want = format!("option --{flag} got out-of-range value \"{value}\"");
        assert!(err.to_string().starts_with(&want), "{err}");
    }

    // Time options whose milliseconds overflow u64 are refused by name
    // before anything runs, instead of wrapping to a few hundred ms or
    // saturating into a run that never ends.

    #[test]
    fn trace_rejects_seconds_past_the_clock() {
        let err = trace(&parse(&["trace", "--homes", "1", "--seconds", PAST_THE_CLOCK]));
        assert_out_of_range(&*err.unwrap_err(), "seconds", PAST_THE_CLOCK);
    }

    #[test]
    fn sensor_trace_rejects_seconds_past_the_clock() {
        let max = u64::MAX.to_string(); // + 2 wraps to 1
        let err = sensor_trace(&parse(&["sensor-trace", "--seconds", &max]));
        assert_out_of_range(&*err.unwrap_err(), "seconds", &max);
    }

    #[test]
    fn sensor_trace_is_bounded_at_one_hour_before_allocating() {
        let out = sensor_trace(&parse(&["sensor-trace", "--seconds", "3600"])).unwrap();
        let trace = coreda_sensornet::trace::SignalTrace::from_text(&out).unwrap();
        assert_eq!(trace.readings.len(), 36_020, "an hour plus 2 s of lead in/out at 10 Hz");
        let err = sensor_trace(&parse(&["sensor-trace", "--seconds", "3601"]));
        assert_out_of_range(&*err.unwrap_err(), "seconds", "3601");
    }

    #[test]
    fn checkpoint_rejects_an_instant_past_the_clock() {
        let snap = temp_path("past-the-clock.ckpt");
        let err = checkpoint(&parse(&[
            "checkpoint", "--homes", "1", "--hours", "0.01", "--at", PAST_THE_CLOCK,
            "--out", snap.to_str().unwrap(),
        ]));
        assert_out_of_range(&*err.unwrap_err(), "at", PAST_THE_CLOCK);
        assert!(!snap.exists(), "nothing may be written");
    }

    #[test]
    fn scale_rejects_a_checkpoint_interval_past_the_clock() {
        let prefix = temp_path("past-the-clock");
        let err = scale(&parse(&[
            "scale", "--homes", "1", "--hours", "0.001", "--checkpoint-every", PAST_THE_CLOCK,
            "--checkpoint-out", prefix.to_str().unwrap(),
        ]));
        assert_out_of_range(&*err.unwrap_err(), "checkpoint-every", PAST_THE_CLOCK);
    }

    /// Parsing only: at 1e300 hours a run would never end.
    #[test]
    fn hours_past_the_clock_are_rejected_while_parsing() {
        let err = metro_config(&parse(&["scale", "--hours", "1e300"]), 16, 0.5).unwrap_err();
        assert_eq!(
            err.to_string(),
            "option --hours got out-of-range value \"1e300\" (its milliseconds overflow the \
             simulated clock)"
        );
        let cfg = metro_config(&parse(&["scale", "--hours", "0.5"]), 16, 0.5).unwrap();
        assert_eq!(cfg.horizon.as_millis(), 1_800_000);
    }

    // A flag that would do nothing in its combination is an error, not a
    // silent no-op.

    #[test]
    fn scale_rejects_care_out_without_care() {
        let path = temp_path("inert-care.log");
        let err = scale(&parse(&[
            "scale", "--homes", "1", "--hours", "0.01", "--care-out", path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.to_string(), "--care-out needs --care true");
    }

    #[test]
    fn scale_rejects_checkpoint_out_without_an_interval() {
        let prefix = temp_path("inert-ckpt");
        let err = scale(&parse(&[
            "scale", "--homes", "1", "--hours", "0.01", "--checkpoint-out",
            prefix.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.to_string(), "--checkpoint-out needs --checkpoint-every S");
        let err = scale(&parse(&[
            "scale", "--homes", "1", "--hours", "0.01", "--checkpoint-every", "0",
            "--checkpoint-out", prefix.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.to_string(), "--checkpoint-every must be at least 1");
    }

    #[test]
    fn trace_rejects_out_with_a_replay() {
        let path = temp_path("inert-replay.jsonl");
        let err = trace(&parse(&[
            "trace", "--homes", "1", "--seconds", "10", "--replay-home", "0",
            "--out", path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.to_string(), "--out cannot combine with --replay-home; drop one");
    }

    #[test]
    fn trace_names_the_flag_of_a_bad_replay_home() {
        let err = trace(&parse(&["trace", "--homes", "1", "--replay-home", "x"])).unwrap_err();
        assert_eq!(err.to_string(), "option --replay-home got unparseable value \"x\"");
    }

    #[test]
    fn serve_matches_scale_and_jobs_do_not_change_output() {
        let batch = scale(&parse(&[
            "scale", "--homes", "4", "--hours", "0.1", "--jobs", "1", "--seed", "11",
        ]))
        .unwrap();
        let served = serve(&parse(&[
            "serve", "--homes", "4", "--hours", "0.1", "--jobs", "1", "--seed", "11",
        ]))
        .unwrap();
        let parallel = serve(&parse(&[
            "serve", "--homes", "4", "--hours", "0.1", "--jobs", "8", "--seed", "11",
        ]))
        .unwrap();
        // The served body is the batch report plus one wire line; the
        // header echoes the worker count, nothing else may vary with it.
        let body = |s: &str| s.split_once('\n').unwrap().1.to_owned();
        assert!(body(&served).starts_with(&body(&batch)), "{served}");
        assert!(served.contains("wire:"), "{served}");
        assert_eq!(body(&served), body(&parallel));
    }

    #[test]
    fn serve_trace_out_writes_telemetry_jsonl() {
        let path = temp_path("serve-trace.jsonl");
        let out = serve(&parse(&[
            "serve", "--homes", "2", "--hours", "0.05", "--jobs", "1", "--seed", "3",
            "--trace-out", path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("telemetry JSONL ->"), "{out}");
        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert!(jsonl.starts_with("{\"kind\":\"summary\""), "{jsonl}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn loadgen_is_deterministic_above_the_timing_lines() {
        let run = || {
            loadgen(&parse(&[
                "loadgen", "--homes", "4", "--hours", "0.05", "--jobs", "2", "--seed", "7",
            ]))
            .unwrap()
        };
        let (a, b) = (run(), run());
        // Everything before the wall-clock timing is a pure function of
        // the config; only the `wall:`/latency lines may move.
        let head = |s: &str| {
            s.lines().take_while(|l| !l.trim_start().starts_with("wall:")).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(head(&a), head(&b));
        assert!(a.contains("coreda-serve loadgen: 4 homes"), "{a}");
        assert!(a.contains("handshake:"), "{a}");
        assert!(a.contains("deliveries:"), "{a}");
        assert!(a.contains("wall:"), "{a}");
    }

    #[test]
    fn loadgen_rejects_a_bad_wall_factor() {
        let err = loadgen(&parse(&[
            "loadgen", "--homes", "1", "--hours", "0.05", "--wall", "-2",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
    }

    #[test]
    fn fuzz_served_campaign_passes() {
        let out = fuzz(&parse(&[
            "fuzz", "--plans", "2", "--seconds", "30", "--served", "true",
        ]))
        .unwrap();
        assert!(out.contains("2 plans"), "{out}");
    }

    #[test]
    fn fuzz_campaign_with_kill_resume_passes() {
        let out = fuzz(&parse(&[
            "fuzz", "--plans", "2", "--seconds", "30", "--kill-resume", "true", "--jobs", "2",
        ]))
        .unwrap();
        assert!(out.contains("2 plans"), "{out}");
    }

    #[test]
    fn fuzz_care_campaign_passes() {
        let out = fuzz(&parse(&[
            "fuzz", "--plans", "2", "--seconds", "30", "--care", "true",
        ]))
        .unwrap();
        assert!(out.contains("2 plans"), "{out}");
    }

    #[test]
    fn scale_care_overlay_is_identical_across_jobs() {
        let base = scale(&parse(&[
            "scale", "--homes", "4", "--hours", "0.2", "--jobs", "1", "--seed", "11",
            "--care", "true",
        ]))
        .unwrap();
        let parallel = scale(&parse(&[
            "scale", "--homes", "4", "--hours", "0.2", "--jobs", "8", "--seed", "11",
            "--care", "true",
        ]))
        .unwrap();
        assert!(base.contains("caregiver escalations:"), "{base}");
        assert!(base.contains("fleet analytics:"), "{base}");
        let body = |s: &str| s.split_once('\n').unwrap().1.to_owned();
        assert_eq!(body(&base), body(&parallel));
    }

    /// Asserts that `args` fails in [`dispatch`] with
    /// [`ArgError::UnknownOption`] for `key`.
    fn assert_unknown_option(args: &[&str], key: &str) {
        let err = dispatch(&parse(args)).unwrap_err();
        assert_eq!(
            err.downcast_ref::<crate::args::ArgError>(),
            Some(&crate::args::ArgError::UnknownOption(key.to_owned())),
            "{args:?}: {err}"
        );
    }

    /// The retired queue-engine flag fails before anything runs instead
    /// of quietly serving the default wheel.
    #[test]
    fn scale_rejects_the_retired_engine_flag() {
        assert_unknown_option(&["scale", "--engine", "heap"], "engine");
    }

    /// The retired wake-order flag fails before the snapshot is even
    /// looked for.
    #[test]
    fn resume_rejects_the_retired_sched_flag() {
        assert_unknown_option(&["resume", "--sched", "strict"], "sched");
    }

    /// A misspelt option on a non-metro command fails too.
    #[test]
    fn scenario_rejects_a_misspelt_option() {
        assert_unknown_option(&["scenario", "--sed", "7"], "sed");
    }

    /// `help` documents exactly the options [`dispatch`] accepts: every
    /// option line under a command (`--name ...`, or `--a/--b as for
    /// scale`) names accepted options, and every accepted option has one.
    #[test]
    fn help_documents_exactly_the_accepted_options() {
        let mut documented: Vec<(String, Vec<String>)> = Vec::new();
        for line in help().lines() {
            if line.starts_with("  ") && !line.starts_with("   ") {
                let name = line.split_whitespace().next().unwrap().to_owned();
                documented.push((name, Vec::new()));
            } else if line.starts_with("      --") {
                let flags = line.split_whitespace().next().unwrap();
                let (_, list) = documented.last_mut().expect("options follow a command");
                list.extend(flags.split('/').map(|f| f.trim_start_matches("--").to_owned()));
            }
        }
        let names: Vec<&str> = documented.iter().map(|(n, _)| n.as_str()).collect();
        let commands: Vec<&str> = COMMANDS.iter().map(|&(n, ..)| n).collect();
        assert_eq!(names, commands, "help lists the commands in dispatch order");
        for ((name, mut listed), &(_, accepted, _)) in documented.into_iter().zip(COMMANDS) {
            let mut accepted: Vec<String> = accepted.iter().map(|&a| a.to_owned()).collect();
            listed.sort();
            accepted.sort();
            assert_eq!(listed, accepted, "{name}: help and the accepted options disagree");
        }
    }

    #[test]
    fn scale_care_rejects_durability_combinations() {
        let err = scale(&parse(&[
            "scale", "--homes", "2", "--hours", "0.1", "--care", "true",
            "--wal-out", "/tmp/never-written.wal",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--care cannot combine"), "{err}");
    }

    #[test]
    fn scale_care_out_writes_the_escalation_log() {
        let log = temp_path("care.log");
        let out = scale(&parse(&[
            "scale", "--homes", "4", "--hours", "0.2", "--jobs", "2", "--seed", "11",
            "--care", "true", "--care-out", log.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("escalation log ->"), "{out}");
        let text = std::fs::read_to_string(&log).unwrap();
        let _ = std::fs::remove_file(&log);
        // Every rendered line names a lifecycle stage.
        assert!(text
            .lines()
            .all(|l| l.contains("raised") || l.contains("acked") || l.contains("resolved")));
    }

    #[test]
    fn serve_care_summary_matches_the_batch_overlay() {
        let batch = scale(&parse(&[
            "scale", "--homes", "4", "--hours", "0.2", "--jobs", "1", "--seed", "11",
            "--care", "true",
        ]))
        .unwrap();
        let served = serve(&parse(&[
            "serve", "--homes", "4", "--hours", "0.2", "--jobs", "8", "--seed", "11",
            "--care", "true",
        ]))
        .unwrap();
        assert!(served.contains("wire escalations:"), "{served}");
        // Served and batch agree on the care summary: same escalations,
        // same fleet analytics, any worker count.
        let care_part = |s: &str| s[s.find("caregiver escalations:").unwrap()..].to_owned();
        assert_eq!(care_part(&batch), care_part(&served));
    }
}
