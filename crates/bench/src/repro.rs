//! The `repro_*` binaries' bodies: each reads its argument list (see
//! [`Args`]) and returns exactly what its binary prints, or the first
//! argument it cannot read. `tests/paper_goldens.rs` pins the binaries'
//! own output through these.

use coreda_adl::activity::catalog;
use coreda_core::scenario;

use crate::common::Args;
use crate::{
    ablation, adaptation, baseline_cmp, burden, contention, energy_study, fig4, radio_loss,
    table3, table4,
};

/// `repro_table3 [trials] [seed] [--jobs N]`.
pub fn table3(mut args: Args) -> Result<String, String> {
    let trials = args.next("trials", 40)?;
    let seed = args.next("seed", 2007)?;
    let rows = table3::run(args.engine()?, trials, seed);
    Ok(format!("{}\n({trials} trials per step, seed {seed})\n", table3::render(&rows)))
}

/// `repro_fig4 [episodes] [seeds] [seed] [--jobs N]`.
pub fn fig4(mut args: Args) -> Result<String, String> {
    let episodes = args.next("episodes", 120)?;
    let seeds = args.next("seeds", 30)?;
    let seed = args.next("seed", 2007)?;
    let curves = fig4::run(args.engine()?, episodes, seeds, seed);
    Ok(format!(
        "{}\n({episodes} episodes, {seeds} independent runs, base seed {seed})\n",
        fig4::render(&curves)
    ))
}

/// `repro_table4 [samples] [seed] [--jobs N]`.
pub fn table4(mut args: Args) -> Result<String, String> {
    let samples = args.next("samples", 30)?;
    let seed = args.next("seed", 2007)?;
    let rows = table4::run(args.engine()?, samples, seed);
    Ok(format!("{}\n({samples} test samples per ADL, seed {seed})\n", table4::render(&rows)))
}

/// `repro_fig1 [seed]`.
pub fn fig1(mut args: Args) -> Result<String, String> {
    let seed: u64 = args.next("seed", 2007)?;
    args.finish()?;
    let log = scenario::figure1(seed);
    Ok(format!(
        "\n== Figure 1: a typical scenario of CoReDA (seed {seed}) ==\n\n{}\n\
         summary: {} reminders, {} praises, completed: {}\n",
        log.render(),
        log.reminders().len(),
        log.praise_count(),
        log.completed_at().map_or("no".to_owned(), |t| format!("yes at {t}")),
    ))
}

/// `repro_ablation [seeds] [seed] [--jobs N]`.
pub fn ablation(mut args: Args) -> Result<String, String> {
    let seeds = args.next("seeds", 10)?;
    let seed = args.next("seed", 2007)?;
    let engine = args.engine()?;
    let lam = ablation::lambda_sweep(engine, &[0.0, 0.3, 0.6, 0.9], 120, seeds, seed);
    let rew = ablation::reward_shapes(engine, 250, seeds, seed);
    let fast = ablation::fast_learning(engine, 60, seeds, seed);
    let fam = ablation::algorithm_family(engine, 120, seeds, seed);
    Ok(ablation::render("eligibility-trace lambda (Tea-making)", &lam)
        + &ablation::render("reward shape (Tea-making)", &rew)
        + &ablation::render("fast learning / Dyna-Q (future work 4.2)", &fast)
        + &ablation::render("TD-control algorithm family", &fam))
}

/// `repro_baselines [users] [episodes] [seed] [--jobs N]`.
pub fn baselines(mut args: Args) -> Result<String, String> {
    let users = args.next("users", 5)?;
    let episodes = args.next("episodes", 20)?;
    let seed = args.next("seed", 2007)?;
    let engine = args.engine()?;
    let acc = baseline_cmp::accuracy_study(engine, &catalog::tea_making(), users, seed);
    let live = baseline_cmp::live_study(engine, episodes, seed);
    Ok(baseline_cmp::render_accuracy(&acc) + &baseline_cmp::render_live(&live))
}

/// `repro_radio_loss [trials] [seed] [--jobs N]`.
pub fn radio_loss(mut args: Args) -> Result<String, String> {
    let trials = args.next("trials", 120)?;
    let seed = args.next("seed", 2007)?;
    let points = radio_loss::run(args.engine()?, trials, 120, 10, seed);
    Ok(radio_loss::render(&points))
}

/// `repro_adaptation [phase] [seeds] [seed]`.
pub fn adaptation(mut args: Args) -> Result<String, String> {
    let phase = args.next("phase", 150)?;
    let seeds = args.next("seeds", 10)?;
    let seed = args.next("seed", 2007)?;
    args.finish()?;
    let points = adaptation::run(phase, seeds, seed);
    Ok(format!(
        "{}\n({phase} episodes per phase, {seeds} runs, seed {seed})\n",
        adaptation::render(&points)
    ))
}

/// `repro_energy [episodes] [per_day] [seed]`.
pub fn energy(mut args: Args) -> Result<String, String> {
    let episodes = args.next("episodes", 10)?;
    let per_day = args.next("per_day", 3.0)?;
    let seed = args.next("seed", 2007)?;
    args.finish()?;
    let rows = energy_study::run(episodes, per_day, seed);
    Ok(format!(
        "{}\n({episodes} simulated episodes, {per_day} episodes/day assumed, seed {seed})\n",
        energy_study::render(&rows)
    ))
}

/// `repro_contention [trials] [seed] [--jobs N]`.
pub fn contention(mut args: Args) -> Result<String, String> {
    let trials = args.next("trials", 80)?;
    let seed = args.next("seed", 2007)?;
    let points = contention::run(args.engine()?, trials, seed);
    Ok(contention::render(&points))
}

/// `repro_burden [days] [stride] [episodes] [seed]`.
pub fn burden(mut args: Args) -> Result<String, String> {
    let days = args.next("days", 360)?;
    let stride = args.next("stride", 60)?;
    let episodes = args.next("episodes", 20)?;
    let seed = args.next("seed", 2007)?;
    args.finish()?;
    if stride == 0 {
        return Err("stride got 0: the sampled days need a stride of at least 1".to_owned());
    }
    let points = burden::run(days, stride, episodes, seed);
    Ok(format!(
        "{}\n({episodes} episodes per sampled day, seed {seed})\n",
        burden::render(&points)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burden_rejects_a_zero_stride() {
        // A zero stride would sample day 0 forever.
        let err = burden(Args::new(["360", "0"]).unwrap()).unwrap_err();
        assert!(err.starts_with("stride got 0"), "{err}");
    }
}
