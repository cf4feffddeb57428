//! Compares CoReDA against the pre-planned baseline and the oracle MDP
//! planner: prediction accuracy on personalised routines, plus live
//! completion-time outcomes.
//! Usage: `cargo run -p coreda-bench --bin repro_baselines [users] [episodes] [seed] [--jobs N]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::baselines);
}
