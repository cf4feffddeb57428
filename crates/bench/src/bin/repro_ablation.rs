//! Runs the ablation suite: lambda sweep, reward shapes, fast-learning
//! (Dyna-Q), and the TD-algorithm family comparison.
//! Usage: `cargo run -p coreda-bench --bin repro_ablation [seeds] [seed] [--jobs N]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::ablation);
}
