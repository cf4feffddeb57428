//! Reproduces Figure 4: the TD(λ) Q-learning learning curves for both
//! ADLs, with convergence read-outs at the 95 % and 98 % conditions.
//! Usage: `cargo run -p coreda-bench --bin repro_fig4 [episodes] [seeds] [seed] [--jobs N]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::fig4);
}
