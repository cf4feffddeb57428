//! Replays the paper's Figure 1 scenario — Mr. Tanaka making tea with two
//! lapses — over the full sensing/planning/reminding pipeline and prints
//! the resulting timeline.
//! Usage: `cargo run -p coreda-bench --bin repro_fig1 [seed]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::fig1);
}
