//! Reproduces Table 3: extract precision of each ADL step over 40 trials
//! per tool (320 samples total, like the paper). Usage:
//! `cargo run -p coreda-bench --bin repro_table3 [trials] [seed] [--jobs N]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::table3);
}
