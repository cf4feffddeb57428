//! Reproduces Table 4: predict precision per ADL step after training,
//! with the two reminder-trigger situations examined equally.
//! Usage: `cargo run -p coreda-bench --bin repro_table4 [samples] [seed] [--jobs N]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::table4);
}
