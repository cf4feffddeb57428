//! Failure-injection sweep: extraction precision and learning convergence
//! under increasingly lossy radio links.
//! Usage: `cargo run -p coreda-bench --bin repro_radio_loss [trials] [seed] [--jobs N]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::radio_loss);
}
