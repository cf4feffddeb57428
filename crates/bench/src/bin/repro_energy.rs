//! Deployment study: per-tool energy consumption and battery-life
//! extrapolation for the PAVENET nodes.
//! Usage: `cargo run -p coreda-bench --bin repro_energy [episodes] [per_day] [seed]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::energy);
}
