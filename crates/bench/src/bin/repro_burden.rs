//! Longitudinal caregiver-burden study over a year of dementia
//! progression: lapses per episode, how many the system resolves, and
//! completion times with vs without assistance.
//! Usage: `cargo run -p coreda-bench --bin repro_burden [days] [stride] [episodes] [seed]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::burden);
}
