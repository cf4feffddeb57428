//! Adaptation study: what happens when the user's routine changes —
//! floored vs fully decayed learning schedules (paper §3.2 discussion).
//! Usage: `cargo run -p coreda-bench --bin repro_adaptation [phase] [seeds] [seed]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::adaptation);
}
