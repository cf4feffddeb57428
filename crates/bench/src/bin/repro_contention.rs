//! Scaling study: report delivery and step extraction as more tools key
//! up concurrently on the shared CC1000 channel.
//! Usage: `cargo run -p coreda-bench --bin repro_contention [trials] [seed] [--jobs N]`

fn main() {
    coreda_bench::common::main(coreda_bench::repro::contention);
}
