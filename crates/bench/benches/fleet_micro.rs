//! Fleet-engine throughput: full training sweeps at 1, 2, 4 and 8 workers.
//!
//! Besides the criterion groups printed to stdout, this bench writes
//! `BENCH_fleet.json` at the repository root with episodes/second and the
//! speedup over the single-worker engine at each worker count, plus the
//! host's core count — the speedup a given machine can show is bounded by
//! its cores, so the raw context ships with the numbers.

use std::time::Instant;

use coreda_bench::ablation;
use coreda_core::fleet::{default_jobs, FleetEngine};
use criterion::{criterion_group, criterion_main, Criterion};

const LAMBDAS: [f64; 4] = [0.0, 0.3, 0.6, 0.9];
const EPISODES: usize = 120;
const SEEDS: usize = 8;
const SEED: u64 = 2007;
const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn lambda_sweep(jobs: usize) {
    let _ = ablation::lambda_sweep(FleetEngine::new(jobs), &LAMBDAS, EPISODES, SEEDS, SEED);
}

fn algorithm_family(jobs: usize) {
    let _ = ablation::algorithm_family(FleetEngine::new(jobs), EPISODES, SEEDS, SEED);
}

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_sweep");
    group.sample_size(2);
    for jobs in JOB_COUNTS {
        group.bench_function(&format!("lambda_sweep/jobs={jobs}"), |b| {
            b.iter(|| lambda_sweep(jobs));
        });
        group.bench_function(&format!("algorithm_family/jobs={jobs}"), |b| {
            b.iter(|| algorithm_family(jobs));
        });
    }
    group.finish();
}

/// Best-of-3 wall clock after one warm-up run.
fn measure(f: impl Fn()) -> f64 {
    f();
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn sweep_json(name: &str, episodes: usize, run: impl Fn(usize)) -> String {
    let timings: Vec<(usize, f64)> =
        JOB_COUNTS.iter().map(|&j| (j, measure(|| run(j)))).collect();
    let serial = timings[0].1;
    let rows: Vec<String> = timings
        .iter()
        .map(|&(jobs, secs)| {
            format!(
                "    {{\"jobs\": {jobs}, \"secs\": {secs:.4}, \
                 \"episodes_per_sec\": {:.1}, \"speedup_vs_jobs1\": {:.2}}}",
                episodes as f64 / secs,
                serial / secs
            )
        })
        .collect();
    format!(
        "  {{\"sweep\": \"{name}\", \"episodes\": {episodes}, \"runs\": [\n{}\n  ]}}",
        rows.join(",\n")
    )
}

fn emit_report(_c: &mut Criterion) {
    let sweeps = [
        sweep_json("lambda_sweep", LAMBDAS.len() * SEEDS * EPISODES, lambda_sweep),
        // 5 learners in the family comparison.
        sweep_json("algorithm_family", 5 * SEEDS * EPISODES, algorithm_family),
    ];
    let json = format!(
        "{{\n\"bench\": \"fleet_micro\",\n\"host_cores\": {},\n\"sweeps\": [\n{}\n]\n}}\n",
        default_jobs(),
        sweeps.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_fleet, emit_report);
criterion_main!(benches);
