//! Fleet-engine regression test: every sweep ported onto the parallel
//! engine must return byte-identical results at any worker count. The
//! single-worker engine is a plain serial `map` (no threads spawned), so
//! jobs=1 is the reference the parallel runs are held to.

use coreda_bench::{ablation, baseline_cmp, contention, fig4, radio_loss, table3, table4};
use coreda_core::fleet::FleetEngine;

const JOBS: usize = 8;

fn engines() -> (FleetEngine, FleetEngine) {
    (FleetEngine::new(1), FleetEngine::new(JOBS))
}

#[test]
fn ablation_sweeps_are_worker_count_invariant() {
    let (serial, parallel) = engines();
    let lambdas = [0.0, 0.6];

    let a = ablation::lambda_sweep(serial, &lambdas, 40, 3, 2007);
    let b = ablation::lambda_sweep(parallel, &lambdas, 40, 3, 2007);
    assert_eq!(a, b, "lambda sweep must not depend on worker count");
    // The rendered report is byte-identical too — the strongest form of
    // "same results" a caller can observe.
    assert_eq!(ablation::render("t", &a), ablation::render("t", &b));

    // The algorithm-family points carry a NaN field (minimal_fraction is
    // not applicable there), and NaN != NaN under PartialEq; the debug
    // string is still a bit-exact float comparison.
    let a = ablation::algorithm_family(serial, 40, 2, 2007);
    let b = ablation::algorithm_family(parallel, 40, 2, 2007);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "algorithm family must not depend on worker count"
    );

    let a = ablation::reward_shapes(serial, 40, 2, 2007);
    let b = ablation::reward_shapes(parallel, 40, 2, 2007);
    assert_eq!(a, b, "reward shapes must not depend on worker count");

    let a = ablation::fast_learning(serial, 30, 2, 2007);
    let b = ablation::fast_learning(parallel, 30, 2, 2007);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "fast learning must not depend on worker count"
    );
}

#[test]
fn figure4_curves_are_worker_count_invariant() {
    let (serial, parallel) = engines();
    let a = fig4::run(serial, 40, 4, 2007);
    let b = fig4::run(parallel, 40, 4, 2007);
    assert_eq!(a, b);
    assert_eq!(fig4::render(&a), fig4::render(&b));
}

#[test]
fn extraction_tables_are_worker_count_invariant() {
    let (serial, parallel) = engines();
    let a = table3::run(serial, 30, 2007);
    let b = table3::run(parallel, 30, 2007);
    assert_eq!(a, b);
    assert_eq!(table3::render(&a), table3::render(&b));

    let a = table4::run(serial, 40, 2007);
    let b = table4::run(parallel, 40, 2007);
    assert_eq!(a, b);
}

#[test]
fn failure_and_scaling_sweeps_are_worker_count_invariant() {
    let (serial, parallel) = engines();
    let a = radio_loss::run(serial, 20, 20, 2, 2007);
    let b = radio_loss::run(parallel, 20, 20, 2, 2007);
    assert_eq!(a, b);

    let a = contention::run(serial, 10, 2007);
    let b = contention::run(parallel, 10, 2007);
    assert_eq!(a, b);
}

#[test]
fn baseline_studies_are_worker_count_invariant() {
    let (serial, parallel) = engines();
    let tea = coreda::prelude::catalog::tea_making();
    let a = baseline_cmp::accuracy_study(serial, &tea, 3, 2007);
    let b = baseline_cmp::accuracy_study(parallel, &tea, 3, 2007);
    assert_eq!(a, b);

    let a = baseline_cmp::live_study(serial, 4, 2007);
    let b = baseline_cmp::live_study(parallel, 4, 2007);
    assert_eq!(a, b);
}
