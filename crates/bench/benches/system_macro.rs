//! Macro benchmarks: whole-experiment costs — training episodes, live
//! episodes, table/figure regeneration units. These bound how long the
//! `repro_*` harnesses take and how the system would scale to more tools
//! and longer routines.

use coreda_adl::activity::catalog;
use coreda_adl::patient::PatientProfile;
use coreda_adl::routine::Routine;
use coreda_bench::common::extract_trial;
use coreda_core::baseline::MdpPlanner;
use coreda_core::live::StochasticBehavior;
use coreda_core::planning::{PlanningConfig, PlanningSubsystem, RewardConfig};
use coreda_core::system::{Coreda, CoredaConfig};
use coreda_des::rng::SimRng;
use coreda_sensornet::network::{LinkConfig, StarNetwork};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("training");
    let tea = catalog::tea_making();
    let routine = Routine::canonical(&tea);

    group.bench_function("train_one_episode", |b| {
        let mut planner = PlanningSubsystem::new(&tea, PlanningConfig::default());
        let mut rng = SimRng::seed_from(1);
        b.iter(|| planner.train_episode(black_box(routine.steps()), &mut rng));
    });

    group.bench_function("train_120_episodes_fresh", |b| {
        let mut rng = SimRng::seed_from(2);
        b.iter(|| {
            let mut planner = PlanningSubsystem::new(&tea, PlanningConfig::default());
            for _ in 0..120 {
                planner.train_episode(routine.steps(), &mut rng);
            }
            planner.accuracy_vs_routine(&routine)
        });
    });

    group.bench_function("value_iteration_oracle", |b| {
        b.iter(|| MdpPlanner::solve(&tea, &routine, RewardConfig::default(), 0.05, 20));
    });
    group.finish();
}

fn bench_live(c: &mut Criterion) {
    let mut group = c.benchmark_group("live");
    group.sample_size(20);
    let tea = catalog::tea_making();
    let routine = Routine::canonical(&tea);

    group.bench_function("live_episode_clean_patient", |b| {
        let mut system = Coreda::new(tea.clone(), "x", CoredaConfig::default(), 1);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..150 {
            system.planner_mut().train_episode(routine.steps(), &mut rng);
        }
        b.iter(|| {
            let mut behavior = StochasticBehavior::new(PatientProfile::unimpaired("x"));
            system.run_live(black_box(&routine), &mut behavior, &mut rng)
        });
    });

    group.bench_function("live_episode_severe_patient", |b| {
        let mut system = Coreda::new(tea.clone(), "x", CoredaConfig::default(), 3);
        let mut rng = SimRng::seed_from(4);
        for _ in 0..150 {
            system.planner_mut().train_episode(routine.steps(), &mut rng);
        }
        b.iter(|| {
            let mut behavior = StochasticBehavior::new(PatientProfile::severe("x"));
            system.run_live(black_box(&routine), &mut behavior, &mut rng)
        });
    });
    group.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");
    let tea = catalog::tea_making();
    let routine = Routine::canonical(&tea);

    group.bench_function("persistence_save", |b| {
        let mut planner = PlanningSubsystem::new(&tea, PlanningConfig::default());
        let mut rng = SimRng::seed_from(6);
        for _ in 0..150 {
            planner.train_episode(routine.steps(), &mut rng);
        }
        b.iter(|| coreda_core::persistence::save_policy(black_box(&planner)));
    });

    group.bench_function("persistence_restore", |b| {
        let mut planner = PlanningSubsystem::new(&tea, PlanningConfig::default());
        let mut rng = SimRng::seed_from(7);
        for _ in 0..150 {
            planner.train_episode(routine.steps(), &mut rng);
        }
        let blob = coreda_core::persistence::save_policy(&planner);
        let mut fresh = PlanningSubsystem::new(&tea, PlanningConfig::default());
        b.iter(|| coreda_core::persistence::restore_policy(&mut fresh, black_box(&blob)).unwrap());
    });

    group.bench_function("certainty_equivalence_observe_and_solve", |b| {
        use coreda_core::baseline::CertaintyEquivalence;
        use coreda_core::planning::RewardConfig;
        let mut ce = CertaintyEquivalence::new(&tea, RewardConfig::default(), 0.05);
        b.iter(|| ce.observe_episode(black_box(routine.steps())));
    });

    group.bench_function("session_tracker_report", |b| {
        use coreda_core::sessions::SessionTracker;
        use coreda_des::time::{SimDuration, SimTime};
        use coreda_sensornet::node::NodeId;
        let mut tracker = SessionTracker::new(
            &[catalog::tea_making(), catalog::tooth_brushing()],
            SimDuration::from_secs(120),
        );
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            tracker.on_report(
                black_box(NodeId::new(5 + (t % 4) as u16)),
                SimTime::from_millis(t * 100),
            )
        });
    });
    group.finish();
}

fn bench_experiment_units(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiment_units");
    let tea = catalog::tea_making();

    group.bench_function("table3_one_extract_trial", |b| {
        let mut rng = SimRng::seed_from(5);
        let mut net = StarNetwork::new(LinkConfig::default());
        b.iter(|| extract_trial(black_box(&tea), 1, &mut net, &mut rng));
    });

    group.bench_function("figure1_scenario", |b| {
        group_scenario(b);
    });
    group.finish();
}

fn group_scenario(b: &mut criterion::Bencher) {
    let mut seed = 0u64;
    b.iter(|| {
        seed += 1;
        coreda_core::scenario::figure1(black_box(seed))
    });
}

criterion_group!(benches, bench_training, bench_live, bench_components, bench_experiment_units);
criterion_main!(benches);
