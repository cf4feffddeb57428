//! Reproducibility: every layer of the stack is a pure function of its
//! seed, and the facade exposes everything the examples need.

use coreda::prelude::*;

#[test]
fn whole_system_run_is_reproducible() {
    let run = || {
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let mut system = Coreda::new(tea, "x", CoredaConfig::default(), 42);
        let mut rng = SimRng::seed_from(43);
        for _ in 0..150 {
            system.planner_mut().train_episode(routine.steps(), &mut rng);
        }
        let mut behavior = StochasticBehavior::new(PatientProfile::moderate("x"));
        system.run_live(&routine, &mut behavior, &mut rng)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seeds must give identical timelines");
}

#[test]
fn different_seeds_give_different_stochastic_runs() {
    let run = |seed: u64| {
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let mut system = Coreda::new(tea, "x", CoredaConfig::default(), seed);
        let mut rng = SimRng::seed_from(seed ^ 1);
        for _ in 0..50 {
            system.planner_mut().train_episode(routine.steps(), &mut rng);
        }
        let mut behavior = StochasticBehavior::new(PatientProfile::severe("x"));
        system.run_live(&routine, &mut behavior, &mut rng)
    };
    // Severe patients err randomly; two seeds almost surely differ.
    assert_ne!(run(1), run(2));
}

#[test]
fn episode_generation_is_seed_deterministic() {
    let generate = || {
        let tea = catalog::tea_making();
        let generator = EpisodeGenerator::new(
            tea.clone(),
            RoutineSet::single(Routine::canonical(&tea)),
            PatientProfile::moderate("x"),
        );
        let mut rng = SimRng::seed_from(99);
        generator.generate_batch(50, &mut rng)
    };
    assert_eq!(generate(), generate());
}

#[test]
fn facade_reexports_cover_the_stack() {
    // Compile-time check that the prelude names resolve and basic
    // cross-crate plumbing works through the facade alone.
    let node = PavenetNode::new(
        NodeId::new(1),
        SignalModel::accelerometer(0.03, 0.45, 0.5),
        Thresholds::default(),
    );
    assert_eq!(node.uid(), NodeId::new(1));

    let mut net = StarNetwork::new(LinkConfig::default());
    net.register(node.uid());
    assert_eq!(net.node_count(), 1);

    let det = Detector::new(Thresholds::default().accel);
    assert!(det.threshold() > 0.0);

    let t = SimTime::from_secs(13) + SimDuration::from_secs(10);
    assert_eq!(t, SimTime::from_secs(23));

    // RL toolbox through the non-prelude path.
    use coreda::rl::{ProblemShape, QTable};
    let q = QTable::new(ProblemShape::new(2, 2));
    assert_eq!(q.max_abs_value(), 0.0);
}

#[test]
fn figure1_scenario_is_stable_across_calls() {
    assert_eq!(scenario::figure1(2007), scenario::figure1(2007));
}
