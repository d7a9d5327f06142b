//! The simulation on real OS threads.
//!
//! A simulator reaches shared memory only through its
//! [`mpcn_runtime::world::Env`], so the code that runs gated runs here
//! too, each simulator on its own OS thread over one free-mode
//! [`mpcn_runtime::model_world::ModelWorld`]: a full-speed, genuinely
//! concurrent execution (no deterministic scheduler, no crash injection).
//! Used by benches and as evidence that the simulation's correctness does
//! not lean on the model world's step gating — safety holds under real
//! interleavings too.

use mpcn_runtime::model_world::ModelWorld;
use mpcn_runtime::world::Env;

use crate::simulator::{SimulationSpec, Simulator};

/// Runs the colorless simulation on real threads: one OS thread per
/// simulator over one shared free-mode [`ModelWorld`]. Returns the
/// simulators' decisions (every simulator decides — there are no crashes
/// here).
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the target's `n'`, or if a
/// simulator thread panics (a bug in the algorithm under simulation).
pub fn run_colorless_threaded(spec: &SimulationSpec, inputs: &[u64]) -> Vec<u64> {
    let n_targets = spec.target().n() as usize;
    assert_eq!(inputs.len(), n_targets, "one input per simulator required");
    let world = ModelWorld::new_free(n_targets);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_targets)
            .map(|qi| {
                let world = world.clone();
                let algorithm = spec.algorithm().clone();
                let ag_kind = spec.agreement_kind();
                let own_input = inputs[qi];
                s.spawn(move || {
                    Simulator::new(
                        Env::new(world, qi),
                        n_targets,
                        algorithm,
                        own_input,
                        ag_kind,
                        false,
                    )
                    .run()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("simulator thread must not panic")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcn_model::ModelParams;
    use mpcn_runtime::model_world::Outcome;
    use mpcn_tasks::{algorithms, TaskKind};

    #[test]
    fn threaded_bg_simulation_is_safe() {
        // Real threads, repeated: agreement and validity must hold on
        // every concurrent interleaving the OS produces.
        let alg = algorithms::kset_read_write(5, 2).unwrap();
        let target = ModelParams::new(4, 2, 2).unwrap();
        let spec = SimulationSpec::new(alg, target).unwrap();
        let inputs = [10, 20, 30, 40];
        for round in 0..25 {
            let decisions = run_colorless_threaded(&spec, &inputs);
            assert_eq!(decisions.len(), 4);
            let outcomes: Vec<Outcome> = decisions.iter().map(|&v| Outcome::Decided(v)).collect();
            TaskKind::KSet(3)
                .validate(&inputs, &outcomes)
                .unwrap_or_else(|v| panic!("round {round}: {v}"));
        }
    }

    #[test]
    fn threaded_xcons_simulation_is_safe() {
        let alg = algorithms::group_xcons_then_min(6, 4, 2).unwrap();
        let target = ModelParams::new(5, 2, 1).unwrap();
        let spec = SimulationSpec::new(alg, target).unwrap();
        let inputs = [1, 2, 3, 4, 5];
        for round in 0..25 {
            let decisions = run_colorless_threaded(&spec, &inputs);
            let outcomes: Vec<Outcome> = decisions.iter().map(|&v| Outcome::Decided(v)).collect();
            TaskKind::KSet(3)
                .validate(&inputs, &outcomes)
                .unwrap_or_else(|v| panic!("round {round}: {v}"));
        }
    }
}
