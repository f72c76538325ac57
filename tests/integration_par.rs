//! Parallel-runtime determinism: the worker-thread count is a pure
//! performance knob. The full lifetime pipeline must produce
//! **bit-identical** results at 1, 2 and 8 threads — every parallel region
//! in the workspace preserves the serial reduction order, so this is an
//! exact equality check, not a tolerance check.

use memaging::lifetime::{LifetimeResult, Strategy};
use memaging::{par, Scenario};

/// A trimmed quick scenario so the pipeline runs three times in test time.
fn small_scenario() -> Scenario {
    let mut s = Scenario::quick();
    s.framework.lifetime.max_sessions = 3;
    s.framework.plan.pre_epochs = 4;
    s.framework.plan.skew_epochs = 3;
    s
}

fn run_pipeline() -> (LifetimeResult, u64) {
    let outcome = small_scenario().run_strategy(Strategy::StAt).unwrap();
    (outcome.lifetime, outcome.software_accuracy.to_bits())
}

#[test]
fn lifetime_pipeline_is_bit_identical_across_thread_counts() {
    par::set_threads(1);
    let reference = run_pipeline();
    for threads in [2, 8] {
        par::set_threads(threads);
        let run = run_pipeline();
        assert_eq!(run.0, reference.0, "lifetime result diverged between 1 and {threads} threads");
        assert_eq!(
            run.1, reference.1,
            "software accuracy diverged between 1 and {threads} threads"
        );
    }
    par::set_threads(0);
}
