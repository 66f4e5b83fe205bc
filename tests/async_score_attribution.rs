//! Phase attribution under the Async engine: every scoring duty runs
//! peer-model inference, so an Async run must attribute wall time to
//! `Phase::Score`. This is its own test binary because the profile
//! counters are process-global: no other test in it runs concurrently and
//! adds to them.

use unifyfl::core::experiment::{ExperimentBuilder, Mode};
use unifyfl::core::profile;

#[test]
fn async_quickstart_attributes_scoring_time() {
    let before = profile::snapshot();
    let report = ExperimentBuilder::quickstart()
        .seed(42)
        .rounds(5)
        .mode(Mode::Async)
        .run()
        .expect("quickstart experiment runs");
    let phases = profile::snapshot().since(&before);
    assert!(report.chain.txs > 0, "scores were submitted");
    assert!(
        phases.score_secs > 0.0,
        "Async scoring duties must be attributed to the score phase: {phases:?}"
    );
}
