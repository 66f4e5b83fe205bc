//! The parallel two-phase engine's correctness contract: at the same seed
//! it must produce an [`ExperimentReport`] **byte-identical** (full Debug
//! serialization, chaos and transfer sections included) to the sequential
//! reference engine — for sync and async orchestration, on the happy path
//! and under chaos, through the straggler carryover path and under
//! MultiKRUM scoring.
//!
//! Also home to the `matmul_tn_into`/`matmul_nt_into` bit-exactness
//! proptests: the fused kernels the per-cluster threads run in dense-layer
//! backward must match the transpose-then-multiply formulation bit for
//! bit, or released weight CIDs would drift between engine-equal runs.

use proptest::prelude::*;
use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::experiment::{
    run_experiment, Engine, ExperimentBuilder, ExperimentConfig, ExperimentReport, Mode,
};
use unifyfl::core::scoring::ScorerKind;
use unifyfl::core::{ChaosConfig, FaultEvent, FaultKind};
use unifyfl::sim::SimDuration;
use unifyfl::tensor::Tensor;

/// Runs `config` under both engines and returns the two reports.
fn both_engines(mut config: ExperimentConfig) -> (ExperimentReport, ExperimentReport) {
    config.engine = Engine::Sequential;
    let sequential = run_experiment(&config).expect("sequential run");
    config.engine = Engine::Parallel;
    let parallel = run_experiment(&config).expect("parallel run");
    (sequential, parallel)
}

/// Asserts full-report equality via the Debug serialization (every field,
/// every counter — the same check `quickstart_smoke` uses for seed
/// determinism).
fn assert_identical(label: &str, sequential: &ExperimentReport, parallel: &ExperimentReport) {
    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "{label}: parallel engine diverged from the sequential reference"
    );
}

#[test]
fn sync_reports_are_byte_identical() {
    let config = ExperimentBuilder::quickstart()
        .seed(41)
        .rounds(3)
        .mode(Mode::Sync)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("sync happy path", &s, &p);
    // Sanity: the run actually did federated work.
    assert!(s.aggregators.iter().all(|a| a.rounds == 3));
    assert!(s.chain.txs > 0);
}

#[test]
fn async_reports_are_byte_identical() {
    let config = ExperimentBuilder::quickstart()
        .seed(43)
        .rounds(3)
        .mode(Mode::Async)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("async happy path", &s, &p);
    assert!(s.aggregators.iter().all(|a| a.rounds == 3));
}

#[test]
fn sync_chaos_reports_are_byte_identical() {
    // Every fault family at once: a crash, a latency spike, clock skew,
    // plus probabilistic storage (fetch/chunk loss) and chain (missed
    // seals, dropped txs) injection. This stresses exactly the orderings
    // the two-phase split must preserve: fault-roll consumption during
    // phase-A fetches, fault-log sequencing during phase-B commits, and
    // retransmission timing across phase boundaries.
    let chaos = ChaosConfig {
        fetch_failure_prob: 0.25,
        chunk_loss_prob: 0.15,
        chunk_retries: 2,
        missed_seal_prob: 0.15,
        dropped_tx_prob: 0.2,
        ..ChaosConfig::scripted(vec![
            FaultEvent {
                cluster: 0,
                round: 2,
                kind: FaultKind::Crash { down_rounds: 1 },
            },
            FaultEvent {
                cluster: 1,
                round: 2,
                kind: FaultKind::LatencySpike { factor: 3.0 },
            },
            FaultEvent {
                cluster: 2,
                round: 1,
                kind: FaultKind::ClockSkew {
                    skew: SimDuration::from_secs(30),
                },
            },
        ])
    };
    let config = ExperimentBuilder::quickstart()
        .seed(47)
        .rounds(4)
        .mode(Mode::Sync)
        .chaos(chaos)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("sync chaos", &s, &p);
    // The faults really fired (otherwise this test proves nothing).
    assert!(s.chaos.enabled);
    assert!(s.chaos.crashes_fired > 0, "crash must fire");
    assert!(s.chaos.skews_fired > 0, "skew must fire");
    assert!(
        s.chaos.fetch_failures + s.chaos.chunk_losses > 0,
        "storage faults must fire"
    );
    assert!(
        s.chaos.missed_seals + s.chaos.dropped_txs > 0,
        "chain faults must fire"
    );
}

#[test]
fn async_chaos_reports_are_byte_identical() {
    let chaos = ChaosConfig {
        fetch_failure_prob: 0.2,
        dropped_tx_prob: 0.15,
        ..ChaosConfig::scripted(vec![FaultEvent {
            cluster: 1,
            round: 2,
            kind: FaultKind::Crash { down_rounds: 1 },
        }])
    };
    let config = ExperimentBuilder::quickstart()
        .seed(53)
        .rounds(3)
        .mode(Mode::Async)
        .chaos(chaos)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("async chaos", &s, &p);
    assert!(s.chaos.enabled && s.chaos.crashes_fired > 0);
}

#[test]
fn sync_straggler_carryover_reports_are_byte_identical() {
    // A 50x straggler exercises the carryover commit path (store-and-hold,
    // next-round submission, no pull/train) in both engines.
    let mut config = ExperimentBuilder::quickstart()
        .seed(59)
        .rounds(4)
        .mode(Mode::Sync)
        .config()
        .clone();
    config.clusters[2].straggle_factor = 50.0;
    let (s, p) = both_engines(config);
    assert_identical("sync straggler", &s, &p);
    assert!(
        s.aggregators[2].straggler_rounds > 0,
        "the slow cluster must actually straggle"
    );
}

#[test]
fn sync_multikrum_reports_are_byte_identical() {
    // MultiKRUM adds the full-round fetch pass at scoring-phase start and
    // the Ready-score path through the scoring step.
    let config = ExperimentBuilder::quickstart()
        .seed(61)
        .rounds(3)
        .mode(Mode::Sync)
        .scorer(ScorerKind::MultiKrum)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("sync multikrum", &s, &p);
}

#[test]
fn sync_multikrum_partial_round_reports_are_byte_identical() {
    // A straggler shrinks the MultiKRUM submission set below the cluster
    // count from round 2 on, so the Byzantine bound must be derived from
    // the models actually scored (5 clusters, 4 submissions → f = 0,
    // admissible) rather than the federation size (f = 1, inadmissible
    // for 4 models).
    use unifyfl::sim::DeviceProfile;
    let mut clusters: Vec<ClusterConfig> = (0..5)
        .map(|i| ClusterConfig::edge(format!("agg-{i}"), DeviceProfile::edge_cpu()))
        .collect();
    clusters[4].straggle_factor = 50.0;
    let config = ExperimentBuilder::quickstart()
        .seed(71)
        .rounds(3)
        .mode(Mode::Sync)
        .scorer(ScorerKind::MultiKrum)
        .clusters(clusters)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("sync multikrum partial round", &s, &p);
    assert!(
        s.aggregators[4].straggler_rounds > 0,
        "the slow cluster must straggle so the round is partial"
    );
}

#[test]
fn heterogeneous_cluster_counts_stay_identical() {
    // 5 clusters (odd, > cpu parity) through the sync engine.
    use unifyfl::sim::DeviceProfile;
    let clusters: Vec<ClusterConfig> = (0..5)
        .map(|i| ClusterConfig::edge(format!("agg-{i}"), DeviceProfile::edge_cpu()))
        .collect();
    let config = ExperimentBuilder::quickstart()
        .seed(67)
        .rounds(2)
        .mode(Mode::Sync)
        .clusters(clusters)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("sync 5 clusters", &s, &p);
    assert_eq!(s.aggregators.len(), 5);
}

proptest! {
    /// `matmul_tn_into` must match `transpose()` then `matmul_naive` bit
    /// for bit on arbitrary shapes and values (including exact zeros,
    /// which both kernels skip).
    #[test]
    fn matmul_tn_is_bit_exact(
        k in 1usize..8,
        m in 1usize..8,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let (a, b) = random_operands(k * m, k * n, seed);
        let a = Tensor::from_vec(vec![k, m], a);
        let b = Tensor::from_vec(vec![k, n], b);
        let mut fused = Tensor::zeros(vec![m, n]);
        a.matmul_tn_into(&b, &mut fused);
        let naive = a.transpose().matmul_naive(&b);
        prop_assert_eq!(fused.shape(), naive.shape());
        for (x, y) in fused.data().iter().zip(naive.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `matmul_nt_into` must match `matmul_naive(&rhs.transpose())` bit for
    /// bit.
    #[test]
    fn matmul_nt_is_bit_exact(
        m in 1usize..8,
        k in 1usize..8,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let (a, b) = random_operands(m * k, n * k, seed);
        let a = Tensor::from_vec(vec![m, k], a);
        let b = Tensor::from_vec(vec![n, k], b);
        let mut fused = Tensor::zeros(vec![m, n]);
        a.matmul_nt_into(&b, &mut fused);
        let naive = a.matmul_naive(&b.transpose());
        prop_assert_eq!(fused.shape(), naive.shape());
        for (x, y) in fused.data().iter().zip(naive.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// Deterministic pseudo-random operand buffers with a sprinkling of exact
/// zeros (the kernels' skip branch) and awkward magnitudes.
fn random_operands(len_a: usize, len_b: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*; map to a value in roughly [-4, 4] with zeros.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let v = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as i32;
        if v % 7 == 0 {
            0.0f32
        } else {
            (v % 1000) as f32 * 0.008
        }
    };
    let a = (0..len_a).map(|_| next()).collect();
    let b = (0..len_b).map(|_| next()).collect();
    (a, b)
}
