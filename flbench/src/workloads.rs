//! The three workloads, as configurations generated from the seed.
//!
//! Every configuration pins `Engine::Sequential`: `Engine::auto()` reads the
//! `UNIFYFL_ENGINE` environment variable, so an unpinned config would let the
//! environment change what is measured, and the parallel engine's
//! per-cluster threads blur both wall time and layer attribution on a small
//! host.

use unifyfl_bench::{scale, table6, Scale};
use unifyfl_core::experiment::{Engine, ExperimentBuilder, ExperimentConfig, LinkModel, Mode};
use unifyfl_core::{ClusterConfig, GossipConfig, TransferConfig};
use unifyfl_sim::DeviceProfile;
use unifyfl_storage::LinkProfile;

/// Silos in the `fleet-async` workload.
pub const FLEET_SILOS: usize = 120;
/// Federation rounds in the `fleet-async` workload.
pub const FLEET_ROUNDS: usize = 6;
/// Rounds per experiment in the `sweep` workload.
pub const SWEEP_ROUNDS: usize = 2;
/// Experiments in one `sweep` burst. Sized so that more than ten samples of
/// one burst lie beyond its 99th percentile.
pub const SWEEP_BURST: usize = 1200;
/// Runs the `sweep` service steps concurrently (the admission bound).
pub const SWEEP_IN_FLIGHT: usize = 8;

/// A workload the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 6 run C1 at quick scale: three edge silos training a small CNN.
    CnnSync,
    /// 120 WAN-linked silos, sharded, over the gossip overlay, Async.
    FleetAsync,
    /// A burst of tiny quickstart runs submitted to an `ExperimentService`.
    Sweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::CnnSync, Workload::FleetAsync, Workload::Sweep];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnSync => "cnn-sync",
            Workload::FleetAsync => "fleet-async",
            Workload::Sweep => "sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The federation-mean global accuracy (%) whose first crossing defines
    /// `time_to_target_vs`: fixed per workload, below the final accuracy
    /// the workload reaches (C1 ends near 61 %, the fleet near 93 %).
    pub fn accuracy_target_pct(self) -> f64 {
        match self {
            Workload::CnnSync => 50.0,
            Workload::FleetAsync => 80.0,
            Workload::Sweep => 40.0,
        }
    }
}

/// `cnn-sync`: Table 6 run C1 (3 heterogeneous edge silos, `small_cnn(10)`,
/// batch 5, 2 local epochs, 10 rounds, Sync, Top2/Mean, accuracy scoring).
pub fn cnn_sync(seed: u64) -> ExperimentConfig {
    let mut config = table6::config("C1", Scale::Quick, seed);
    config.engine = Engine::Sequential;
    config
}

/// `fleet-async`: 120 WAN-linked silos in three shards (five sampled scorers
/// per release, exchange every two rounds) over the default gossip overlay,
/// with physical link timing, default transfer knobs, Async, six rounds of
/// the tiny scale MLP.
///
/// The scale workload's data is as noisy as the CIFAR-like task, on which
/// its 16-wide MLP stays at chance, so its final accuracy would be noise and
/// could not show a change in results. This workload keeps the model, the
/// four samples per silo and the batch, and trains on the quickstart task's
/// noise level with a larger step, so the fleet learns within six rounds.
pub fn fleet_async(seed: u64) -> ExperimentConfig {
    let mut workload = scale::workload(FLEET_SILOS);
    workload.rounds = FLEET_ROUNDS;
    workload.dataset.noise_scale = 0.6;
    workload.dataset.label_noise = 0.05;
    workload.learning_rate = 0.2;
    let clusters = (0..FLEET_SILOS)
        .map(|i| {
            ClusterConfig::edge(format!("silo-{}", i + 1), DeviceProfile::edge_cpu())
                .with_link(LinkProfile::wan())
        })
        .collect();
    ExperimentBuilder::quickstart()
        .seed(seed)
        .label("fleet-async")
        .workload(workload)
        .clusters(clusters)
        .mode(Mode::Async)
        .sharding(scale::shard_plan(FLEET_SILOS))
        .gossip(GossipConfig::default())
        .link_model(LinkModel::Physical)
        .transfer(TransferConfig::default())
        .engine(Engine::Sequential)
        .config()
        .clone()
}

/// One `sweep` experiment: the quickstart task for two rounds, Sync and
/// Async alternating, its seed fanned out from the benchmark seed.
pub fn sweep_member(seed: u64, index: usize) -> ExperimentConfig {
    let mode = if index.is_multiple_of(2) {
        Mode::Sync
    } else {
        Mode::Async
    };
    ExperimentBuilder::quickstart()
        .seed(seed.wrapping_mul(1_000_003).wrapping_add(index as u64))
        .label(format!("sweep-{index}"))
        .rounds(SWEEP_ROUNDS)
        .mode(mode)
        .engine(Engine::Sequential)
        .config()
        .clone()
}

/// The whole `sweep` burst.
pub fn sweep(seed: u64) -> Vec<ExperimentConfig> {
    (0..SWEEP_BURST).map(|i| sweep_member(seed, i)).collect()
}
