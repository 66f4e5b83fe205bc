//! Layer microbenchmarks. Each one times a single public function of one
//! layer, with shapes read from the workload configurations (model spec,
//! batch size, shard size, blob size, transactions per block), so they
//! cannot drift from what the workloads run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use unifyfl_chain::chain::Blockchain;
use unifyfl_chain::clique::CliqueConfig;
use unifyfl_chain::hash::sha256;
use unifyfl_chain::merkle::merkle_root;
use unifyfl_chain::types::{Address, Transaction};
use unifyfl_core::experiment::ExperimentConfig;
use unifyfl_core::scoring::accuracy_score;
use unifyfl_data::Dataset;
use unifyfl_fl::{FedAvg, FitConfig, FlClient, InMemoryClient, Strategy};
use unifyfl_storage::{IpfsNetwork, LinkProfile};
use unifyfl_tensor::arena::Arena;
use unifyfl_tensor::layers::{Conv2d, Layer};
use unifyfl_tensor::zoo::Architecture;
use unifyfl_tensor::{delta_from_bytes, delta_to_bytes, weights_to_bytes, Tensor};

use crate::metrics::Metrics;
use crate::stats::median;

/// Wall time each timed function is repeated for.
const BUDGET: Duration = Duration::from_millis(150);
/// Samples the evaluation path scores per chunk (`fl::evaluate_model`
/// evaluates in chunks of this many samples).
const EVAL_CHUNK: usize = 256;
/// The small CNN's convolution: `zoo::ModelSpec::build` uses a 3×3 kernel
/// with "same" padding.
const CONV_KERNEL: usize = 3;
const CONV_PAD: usize = 1;
/// Distinct blobs published and fetched by the storage benchmarks.
const STORAGE_BLOBS: usize = 1024;
/// Blocks sealed by the sealing benchmark.
const SEALS: usize = 1024;
/// Signers of the sealing benchmark's chain.
const SIGNERS: usize = 3;
/// Calldata bytes per benchmark transaction.
const TX_INPUT_BYTES: usize = 96;

/// Median seconds per call of `f`, over batches sized to at least a
/// millisecond, repeated for [`BUDGET`] after one warm-up call.
pub fn per_call_secs(mut f: impl FnMut()) -> f64 {
    f();
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || samples.len() < 5 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    median(&samples)
}

/// One silo's view of a workload: its training shard, built the way the
/// federation builds it (global test split, then the partition).
pub struct Silo {
    /// The whole generated dataset.
    pub full: Dataset,
    /// Silo 0's training shard.
    pub shard: Dataset,
}

/// Generates and partitions a workload's data, timing both steps into
/// `data.generate_ms` and `data.partition_ms` when `metrics` is given.
pub fn silo(config: &ExperimentConfig, metrics: Option<&mut Metrics>) -> Silo {
    let dataset = &config.workload.dataset;
    let full = dataset.generate(config.seed);
    let split = |full: &Dataset| {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xFEDE);
        let (pool, _test) = full.split(0.15, &mut rng);
        config
            .partition
            .split(&pool, config.clusters.len(), &mut rng)
    };
    if let Some(m) = metrics {
        m.set(
            "data.generate_ms",
            per_call_secs(|| {
                black_box(dataset.generate(black_box(config.seed)));
            }) * 1e3,
        );
        m.set(
            "data.partition_ms",
            per_call_secs(|| {
                black_box(split(black_box(&full)));
            }) * 1e3,
        );
    }
    let shard = split(&full).swap_remove(0);
    Silo { full, shard }
}

fn first_batch(data: &Dataset, size: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    data.batches(size, &mut rng).swap_remove(0)
}

/// `tensor.*` CNN kernels and `fl.*`, on the `cnn-sync` shapes.
pub fn cnn_layers(cnn: &ExperimentConfig, m: &mut Metrics) {
    let spec = &cnn.workload.model;
    let data = silo(cnn, None);
    let (x, y) = first_batch(&data.shard, cnn.workload.batch_size, cnn.seed);
    let mut model = spec.build(cnn.seed);
    m.set(
        "tensor.train_batch_cnn_ms",
        per_call_secs(|| {
            black_box(model.train_batch(black_box(&x), &y));
        }) * 1e3,
    );
    let (xe, ye) = first_batch(&data.full, EVAL_CHUNK.min(data.full.len()), cnn.seed);
    m.set(
        "tensor.eval_batch_cnn_ms",
        per_call_secs(|| {
            black_box(model.evaluate_batch(black_box(&xe), &ye));
        }) * 1e3,
    );

    let Architecture::SmallCnn {
        in_c,
        h,
        w,
        conv_channels,
        hidden,
        ..
    } = spec.arch
    else {
        panic!("cnn-sync trains the small CNN");
    };
    let mut rng = StdRng::seed_from_u64(cnn.seed);
    let mut conv = Conv2d::new(in_c, conv_channels, CONV_KERNEL, CONV_PAD, &mut rng);
    let mut arena = Arena::new();
    m.set(
        "tensor.conv_fwd_us",
        per_call_secs(|| {
            let out = conv.forward_arena(black_box(&x), true, &mut arena);
            arena.recycle(black_box(out));
        }) * 1e6,
    );
    let out = conv.forward_arena(&x, true, &mut arena);
    let grad = Tensor::from_vec(out.shape().to_vec(), vec![1e-3; out.len()]);
    m.set(
        "tensor.conv_bwd_us",
        per_call_secs(|| {
            let g = conv.backward_arena(black_box(&grad), &mut arena);
            arena.recycle(black_box(g));
        }) * 1e6,
    );

    // The first dense layer: [batch, conv_channels·h·w] × [·, hidden].
    let (rows, inner) = (cnn.workload.batch_size, conv_channels * h * w);
    let a = Tensor::from_vec(
        vec![rows, inner],
        (0..rows * inner)
            .map(|i| ((i % 17) as f32) * 0.01)
            .collect(),
    );
    let b = Tensor::from_vec(
        vec![inner, hidden],
        (0..inner * hidden)
            .map(|i| ((i % 13) as f32) * 0.01)
            .collect(),
    );
    let mut c = Tensor::zeros(vec![rows, hidden]);
    let secs = per_call_secs(|| a.matmul_into(black_box(&b), &mut c));
    m.set(
        "tensor.matmul_gflops",
        2.0 * (rows * inner * hidden) as f64 / secs / 1e9,
    );

    let weights = spec.build(cnn.seed).flat_params();
    let mut client = InMemoryClient::new(spec.clone(), data.shard.clone(), cnn.seed);
    let fit = FitConfig {
        epochs: cnn.workload.local_epochs,
        batch_size: cnn.workload.batch_size,
        learning_rate: cnn.workload.learning_rate,
        round: 1,
    };
    m.set(
        "fl.fit_ms",
        per_call_secs(|| {
            black_box(client.fit(black_box(&weights), &fit));
        }) * 1e3,
    );
    m.set(
        "fl.evaluate_ms",
        per_call_secs(|| {
            black_box(client.evaluate(black_box(&weights)));
        }) * 1e3,
    );
    let updates: Vec<(Vec<f32>, usize)> = (0..cnn.clusters.len())
        .map(|i| {
            let shifted = weights.iter().map(|v| v + i as f32 * 1e-3).collect();
            (shifted, data.shard.len())
        })
        .collect();
    let mut fedavg = FedAvg::new();
    m.set(
        "fl.aggregate_us",
        per_call_secs(|| {
            black_box(fedavg.aggregate(black_box(&weights), &updates));
        }) * 1e6,
    );
}

/// The MLP step, delta codec and storage fabric, on the `fleet-async`
/// shapes: its model, batch, release blob and link profile.
pub fn fleet_layers(fleet: &ExperimentConfig, m: &mut Metrics) {
    let spec = &fleet.workload.model;
    let data = silo(fleet, None);
    let (x, y) = first_batch(&data.shard, fleet.workload.batch_size, fleet.seed);
    let mut model = spec.build(fleet.seed);
    m.set(
        "tensor.train_batch_mlp_us",
        per_call_secs(|| {
            black_box(model.train_batch(black_box(&x), &y));
        }) * 1e6,
    );

    // A release and its successor one local round later.
    let base = spec.build(fleet.seed).flat_params();
    let next = InMemoryClient::new(spec.clone(), data.shard.clone(), fleet.seed)
        .fit(
            &base,
            &FitConfig {
                epochs: fleet.workload.local_epochs,
                batch_size: fleet.workload.batch_size,
                learning_rate: fleet.workload.learning_rate,
                round: 1,
            },
        )
        .weights;
    let weight_mb = (base.len() * 4) as f64 / 1e6;
    let delta = delta_to_bytes(&base, &next);
    m.set(
        "tensor.delta_encode_mb_s",
        weight_mb
            / per_call_secs(|| {
                black_box(delta_to_bytes(black_box(&base), &next));
            }),
    );
    m.set(
        "tensor.delta_decode_mb_s",
        weight_mb
            / per_call_secs(|| {
                black_box(delta_from_bytes(black_box(&base), &delta).expect("own delta decodes"));
            }),
    );

    let blob = weights_to_bytes(&next);
    let blob_mb = blob.len() as f64 / 1e6;
    m.set(
        "chain.sha256_mb_s",
        blob_mb
            / per_call_secs(|| {
                black_box(sha256(black_box(&blob)));
            }),
    );

    let network = IpfsNetwork::new();
    network.configure_transfer(fleet.transfer, fleet.seed);
    let publisher = network.add_node(LinkProfile::wan());
    let fetcher = network.add_node(LinkProfile::wan());
    let blobs: Vec<Vec<u8>> = (0..STORAGE_BLOBS)
        .map(|i| {
            let mut b = blob.clone();
            b[..8].copy_from_slice(&(i as u64).to_le_bytes());
            b
        })
        .collect();
    let mut add = Vec::with_capacity(STORAGE_BLOBS);
    let mut cids = Vec::with_capacity(STORAGE_BLOBS);
    for b in &blobs {
        let t = Instant::now();
        cids.push(publisher.add(black_box(b)).cid);
        add.push(t.elapsed().as_secs_f64());
    }
    m.set("storage.add_mb_s", blob_mb / median(&add));
    let timed_gets = |expect_hit: bool| -> Vec<f64> {
        cids.iter()
            .map(|&cid| {
                let t = Instant::now();
                let got = fetcher
                    .get(black_box(cid))
                    .expect("published blob is fetchable");
                let secs = t.elapsed().as_secs_f64();
                assert_eq!(got.local_hit, expect_hit, "unexpected cache outcome");
                secs
            })
            .collect()
    };
    m.set("storage.get_remote_ms", median(&timed_gets(false)) * 1e3);
    m.set("storage.get_cached_us", median(&timed_gets(true)) * 1e6);
}

/// Merkle root and block sealing with the block shape `txs_per_block`,
/// taken from the workload's own chain statistics.
pub fn chain_layers(txs_per_block: usize, m: &mut Metrics) {
    let user = Address::from_label("flbench-user");
    let target = Address::from_label("flbench-target");
    let txs: Vec<Vec<u8>> = (0..txs_per_block as u64)
        .map(|n| Transaction::call(user, target, n, vec![0x5a; TX_INPUT_BYTES]).encode())
        .collect();
    m.set(
        "chain.merkle_root_us",
        per_call_secs(|| {
            black_box(merkle_root(black_box(&txs).iter().map(Vec::as_slice)));
        }) * 1e6,
    );

    let signers = (0..SIGNERS)
        .map(|i| Address::from_label(&format!("flbench-signer-{i}")))
        .collect();
    let mut chain = Blockchain::new(CliqueConfig::default(), signers);
    let mut nonce = 0u64;
    let mut seals = Vec::with_capacity(SEALS);
    for _ in 0..SEALS {
        for _ in 0..txs_per_block {
            chain.submit(Transaction::call(
                user,
                target,
                nonce,
                vec![0x5a; TX_INPUT_BYTES],
            ));
            nonce += 1;
        }
        let now = chain.next_seal_time();
        let t = Instant::now();
        black_box(chain.seal_next(now).expect("a signer is always eligible"));
        seals.push(t.elapsed().as_secs_f64());
    }
    m.set("chain.seal_block_us", median(&seals) * 1e6);
}

/// Accuracy scoring of one release on a silo's shard, on the running
/// workload's model.
pub fn scoring_layer(config: &ExperimentConfig, m: &mut Metrics) {
    let spec = &config.workload.model;
    let data = silo(config, Some(m));
    let weights = spec.build(config.seed).flat_params();
    m.set(
        "core.scoring.accuracy_score_ms",
        per_call_secs(|| {
            black_box(accuracy_score(spec, black_box(&weights), &data.shard));
        }) * 1e3,
    );
}
