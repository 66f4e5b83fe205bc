//! The Sync and Async orchestration engines (§3.2 / §3.3, Figures 5 & 6),
//! rebuilt as two policies over the discrete-event kernel
//! ([`crate::events`]).
//!
//! Both engines drive the same federation through the paper's six-step
//! workflow by draining one typed [`Event`] queue, differing exactly where
//! the paper says they differ:
//!
//! - **Sync** ([`run_sync`]) is the *barrier-event* policy: an
//!   `OpenTraining → TrainingDone×n → StartScoring → ScoresDue×n →
//!   RoundBarrier` event cycle per round. Per-cluster completion events are
//!   released at the phase-window close (the barrier), so fast clusters
//!   accumulate idle time, clusters that overrun the training window become
//!   *stragglers* whose model is only accepted next round, and scores
//!   arriving after the scoring window are rejected by the contract.
//! - **Async** ([`run_async`]) is the *no-barrier* policy: each cluster's
//!   `ClusterWake` event fires at its own virtual clock (ties broken by
//!   cluster index), and the waking cluster either serves a scoring duty or
//!   runs its next training round. A final `SealSlot` event drains the
//!   chain once every cluster is done.
//!
//! Virtual time comes from the cluster cost models — or, under
//! [`LinkModel::Physical`], from the storage layer's physical bytes moved
//! per link — and chain state advances via periodic Clique seals as time
//! passes, so contract-enforced window semantics (late submissions/scores
//! reverting) are exercised for real.
//!
//! Both policies consume the federation's installed [`FaultPlan`], if any
//! (crashes, leaves, latency spikes, clock skew), and both serve
//! *elastic membership*: a cluster configured with
//! [`ClusterConfig::joins_at`](crate::cluster::ClusterConfig::joins_at)
//! enters mid-run through a [`Event::MembershipChange`] event — it
//! registers on-chain, bootstraps its model from the latest scored
//! releases, and participates from there.

use std::collections::{BTreeMap, HashSet, VecDeque};

use unifyfl_chain::orchestrator::{calls, OrchestrationMode};
use unifyfl_chain::types::Address;
use unifyfl_data::WorkloadConfig;
use unifyfl_sim::fault::FaultPlan;
use unifyfl_sim::{EventId, EventQueue, SimDuration, SimTime};
use unifyfl_storage::Cid;

use crate::cluster::ClusterRoundRecord;
use crate::events::{self, Event, EventPolicy, EventRecord};
use crate::federation::{Federation, LinkModel};
use crate::scoring::{krum_assumed_byzantine, multikrum_scores, ScorerKind};
use crate::sharding::ShardTopology;
use crate::step::{
    compute_dispatch, compute_scores, compute_train, merge_eval, prepare_scoring, prepare_train,
    Engine, ScoreTask, ScoredModel, TrainInputs, TrainResult,
};

/// Orchestration mode selector (maps onto the contract's mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Phase-locked rounds.
    Sync,
    /// Free-running rounds.
    Async,
}

impl Mode {
    /// The contract-side mode this engine requires.
    pub fn to_chain(self) -> OrchestrationMode {
        match self {
            Mode::Sync => OrchestrationMode::Sync,
            Mode::Async => OrchestrationMode::Async,
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Sync => write!(f, "Sync"),
            Mode::Async => write!(f, "Async"),
        }
    }
}

/// What an engine run produced, per cluster and overall.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Virtual completion time of each cluster's final round.
    pub per_cluster_time: Vec<SimTime>,
    /// Rounds in which each cluster straggled (missed the submission
    /// window; Sync only).
    pub straggler_rounds: Vec<u64>,
    /// Scores each cluster lost to a closed scoring window (Sync only).
    pub rejected_scores: Vec<u64>,
    /// Final *global* (post-merge) accuracy/loss per cluster on the global
    /// test set.
    pub final_global: Vec<(f64, f64)>,
    /// Final *local* (post-training) accuracy/loss per cluster.
    pub final_local: Vec<(f64, f64)>,
    /// Virtual end of the whole run.
    pub end_time: SimTime,
    /// The kernel's fired-event trace, in firing order — a pure function
    /// of the configuration (replays are bit-identical).
    pub events: Vec<EventRecord>,
}

/// Final pass after the last round: merge the last submissions and
/// evaluate the resulting global model. Clusters no longer participating
/// (`active[idx] == false`: left the federation, or never joined) report
/// their last recorded state instead of merging post-departure. The
/// merge+evaluate compute runs under the selected [`Engine`] (inline
/// reference order, or one scoped thread per cluster); fetches and
/// resource bursts stay in cluster-index order either way.
fn final_merge(
    fed: &mut Federation,
    rounds: u64,
    active: &[bool],
    engine: Engine,
) -> Vec<(f64, f64)> {
    let n = fed.clusters.len();
    let round = rounds + 1;
    let last_global = |fed: &Federation, idx: usize| {
        fed.clusters[idx]
            .records
            .last()
            .map(|r| (r.global_accuracy, r.global_loss))
            .unwrap_or((0.0, 0.0))
    };
    let inputs: Vec<Option<TrainInputs>> = (0..n)
        .map(|idx| {
            active[idx].then(|| {
                let inputs = prepare_train(fed, idx, round);
                fed.record_ipfs_burst(inputs.pull);
                inputs
            })
        })
        .collect();
    let results = {
        let (clusters, global_test) = fed.compute_view();
        compute_dispatch(clusters, inputs, engine, |cluster, inputs| {
            let _phase = crate::profile::enter(crate::profile::Phase::Train);
            merge_eval(cluster, inputs, global_test)
        })
    };
    results
        .into_iter()
        .enumerate()
        .map(|(idx, r)| match r {
            Some((_, acc, loss)) => (acc, loss),
            None => last_global(fed, idx),
        })
        .collect()
}

fn last_local(fed: &Federation, idx: usize) -> (f64, f64) {
    fed.clusters[idx]
        .records
        .last()
        .map(|r| (r.local_accuracy, r.local_loss))
        .unwrap_or((0.0, 0.0))
}

/// Registers a joining cluster's bootstrap: fetch every currently-visible
/// scored release (sync: window-closed entries — the *full-consensus*
/// view; async: any-scored latest entries — the *optimistic* view), adopt
/// their equal-weight mean as the joiner's starting model, and record the
/// membership change. Returns the virtual time the bootstrap pulls cost
/// under the active link model.
fn bootstrap_join(fed: &mut Federation, idx: usize, at: SimTime) -> SimDuration {
    let candidates = fed.candidates_for(idx);
    let want = fed.clusters[idx].weights().len();
    let mut peers: Vec<Vec<f32>> = Vec::new();
    let mut physical = SimDuration::ZERO;
    for c in &candidates {
        if let Some((w, cost)) = fed.fetch_weights_costed(idx, c.cid) {
            if w.len() == want {
                physical += cost;
                peers.push(w);
            }
        }
    }
    let spent = match fed.link_model() {
        LinkModel::Nominal => fed.clusters[idx].fetch_duration() * peers.len() as u64,
        LinkModel::Physical => physical,
    };
    if !peers.is_empty() {
        // Deterministic equal-weight mean in f64 accumulation.
        let mut mean = vec![0.0f64; want];
        for p in &peers {
            for (m, v) in mean.iter_mut().zip(p) {
                *m += f64::from(*v);
            }
        }
        let adopted: Vec<f32> = mean
            .into_iter()
            .map(|v| (v / peers.len() as f64) as f32)
            .collect();
        fed.clusters[idx].adopt_weights(adopted);
    }
    fed.record_ipfs_burst(spent);
    fed.log_membership(
        idx,
        at,
        "join",
        &format!(
            "joined; bootstrapped from {} scored release(s)",
            peers.len()
        ),
    );
    spent
}

/// Seals one shard's release ([`Event::ShardSealDue`]): the representative
/// fetches the shard's currently visible scored releases (its candidate
/// view is already intra-shard), means them with its own weights in f64
/// accumulation, publishes the blob, and submits the on-chain
/// `submitShardRelease`. Returns the virtual cost charged under the active
/// link model (fetches plus the representative's publish time). The
/// representative's own model lineage is untouched — the sealed blob is a
/// shard-level artifact, not one of its releases.
fn seal_shard(
    fed: &mut Federation,
    shard: usize,
    epoch: u64,
    rep: usize,
    at: SimTime,
) -> SimDuration {
    let orch = fed.orchestrator;
    let candidates = fed.candidates_for(rep);
    let want = fed.clusters[rep].weights().len();
    let mut peers: Vec<Vec<f32>> = Vec::new();
    let mut physical = SimDuration::ZERO;
    for c in &candidates {
        if let Some((w, cost)) = fed.fetch_weights_costed(rep, c.cid) {
            if w.len() == want {
                physical += cost;
                peers.push(w);
            }
        }
    }
    let fetch_cost = match fed.link_model() {
        LinkModel::Nominal => fed.clusters[rep].fetch_duration() * peers.len() as u64,
        LinkModel::Physical => physical,
    };
    let mut mean: Vec<f64> = fed.clusters[rep]
        .weights()
        .iter()
        .map(|v| f64::from(*v))
        .collect();
    for p in &peers {
        for (m, v) in mean.iter_mut().zip(p) {
            *m += f64::from(*v);
        }
    }
    let count = (peers.len() + 1) as f64;
    let sealed: Vec<f32> = mean.into_iter().map(|v| (v / count) as f32).collect();
    let cid = fed.clusters[rep].publish_release_blob(&sealed);
    let spent = fetch_cost + fed.clusters[rep].publish_duration();
    fed.record_ipfs_burst(spent);
    let call = calls::submit_shard_release(shard as u32, epoch, &cid.to_string());
    let tx = fed.clusters[rep].next_tx(orch, call);
    fed.submit_cluster_tx_at(at + spent, tx);
    spent
}

/// One cluster's side of an inter-shard exchange
/// ([`Event::ShardExchange`]): fetch every *other* shard's latest sealed
/// release and fold them into the cluster's weights (equal-weight mean
/// including its own model). Returns the fetch cost under the active link
/// model. A shard whose release is unfetchable (never sealed, or lost to a
/// storage fault) is skipped — the exchange degrades instead of stalling.
fn exchange_into(fed: &mut Federation, topology: &ShardTopology, idx: usize) -> SimDuration {
    let cids = exchange_cids(fed, topology, idx);
    let want = fed.clusters[idx].weights().len();
    let mut peers: Vec<Vec<f32>> = Vec::new();
    let mut physical = SimDuration::ZERO;
    for cid in cids {
        if let Some((w, cost)) = fed.fetch_weights_costed(idx, cid) {
            if w.len() == want {
                physical += cost;
                peers.push(w);
            }
        }
    }
    let spent = match fed.link_model() {
        LinkModel::Nominal => fed.clusters[idx].fetch_duration() * peers.len() as u64,
        LinkModel::Physical => physical,
    };
    if !peers.is_empty() {
        fed.clusters[idx].merge_peers(&peers);
    }
    fed.record_ipfs_burst(spent);
    spent
}

/// The CIDs [`exchange_into`] will fetch for `idx` at this instant: every
/// *other* shard's latest sealed release. Factored out so the gossip
/// prefetch warms exactly the set the exchange reads — all of the epoch's
/// seals land before either event is scheduled, so the set is stable.
fn exchange_cids(fed: &Federation, topology: &ShardTopology, idx: usize) -> Vec<Cid> {
    let my_shard = topology.shard_of(idx);
    (0..topology.shards)
        .filter(|s| *s != my_shard)
        .filter_map(|s| fed.contract().latest_shard_release(s as u32))
        .filter_map(|r| r.cid.parse().ok())
        .collect()
}

/// One cluster's side of a [`Event::PrefetchDue`]: disseminate the
/// epoch's sealed releases along the gossip overlay into the local store
/// ahead of the exchange. Charges nothing — see
/// [`Federation::prefetch_weights`].
fn prefetch_into(fed: &mut Federation, topology: &ShardTopology, idx: usize) {
    let cids = exchange_cids(fed, topology, idx);
    fed.prefetch_weights(idx, &cids);
}

/// What the training phase decided for one cluster, before any state is
/// mutated. Decisions are pure reads (membership, fault plan, carryover,
/// active set), so the kernel takes them in the phase-open event; every
/// mutation they imply — fault logs, carryover consumption, departure —
/// happens in that cluster's commit event, in cluster-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrainAction {
    /// Configured to join later; not a member yet.
    NotJoined,
    /// Departed in an earlier round; nothing to do.
    Gone,
    /// Leaves the federation this round (first observation).
    Leave,
    /// Crashed: sits the round out, losing any held-over work.
    Crash,
    /// Straggler finishing last round's held-over work; no pull/train.
    Carryover,
    /// Normal round: pull, merge, train, evaluate, publish.
    Run,
}

fn train_action(
    plan: Option<&FaultPlan>,
    joined: &[bool],
    active: &[bool],
    carryover: &[Option<SimDuration>],
    idx: usize,
    round: u64,
) -> TrainAction {
    if !joined[idx] {
        return TrainAction::NotJoined;
    }
    if let Some(p) = plan {
        if p.has_left(idx, round) {
            return if active[idx] {
                TrainAction::Leave
            } else {
                TrainAction::Gone
            };
        }
        if p.is_down(idx, round) {
            return TrainAction::Crash;
        }
    }
    if carryover[idx].is_some() {
        TrainAction::Carryover
    } else {
        TrainAction::Run
    }
}

/// Per-round constants and accumulators the sync commit events mutate.
struct SyncRoundState<'a> {
    round: u64,
    phase_start: SimTime,
    window_end: SimTime,
    scoring_window: SimDuration,
    plan: Option<&'a FaultPlan>,
    straggler_rounds: &'a mut [u64],
    carryover: &'a mut [Option<SimDuration>],
    active: &'a mut [bool],
}

/// A sync [`Event::TrainingDone`] commit for one cluster: every federation
/// mutation the round implies, replayed in the reference order.
fn commit_sync_train(
    fed: &mut Federation,
    idx: usize,
    action: TrainAction,
    result: Option<TrainResult>,
    st: &mut SyncRoundState<'_>,
) {
    let orch = fed.orchestrator;
    let round = st.round;
    match action {
        TrainAction::NotJoined | TrainAction::Gone => {}
        TrainAction::Leave => {
            st.active[idx] = false;
            st.carryover[idx] = None;
            fed.log_fault(idx, round, "leave", "left the federation");
        }
        TrainAction::Crash => {
            let outcome = if st.carryover[idx].take().is_some() {
                "round lost; held-over work discarded"
            } else {
                "round lost"
            };
            fed.log_fault(idx, round, "crash", outcome);
        }
        TrainAction::Carryover => {
            // Straggler from last round: finish the held work and submit
            // the stale model; no pull/train this round. The leftover
            // already embeds any clock skew from the round that incurred
            // it (skew is a fixed offset, not a per-round compounding
            // delay), so none is added here.
            let leftover = st.carryover[idx].take().expect("carryover action");
            let finish = st.phase_start + leftover;
            let cid = fed.clusters[idx].store_model(round);
            if finish <= st.window_end {
                let tx = fed.clusters[idx].submit_model_tx(orch, &cid);
                fed.submit_cluster_tx_at(finish, tx);
                fed.record_idle(st.window_end - finish);
            } else {
                st.straggler_rounds[idx] += 1;
                st.carryover[idx] = Some(finish - st.window_end);
            }
            let (acc, loss) = last_local(fed, idx);
            fed.clusters[idx].record(ClusterRoundRecord {
                round,
                peers_merged: 0,
                local_accuracy: acc,
                local_loss: loss,
                global_accuracy: acc,
                global_loss: loss,
                completed_at_secs: (st.window_end + st.scoring_window).as_secs_f64(),
            });
        }
        TrainAction::Run => {
            let mut result = result.expect("run action carries a compute result");
            let skew = st.plan.map_or(SimDuration::ZERO, |p| p.clock_skew(idx));
            let publish = crate::step::commit_train_effects(fed, idx, round, &mut result);
            let busy = result.pull + result.train + publish;
            // A skewed cluster's submission reaches the chain late.
            let finish = st.phase_start + busy + skew;

            let cid = fed.clusters[idx].store_model(round);
            if finish <= st.window_end {
                let tx = fed.clusters[idx].submit_model_tx(orch, &cid);
                fed.submit_cluster_tx_at(finish, tx);
                fed.record_idle(st.window_end - finish);
            } else {
                // Missed the window (§3.2 stragglers): the contract would
                // revert the submission; hold the model for next round.
                st.straggler_rounds[idx] += 1;
                st.carryover[idx] = Some(finish - st.window_end);
            }

            fed.clusters[idx].record(ClusterRoundRecord {
                round,
                peers_merged: result.peers_merged,
                local_accuracy: result.local_accuracy,
                local_loss: result.local_loss,
                global_accuracy: result.global_accuracy,
                global_loss: result.global_loss,
                completed_at_secs: (st.window_end + st.scoring_window).as_secs_f64(),
            });
        }
    }
}

/// A sync [`Event::ScoresDue`] commit for one cluster: walk the virtual
/// clock over its scored tasks, record bursts, submit in-window scores and
/// count window rejections — in the reference order.
#[allow(clippy::too_many_arguments)]
fn commit_scoring(
    fed: &mut Federation,
    idx: usize,
    round: u64,
    scored: Vec<ScoredModel>,
    scoring_start: SimTime,
    scoring_end: SimTime,
    skew: SimDuration,
    rejected_scores: &mut [u64],
) {
    let orch = fed.orchestrator;
    let mut clock = scoring_start + skew;
    for s in scored {
        let score_dur = fed.clusters[idx].score_duration();
        clock += s.fetch_cost + score_dur;
        fed.record_scoring_burst(s.fetch_cost + score_dur);
        fed.record_ipfs_burst(s.fetch_cost);
        if clock <= scoring_end {
            let tx = fed.clusters[idx].score_tx(orch, &s.cid, s.score);
            fed.submit_cluster_tx_at(clock, tx);
        } else {
            // §3.2: "the blockchain will no longer accept scores".
            rejected_scores[idx] += 1;
            if !skew.is_zero() {
                fed.log_fault(idx, round, "clock_skew", "score lost to closed window");
            }
        }
    }
    fed.record_idle(scoring_end.saturating_since(clock.max(scoring_start)));
}

/// Absolute join instants (`setup_done + joins_at`) for every configured
/// elastic joiner; `None` marks a founding member.
fn join_times(fed: &Federation) -> Vec<Option<SimTime>> {
    fed.clusters
        .iter()
        .map(|c| c.config().joins_at.map(|d| fed.setup_done + d))
        .collect()
}

/// Logs the standing clock-skew fault for every *founding* cluster (the
/// skew applies from the first round; recording it proves the fault took
/// effect even when nothing is rejected).
fn log_initial_skews(fed: &mut Federation, plan: Option<&FaultPlan>, joined: &[bool]) {
    let Some(p) = plan else { return };
    let skewed: Vec<usize> = (0..fed.clusters.len())
        .filter(|&idx| joined[idx] && !p.clock_skew(idx).is_zero())
        .collect();
    for idx in skewed {
        fed.log_fault(idx, 1, "clock_skew", "clock runs behind the federation");
    }
}

// ---------------------------------------------------------------------
// Sync: the barrier-event policy.
// ---------------------------------------------------------------------

pub(crate) struct SyncPolicy {
    workload: WorkloadConfig,
    scorer: ScorerKind,
    engine: Engine,
    rounds: u64,
    n: usize,
    training_window: SimDuration,
    scoring_window: SimDuration,
    /// Active two-tier topology; `None` (or a single-shard topology,
    /// filtered at construction) runs the flat barrier cycle untouched.
    topology: Option<ShardTopology>,
    plan: Option<FaultPlan>,
    // Cross-round accumulators.
    straggler_rounds: Vec<u64>,
    rejected_scores: Vec<u64>,
    carryover: Vec<Option<SimDuration>>,
    active: Vec<bool>,
    joined: Vec<bool>,
    join_time: Vec<Option<SimTime>>,
    // Round whose `OpenTraining` is currently being processed (joins that
    // gate on it log their faults against this round).
    opening_round: u64,
    // Current round's barrier state, filled by the phase-open events and
    // consumed by the per-cluster commit events.
    phase_start: SimTime,
    window_end: SimTime,
    scoring_start: SimTime,
    scoring_end: SimTime,
    pending_actions: Vec<TrainAction>,
    pending_results: Vec<Option<TrainResult>>,
    pending_scores: Vec<Option<Vec<ScoredModel>>>,
    end_time: SimTime,
}

impl SyncPolicy {
    /// Builds the barrier policy for `fed`: asserts the contract mode,
    /// filters the shard topology, sizes the phase windows from the
    /// nominal cost models × `window_margin`, and seeds the membership
    /// bookkeeping. The returned policy is inert until the kernel calls
    /// [`EventPolicy::seed`].
    ///
    /// # Panics
    ///
    /// Panics if the federation was built with the wrong contract mode.
    pub(crate) fn new(
        fed: &Federation,
        workload: &WorkloadConfig,
        scorer: ScorerKind,
        window_margin: f64,
        engine: Engine,
    ) -> SyncPolicy {
        assert_eq!(
            fed.contract().mode(),
            OrchestrationMode::Sync,
            "sync engine needs a sync-mode contract"
        );
        let n = fed.clusters.len();
        // A single-shard topology is behaviorally flat: dropping it here
        // keeps the barrier cycle event-for-event identical to the
        // unsharded engine.
        let topology = fed.shard_topology().filter(|tp| tp.is_sharded()).cloned();
        // Peer fan-out per phase: intra-shard under the two-tier topology,
        // the whole federation when flat. Windows sized from it stay
        // constant as the federation grows with the shard size fixed.
        let fan_out = topology.as_ref().map_or(n, ShardTopology::max_shard_size) as u64 - 1;

        // Size the windows from nominal expected durations.
        let training_window = {
            let worst = fed
                .clusters
                .iter()
                .map(|c| {
                    let nominal_train = SimDuration::from_secs_f64(
                        c.train_duration(workload.local_epochs).as_secs_f64()
                            / c.config().straggle_factor,
                    );
                    let pull = c.fetch_duration() * fan_out;
                    pull + nominal_train + c.publish_duration()
                })
                .max()
                .expect("at least one cluster");
            SimDuration::from_secs_f64(worst.as_secs_f64() * window_margin)
        };
        let scoring_window = {
            let worst = fed
                .clusters
                .iter()
                .map(|c| {
                    let nominal_score = SimDuration::from_secs_f64(
                        c.score_duration().as_secs_f64() / c.config().straggle_factor,
                    );
                    (c.fetch_duration() + nominal_score) * fan_out
                })
                .max()
                .expect("at least one cluster");
            SimDuration::from_secs_f64(worst.as_secs_f64() * window_margin)
        };

        let join_time = join_times(fed);
        let joined: Vec<bool> = join_time.iter().map(Option::is_none).collect();
        SyncPolicy {
            workload: workload.clone(),
            scorer,
            engine,
            rounds: workload.rounds as u64,
            n,
            training_window,
            scoring_window,
            topology,
            plan: fed.fault_plan().cloned(),
            straggler_rounds: vec![0; n],
            rejected_scores: vec![0; n],
            carryover: vec![None; n],
            active: vec![true; n],
            joined,
            join_time,
            opening_round: 0,
            phase_start: fed.setup_done,
            window_end: fed.setup_done,
            scoring_start: fed.setup_done,
            scoring_end: fed.setup_done,
            pending_actions: Vec::new(),
            pending_results: Vec::new(),
            pending_scores: Vec::new(),
            end_time: fed.setup_done,
        }
    }

    /// Consumes the drained policy: runs the final merge over the
    /// still-participating clusters and assembles the outcome around the
    /// fired-event `trace`.
    pub(crate) fn finish(self, fed: &mut Federation, trace: Vec<EventRecord>) -> EngineOutcome {
        let n = self.n;
        let end_time = self.end_time;
        let participating: Vec<bool> = (0..n).map(|i| self.active[i] && self.joined[i]).collect();
        let final_global = final_merge(fed, self.rounds, &participating, self.engine);
        let final_local = (0..n).map(|i| last_local(fed, i)).collect();
        EngineOutcome {
            per_cluster_time: vec![end_time; n],
            straggler_rounds: self.straggler_rounds,
            rejected_scores: self.rejected_scores,
            final_global,
            final_local,
            end_time,
            events: trace,
        }
    }

    fn open_training(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        round: u64,
    ) {
        // Elastic joins are gated on phase boundaries: a joiner whose time
        // has come registers now, so this round's scorer sampling and
        // submissions already include it. Joins must take effect *before*
        // the phase opens, so schedule the membership events at this
        // instant followed by a re-issued `OpenTraining` — FIFO ordering
        // fires the joins first, then reopens the round with membership
        // settled.
        self.opening_round = round;
        let mut joins_due = false;
        for idx in 0..self.n {
            if !self.joined[idx] && self.join_time[idx].is_some_and(|jt| jt <= at) {
                queue.schedule(at, Event::MembershipChange { cluster: idx });
                joins_due = true;
            }
        }
        if joins_due {
            queue.schedule(at, Event::OpenTraining { round });
            return;
        }

        let tx = fed.phase_tx(calls::start_training());
        fed.submit_tx_at(at, tx);
        self.phase_start = fed.flush_chain_at(at);
        self.window_end = self.phase_start + self.training_window;

        // Phase A of the two-phase round step: decide every cluster's
        // action (pure reads), gather inputs in cluster-index order
        // (shared-state reads and fetches), then run the cluster-local
        // compute under the selected engine. Commits are the
        // `TrainingDone` events, released at the barrier in index order.
        let actions: Vec<TrainAction> = (0..self.n)
            .map(|idx| {
                train_action(
                    self.plan.as_ref(),
                    &self.joined,
                    &self.active,
                    &self.carryover,
                    idx,
                    round,
                )
            })
            .collect();
        let inputs: Vec<Option<TrainInputs>> = (0..self.n)
            .map(|idx| (actions[idx] == TrainAction::Run).then(|| prepare_train(fed, idx, round)))
            .collect();
        let workload = &self.workload;
        let results = {
            let (clusters, global_test) = fed.compute_view();
            compute_dispatch(clusters, inputs, self.engine, |cluster, inputs| {
                compute_train(cluster, inputs, workload, global_test)
            })
        };
        self.pending_actions = actions;
        self.pending_results = results;

        for idx in 0..self.n {
            queue.schedule(
                self.window_end,
                Event::TrainingDone {
                    cluster: idx,
                    round,
                },
            );
        }
        queue.schedule(self.window_end, Event::StartScoring { round });
    }

    fn training_done(&mut self, fed: &mut Federation, idx: usize, round: u64) {
        let action = self.pending_actions[idx];
        let result = self.pending_results[idx].take();
        let mut st = SyncRoundState {
            round,
            phase_start: self.phase_start,
            window_end: self.window_end,
            scoring_window: self.scoring_window,
            plan: self.plan.as_ref(),
            straggler_rounds: &mut self.straggler_rounds,
            carryover: &mut self.carryover,
            active: &mut self.active,
        };
        commit_sync_train(fed, idx, action, result, &mut st);
    }

    fn start_scoring(&mut self, fed: &mut Federation, queue: &mut EventQueue<Event>, round: u64) {
        let tx = fed.phase_tx(calls::start_scoring());
        fed.submit_tx_at(self.window_end, tx);
        self.scoring_start = fed.flush_chain_at(self.window_end);
        self.scoring_end = self.scoring_start + self.scoring_window;

        // Collect this round's assignments from the contract.
        let assignments: Vec<(Cid, Vec<Address>)> = fed
            .contract()
            .entries()
            .iter()
            .filter(|e| e.round == round)
            .filter_map(|e| e.cid.parse().ok().map(|cid| (cid, e.scorers.clone())))
            .collect();

        // MultiKRUM needs the full round's submissions at once. Under
        // sharding its "round" is each *shard's* round: distances are only
        // meaningful among the models a shard's scorers can see, so the
        // submissions are grouped by the submitter's shard and scored per
        // group. With the flat contract map every submitter is in shard 0,
        // so the single group reproduces the unsharded computation exactly.
        let krum: Option<(Vec<Cid>, Vec<f64>)> = if self.scorer == ScorerKind::MultiKrum {
            let mut groups: BTreeMap<u32, Vec<Cid>> = BTreeMap::new();
            for e in fed.contract().entries().iter().filter(|e| e.round == round) {
                if let Ok(cid) = e.cid.parse::<Cid>() {
                    groups
                        .entry(fed.contract().shard_of(e.submitter))
                        .or_default()
                        .push(cid);
                }
            }
            let mut cids: Vec<Cid> = Vec::new();
            let mut scores: Vec<f64> = Vec::new();
            for group in groups.into_values() {
                let models: Vec<Vec<f32>> = group
                    .iter()
                    .filter_map(|c| fed.fetch_weights(0, *c))
                    .collect();
                if models.len() == group.len() && !models.is_empty() {
                    // The Byzantine bound must be admissible for the models
                    // actually scored in this group, not the federation
                    // size — crashes, leavers and straggler carryovers all
                    // shrink the submission set below `n`.
                    let f = krum_assumed_byzantine(models.len());
                    scores.extend(multikrum_scores(&models, f));
                    cids.extend(group);
                }
            }
            (!cids.is_empty()).then_some((cids, scores))
        } else {
            None
        };

        // Scoring, same two-phase shape: prepare (assignment filtering and
        // fetches, index-ordered), compute (inference, engine-dispatched),
        // commit (`ScoresDue` events at the window close, index order).
        let scores_due = |p: &SyncPolicy, idx: usize| {
            p.joined[idx]
                && p.carryover[idx].is_none() // still busy with held-over work?
                // Chaos: departed or crashed clusters never score this
                // round (`is_down` covers both).
                && p.plan.as_ref().is_none_or(|pl| !pl.is_down(idx, round))
        };
        let task_lists: Vec<Option<Vec<ScoreTask>>> = (0..self.n)
            .map(|idx| {
                scores_due(self, idx)
                    .then(|| prepare_scoring(fed, idx, &assignments, krum.as_ref()))
            })
            .collect();
        let scored_lists = {
            let (clusters, _) = fed.compute_view();
            compute_dispatch(clusters, task_lists, self.engine, |cluster, tasks| {
                compute_scores(cluster, tasks)
            })
        };
        self.pending_scores = scored_lists;

        for idx in 0..self.n {
            queue.schedule(
                self.scoring_end,
                Event::ScoresDue {
                    cluster: idx,
                    round,
                },
            );
        }
        queue.schedule(self.scoring_end, Event::RoundBarrier { round });
    }

    fn scores_due(&mut self, fed: &mut Federation, idx: usize, round: u64) {
        let Some(scored) = self.pending_scores[idx].take() else {
            return;
        };
        let skew = self
            .plan
            .as_ref()
            .map_or(SimDuration::ZERO, |p| p.clock_skew(idx));
        commit_scoring(
            fed,
            idx,
            round,
            scored,
            self.scoring_start,
            self.scoring_end,
            skew,
            &mut self.rejected_scores,
        );
    }

    fn round_barrier(&mut self, fed: &mut Federation, queue: &mut EventQueue<Event>, round: u64) {
        let tx = fed.phase_tx(calls::end_scoring());
        fed.submit_tx_at(self.scoring_end, tx);
        let t = fed.flush_chain_at(self.scoring_end);
        self.end_time = t;
        if round >= self.rounds {
            return;
        }
        // Topology epochs: on the regroup cadence the barrier derives the
        // next epoch *before* any seal/exchange, so the fresh grouping
        // shapes them: RoundBarrier → RegroupDue → [seal/exchange →]
        // OpenTraining(round + 1). With `regroup: None` this never fires
        // and the barrier cycle is byte-identical to the static engine.
        let regroup_due = self.topology.as_ref().is_some_and(|tp| {
            tp.regroup_every
                .is_some_and(|every| round.is_multiple_of(every))
        });
        if regroup_due {
            let every = self
                .topology
                .as_ref()
                .and_then(|tp| tp.regroup_every)
                .expect("checked above");
            queue.schedule(
                t,
                Event::RegroupDue {
                    epoch: round / every,
                },
            );
            return;
        }
        self.advance_past_barrier(fed, queue, t, round);
    }

    /// The barrier's continuation once any due regroup has fired: on the
    /// inter-shard cadence the next round opens only after the
    /// seal/exchange pair (ShardSealDue → ShardExchange →
    /// OpenTraining(round + 1)); otherwise it opens immediately.
    fn advance_past_barrier(
        &mut self,
        fed: &Federation,
        queue: &mut EventQueue<Event>,
        t: SimTime,
        round: u64,
    ) {
        let exchange_due = self
            .topology
            .as_ref()
            .is_some_and(|tp| round.is_multiple_of(tp.exchange_every));
        if exchange_due {
            let every = self
                .topology
                .as_ref()
                .expect("checked above")
                .exchange_every;
            queue.schedule(
                t,
                Event::ShardSealDue {
                    epoch: round / every,
                },
            );
        } else {
            self.schedule_fetch_ahead(fed, queue, t, round + 1);
            queue.schedule(t, Event::OpenTraining { round: round + 1 });
        }
    }

    /// Fetch-ahead warm-ups for the round about to open: one
    /// [`Event::FetchAhead`] per participating cluster at the open instant
    /// but strictly before its [`Event::OpenTraining`] (same-time FIFO), so
    /// the round's pulls find a warm cache. No-op unless
    /// [`Federation::fetch_ahead`] is enabled.
    fn schedule_fetch_ahead(
        &self,
        fed: &Federation,
        queue: &mut EventQueue<Event>,
        t: SimTime,
        round: u64,
    ) {
        if !fed.fetch_ahead() {
            return;
        }
        for cluster in 0..self.n {
            if self.joined[cluster] && self.active[cluster] {
                queue.schedule(t, Event::FetchAhead { cluster, round });
            }
        }
    }

    /// A fired [`Event::RegroupDue`]: derive and install the next topology
    /// epoch over the clusters' current weights, adopt it for the rest of
    /// the run (window sizing is untouched — the regrouped shards respect
    /// the epoch-0 capacity bound), then continue the barrier's
    /// seal/exchange/open continuation for the regrouping round.
    fn regroup_due(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        epoch: u64,
    ) {
        let every = self
            .topology
            .as_ref()
            .and_then(|tp| tp.regroup_every)
            .expect("regroup events imply a regroup cadence");
        if let Some(next) = fed.regroup_epoch(epoch, at) {
            self.topology = Some(next);
        }
        let t = fed.flush_chain_at(at);
        self.end_time = t;
        self.advance_past_barrier(fed, queue, t, epoch * every);
    }

    /// Every shard's representative (its lowest-indexed member still in
    /// the federation) seals the shard release concurrently; the exchange
    /// fires once the slowest seal lands and the sealing block is mined.
    fn shard_seal_due(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        epoch: u64,
    ) {
        let topology = self
            .topology
            .clone()
            .expect("shard events imply a topology");
        let mut seal_end = at;
        for shard in 0..topology.shards {
            let rep = topology
                .members(shard)
                .into_iter()
                .find(|&i| self.joined[i] && self.active[i]);
            let Some(rep) = rep else { continue };
            let spent = seal_shard(fed, shard, epoch, rep, at);
            seal_end = seal_end.max(at + spent);
        }
        let t = fed.flush_chain_at(seal_end);
        // Gossip dissemination: prefetches land at the exchange instant
        // but strictly before it (same-time FIFO), so the exchange reads
        // warm stores.
        if fed.gossip().is_some_and(|g| g.prefetch) {
            for cluster in 0..self.n {
                if self.joined[cluster] && self.active[cluster] {
                    queue.schedule(t, Event::PrefetchDue { cluster, epoch });
                }
            }
        }
        queue.schedule(t, Event::ShardExchange { epoch });
    }

    /// Every participating cluster folds the other shards' sealed releases
    /// into its model; the next round opens once the slowest fold is done.
    fn shard_exchange(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        epoch: u64,
    ) {
        let topology = self
            .topology
            .clone()
            .expect("shard events imply a topology");
        let mut end = at;
        for idx in 0..self.n {
            if !(self.joined[idx] && self.active[idx]) {
                continue;
            }
            let spent = exchange_into(fed, &topology, idx);
            end = end.max(at + spent);
        }
        let t = fed.flush_chain_at(end);
        self.end_time = t;
        let round = epoch * topology.exchange_every;
        self.schedule_fetch_ahead(fed, queue, t, round + 1);
        queue.schedule(t, Event::OpenTraining { round: round + 1 });
    }
}

impl EventPolicy for SyncPolicy {
    fn seed(&mut self, fed: &mut Federation, queue: &mut EventQueue<Event>) {
        log_initial_skews(fed, self.plan.as_ref(), &self.joined);
        self.end_time = fed.setup_done;
        if self.rounds > 0 {
            queue.schedule(fed.setup_done, Event::OpenTraining { round: 1 });
        }
    }

    fn handle(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        event: Event,
    ) {
        match event {
            Event::MembershipChange { cluster } => {
                // Register; the transaction seals with this round's phase
                // transaction (it was submitted just before, in
                // `open_training`'s flush), so wire the registration and
                // bootstrap here. The join is visible to this round.
                let orch = fed.orchestrator;
                let tx = fed.clusters[cluster].register_tx(orch);
                fed.submit_tx_at(at, tx);
                bootstrap_join(fed, cluster, at);
                self.joined[cluster] = true;
                // The fault plan was sampled for all clusters over all
                // rounds with no knowledge of `joins_at`, so a pre-join
                // crash window could leak into the joiner's first rounds
                // (`is_down` spans `down_rounds`). Prune those events from
                // the engine's plan now, recording each as skipped. Clock
                // skews are kept — a standing skew applies from the join.
                if let Some(p) = self.plan.as_mut() {
                    for e in p.extract_pre_join(cluster, self.opening_round) {
                        fed.log_fault(cluster, e.round, e.kind.label(), "skipped: not yet joined");
                    }
                }
                // A standing clock skew starts afflicting the joiner now;
                // record it, as `log_initial_skews` does for founders —
                // the report must explain any skew-caused rejections.
                let skewed = self
                    .plan
                    .as_ref()
                    .is_some_and(|p| !p.clock_skew(cluster).is_zero());
                if skewed {
                    fed.log_fault(
                        cluster,
                        self.opening_round,
                        "clock_skew",
                        "clock runs behind the federation",
                    );
                }
            }
            Event::OpenTraining { round } => self.open_training(fed, queue, at, round),
            Event::TrainingDone { cluster, round } => self.training_done(fed, cluster, round),
            Event::StartScoring { round } => self.start_scoring(fed, queue, round),
            Event::ScoresDue { cluster, round } => self.scores_due(fed, cluster, round),
            Event::RoundBarrier { round } => self.round_barrier(fed, queue, round),
            Event::RegroupDue { epoch } => self.regroup_due(fed, queue, at, epoch),
            Event::ShardSealDue { epoch } => self.shard_seal_due(fed, queue, at, epoch),
            Event::ShardExchange { epoch } => self.shard_exchange(fed, queue, at, epoch),
            Event::PrefetchDue { cluster, .. } => {
                if self.joined[cluster] && self.active[cluster] {
                    let topology = self
                        .topology
                        .clone()
                        .expect("prefetch events imply a topology");
                    prefetch_into(fed, &topology, cluster);
                }
            }
            Event::FetchAhead { cluster, .. } => {
                if self.joined[cluster] && self.active[cluster] {
                    fed.fetch_ahead_into(cluster);
                }
            }
            // Sync needs no end-of-run drain: every phase boundary already
            // flushed the chain, and retransmission timing is part of the
            // pinned reference order.
            Event::SealSlot | Event::ClusterWake { .. } => {}
        }
    }
}

/// Runs the Sync engine with the [`Engine::auto`] execution engine.
///
/// `window_margin` is the operator's safety factor when sizing the phase
/// windows over the *nominal* (straggle-free) cluster times; a cluster
/// whose `straggle_factor` pushes it past the window misses the round.
///
/// # Panics
///
/// Panics if the federation was built with the wrong contract mode.
pub fn run_sync(
    fed: &mut Federation,
    workload: &WorkloadConfig,
    scorer: ScorerKind,
    window_margin: f64,
) -> EngineOutcome {
    run_sync_engine(fed, workload, scorer, window_margin, Engine::auto())
}

/// Runs the Sync engine with an explicit execution engine. Parallel and
/// sequential execution produce byte-identical outcomes at the same seed.
///
/// # Panics
///
/// Panics if the federation was built with the wrong contract mode.
pub fn run_sync_engine(
    fed: &mut Federation,
    workload: &WorkloadConfig,
    scorer: ScorerKind,
    window_margin: f64,
    engine: Engine,
) -> EngineOutcome {
    let mut policy = SyncPolicy::new(fed, workload, scorer, window_margin, engine);
    let trace = events::drain(fed, &mut policy);
    policy.finish(fed, trace)
}

// ---------------------------------------------------------------------
// Async: the no-barrier policy.
// ---------------------------------------------------------------------

pub(crate) struct AsyncPolicy {
    workload: WorkloadConfig,
    /// Execution engine for the final merge-and-evaluate pass (the wake
    /// handlers stay strictly event-ordered regardless).
    engine: Engine,
    rounds: u64,
    n: usize,
    setup_done: SimTime,
    /// Active two-tier topology; `None` (or single-shard, filtered at
    /// construction) free-runs exactly as the unsharded engine.
    topology: Option<ShardTopology>,
    /// Inter-shard seal cadence in virtual time: seal `k` fires at
    /// `setup_done + k × seal_period` (`exchange_every` nominal round
    /// lengths), independent of how far each cluster's clock has drifted —
    /// the async analogue of the sync engine's every-`exchange_every`-rounds
    /// barrier hook.
    seal_period: SimDuration,
    /// Topology-epoch cadence in virtual time: regroup `k` fires at
    /// `setup_done + k × regroup_period` (`regroup_every` nominal round
    /// lengths) — the async analogue of the sync engine's
    /// every-`regroup_every`-rounds barrier hook. Zero when regrouping is
    /// off.
    regroup_period: SimDuration,
    /// A shard seal/exchange event is in flight; holds the end-of-run
    /// `SealSlot` drain back until the cadence chain decides to stop.
    shard_pending: bool,
    /// A regroup event is in flight; holds the `SealSlot` drain back like
    /// `shard_pending` does.
    regroup_pending: bool,
    plan: Option<FaultPlan>,
    clock: Vec<SimTime>,
    rounds_done: Vec<u64>,
    tasks: Vec<VecDeque<Cid>>,
    finished_at: Vec<Option<SimTime>>,
    alive: Vec<bool>,
    joined: Vec<bool>,
    join_time: Vec<Option<SimTime>>,
    distributed: HashSet<String>,
    /// Crash events already charged to a cluster (each fires once: the
    /// in-flight attempt is lost, then the round is redone after restart).
    crashes_spent: HashSet<(usize, u64)>,
    wake: Vec<Option<EventId>>,
    pending_joins: usize,
    seal_scheduled: bool,
    end_time: SimTime,
}

impl AsyncPolicy {
    /// Builds the no-barrier policy for `fed`: asserts the contract mode
    /// and scorer compatibility, filters the shard topology, derives the
    /// virtual-time seal cadence, and skews each cluster's starting clock
    /// per the fault plan. The returned policy is inert until the kernel
    /// calls [`EventPolicy::seed`].
    ///
    /// # Panics
    ///
    /// Panics if the federation's contract is not in Async mode, or the
    /// scorer requires full-round visibility (MultiKRUM — Table 3 forbids
    /// it here).
    pub(crate) fn new(
        fed: &Federation,
        workload: &WorkloadConfig,
        scorer: ScorerKind,
        engine: Engine,
    ) -> AsyncPolicy {
        assert_eq!(
            fed.contract().mode(),
            OrchestrationMode::Async,
            "async engine needs an async-mode contract"
        );
        assert!(
            !scorer.requires_full_round(),
            "async mode does not support weight-similarity scoring (Table 3)"
        );
        let n = fed.clusters.len();
        // A single-shard topology is behaviorally flat: dropping it keeps
        // the free-running timeline event-for-event identical to the
        // unsharded engine.
        let topology = fed.shard_topology().filter(|tp| tp.is_sharded()).cloned();
        // The async cadence has no barrier to hook, so seals fire on
        // virtual time: every `exchange_every` *nominal round lengths*
        // (the slowest founder's intra-shard pull + train + publish) — the
        // same "every few rounds" rhythm the sync engine gets from its
        // barrier count.
        let nominal_round = |tp: &ShardTopology| {
            let fan_out = tp.max_shard_size() as u64 - 1;
            fed.clusters
                .iter()
                .filter(|c| c.config().joins_at.is_none())
                .map(|c| {
                    c.fetch_duration() * fan_out
                        + c.train_duration(workload.local_epochs)
                        + c.publish_duration()
                })
                .max()
                .expect("at least two founders")
        };
        let seal_period = topology
            .as_ref()
            .map(|tp| nominal_round(tp) * tp.exchange_every)
            .unwrap_or(SimDuration::ZERO);
        // The regroup cadence rides the same virtual-time rhythm, with its
        // own period.
        let regroup_period = topology
            .as_ref()
            .and_then(|tp| tp.regroup_every.map(|every| nominal_round(tp) * every))
            .unwrap_or(SimDuration::ZERO);
        let plan = fed.fault_plan().cloned();
        let join_time = join_times(fed);
        let joined: Vec<bool> = join_time.iter().map(Option::is_none).collect();
        let clock: Vec<SimTime> = (0..n)
            .map(|idx| {
                // A skewed cluster's whole timeline runs behind the
                // federation's.
                fed.setup_done
                    + plan
                        .as_ref()
                        .map_or(SimDuration::ZERO, |p| p.clock_skew(idx))
            })
            .collect();
        AsyncPolicy {
            workload: workload.clone(),
            engine,
            rounds: workload.rounds as u64,
            n,
            setup_done: fed.setup_done,
            topology,
            seal_period,
            regroup_period,
            shard_pending: false,
            regroup_pending: false,
            plan,
            clock,
            rounds_done: vec![0; n],
            tasks: vec![VecDeque::new(); n],
            finished_at: vec![None; n],
            alive: joined.clone(),
            joined,
            join_time,
            distributed: HashSet::new(),
            crashes_spent: HashSet::new(),
            wake: vec![None; n],
            pending_joins: 0,
            seal_scheduled: false,
            end_time: fed.setup_done,
        }
    }

    /// Consumes the drained policy: runs the final merge over the
    /// still-participating clusters and assembles the outcome around the
    /// fired-event `trace`.
    pub(crate) fn finish(self, fed: &mut Federation, trace: Vec<EventRecord>) -> EngineOutcome {
        let n = self.n;
        let end_time = self.end_time;
        let participating: Vec<bool> = (0..n).map(|i| self.alive[i] && self.joined[i]).collect();
        let final_global = final_merge(fed, self.rounds, &participating, self.engine);
        let final_local = (0..n).map(|i| last_local(fed, i)).collect();
        EngineOutcome {
            per_cluster_time: (0..n)
                .map(|i| self.finished_at[i].unwrap_or(end_time))
                .collect(),
            straggler_rounds: vec![0; n],
            rejected_scores: vec![0; n],
            final_global,
            final_local,
            end_time,
            events: trace,
        }
    }

    /// Deals out scorer assignments that the contract has recorded.
    fn distribute(&mut self, fed: &Federation) {
        for entry in fed.contract().entries() {
            if entry.scorers.is_empty() || self.distributed.contains(&entry.cid) {
                continue;
            }
            if let Ok(cid) = entry.cid.parse::<Cid>() {
                for scorer_addr in &entry.scorers {
                    if let Some(i) = fed
                        .clusters
                        .iter()
                        .position(|c| c.address() == *scorer_addr)
                    {
                        self.tasks[i].push_back(cid);
                    }
                }
            }
            self.distributed.insert(entry.cid.clone());
        }
    }

    /// True if the cluster still has work to pop from the queue.
    fn eligible(&self, idx: usize) -> bool {
        self.joined[idx]
            && self.alive[idx]
            && (self.rounds_done[idx] < self.rounds || !self.tasks[idx].is_empty())
    }

    /// Re-syncs the wake set with eligibility: every eligible cluster gets
    /// a `ClusterWake` at its clock, keyed by its index — so the queue's
    /// pop order is exactly the reference `min_by_key((clock, idx))`
    /// selection. Once nothing is eligible and no joins are pending, the
    /// end-of-run `SealSlot` drain is scheduled at the latest clock.
    fn ensure_wakes(&mut self, queue: &mut EventQueue<Event>) {
        let mut any = false;
        for idx in 0..self.n {
            if self.eligible(idx) {
                any = true;
                if self.wake[idx].is_none() {
                    self.wake[idx] = Some(queue.schedule_keyed(
                        self.clock[idx],
                        idx as u64,
                        Event::ClusterWake { cluster: idx },
                    ));
                }
            }
        }
        if !any
            && self.pending_joins == 0
            && !self.shard_pending
            && !self.regroup_pending
            && !self.seal_scheduled
        {
            self.seal_scheduled = true;
            self.end_time = self.clock.iter().copied().max().unwrap_or(self.setup_done);
            queue.schedule(self.end_time, Event::SealSlot);
        }
    }

    fn wake(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        t: SimTime,
        idx: usize,
    ) {
        self.wake[idx] = None;
        // A shard seal/exchange may have pushed this cluster's clock past
        // the instant the wake was scheduled at; drop the stale wake and
        // re-arm at the new clock.
        if self.clock[idx] > t {
            self.ensure_wakes(queue);
            return;
        }
        let orch = fed.orchestrator;

        fed.advance_chain_to(t);
        self.distribute(fed);

        // Chaos: the free-running timeline hits this cluster's next fault.
        // Decisions are pure reads of the plan; mutations follow once the
        // borrow is released.
        enum FaultHit {
            Leave,
            Crash { down: u64 },
        }
        let round = self.rounds_done[idx] + 1;
        let hit = match self.plan.as_ref() {
            Some(p) if p.has_left(idx, round.min(self.rounds)) => Some(FaultHit::Leave),
            Some(p)
                if round <= self.rounds
                    && p.crash_starts(idx, round)
                    && !self.crashes_spent.contains(&(idx, round)) =>
            {
                Some(FaultHit::Crash {
                    down: p.crash_down_rounds_at(idx, round),
                })
            }
            _ => None,
        };
        match hit {
            Some(FaultHit::Leave) => {
                self.alive[idx] = false;
                self.tasks[idx].clear();
                self.finished_at[idx] = Some(t);
                fed.log_fault(idx, round, "leave", "left the federation");
                self.ensure_wakes(queue);
                return;
            }
            Some(FaultHit::Crash { down }) => {
                // The in-flight round is lost and the cluster sits out this
                // crash's own window, then redoes the round — async churn
                // costs time, not rounds (Table 3's "low straggler
                // impact"). Later crash windows are charged when they fire.
                self.crashes_spent.insert((idx, round));
                let lost = fed.clusters[idx].train_duration(self.workload.local_epochs);
                self.clock[idx] = t + lost + lost * down;
                fed.log_fault(
                    idx,
                    round,
                    "crash",
                    "attempt lost; round redone after restart",
                );
                self.ensure_wakes(queue);
                return;
            }
            None => {}
        }

        if let Some(cid) = self.tasks[idx].pop_front() {
            // Scoring duty first: an idle aggregator scores as soon as the
            // assignment reaches it (Figure 6 step 4).
            let score_dur = fed.clusters[idx].score_duration();
            if let Some((w, cost)) = fed.fetch_weights_costed(idx, cid) {
                let fetch = match fed.link_model() {
                    LinkModel::Nominal => fed.clusters[idx].fetch_duration(),
                    LinkModel::Physical => cost,
                };
                let score = {
                    let _phase = crate::profile::enter(crate::profile::Phase::Score);
                    fed.clusters[idx].score_weights(&w)
                };
                let done = t + fetch + score_dur;
                fed.record_scoring_burst(fetch + score_dur);
                fed.record_ipfs_burst(fetch);
                let tx = fed.clusters[idx].score_tx(orch, &cid, score);
                fed.submit_cluster_tx_at(done, tx);
                self.clock[idx] = done;
                if fed.fetch_ahead() && !self.tasks[idx].is_empty() {
                    // More duties queued: warm their models while this
                    // score's inference runs, so the next pop's fetch
                    // lands as a cache hit. Fires at `done`, strictly
                    // before the rescheduled wake (same-time FIFO).
                    queue.schedule(
                        done,
                        Event::FetchAhead {
                            cluster: idx,
                            round,
                        },
                    );
                }
            }
            self.ensure_wakes(queue);
            return;
        }

        // Otherwise: run the next training round — the same round step as
        // the sync engine (prepare inputs, cluster-local compute, then
        // commit the chain/storage/accounting effects). The whole action
        // commits atomically at wake time: splitting decide from commit
        // would change what concurrently-waking clusters observe on-chain.
        let inputs = prepare_train(fed, idx, round);
        let workload = &self.workload;
        let mut result = {
            let (clusters, global_test) = fed.compute_view();
            compute_train(&mut clusters[idx], inputs, workload, global_test)
        };
        let publish = crate::step::commit_train_effects(fed, idx, round, &mut result);
        let finish = t + result.pull + result.train + publish;

        let cid = fed.clusters[idx].store_model(round);
        let tx = fed.clusters[idx].submit_model_tx(orch, &cid);
        fed.submit_cluster_tx_at(finish, tx);
        // Seal promptly so scorers learn their assignment.
        fed.flush_chain_at(finish);
        self.distribute(fed);

        self.rounds_done[idx] = round;
        self.clock[idx] = finish;
        fed.clusters[idx].record(ClusterRoundRecord {
            round,
            peers_merged: result.peers_merged,
            local_accuracy: result.local_accuracy,
            local_loss: result.local_loss,
            global_accuracy: result.global_accuracy,
            global_loss: result.global_loss,
            completed_at_secs: finish.as_secs_f64(),
        });
        if fed.fetch_ahead() && round < self.rounds {
            // Warm the next round's candidates at the instant this round's
            // publish lands: the event fires at `finish`, strictly before
            // the rescheduled training wake (same-time FIFO), so the next
            // pull hits a warm cache.
            queue.schedule(
                finish,
                Event::FetchAhead {
                    cluster: idx,
                    round: round + 1,
                },
            );
        }
        if round == self.rounds {
            self.finished_at[idx] = Some(finish);
        }
        self.ensure_wakes(queue);
    }

    fn membership_change(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        t: SimTime,
        idx: usize,
    ) {
        self.pending_joins -= 1;
        fed.advance_chain_to(t);
        let orch = fed.orchestrator;
        let tx = fed.clusters[idx].register_tx(orch);
        fed.submit_tx_at(t, tx);
        // Seal promptly: the joiner must be registered before its first
        // submission, and peers can assign it scoring duties from here on.
        fed.flush_chain_at(t);
        let spent = bootstrap_join(fed, idx, t);
        self.joined[idx] = true;
        self.alive[idx] = true;
        // A standing clock skew shifts the joiner's free-running timeline
        // from its join onward, exactly as founders are skewed from setup;
        // record it, as `log_initial_skews` does for them.
        let skew = self
            .plan
            .as_ref()
            .map_or(SimDuration::ZERO, |p| p.clock_skew(idx));
        if !skew.is_zero() {
            fed.log_fault(idx, 1, "clock_skew", "clock runs behind the federation");
        }
        self.clock[idx] = t + spent + skew;
        self.distribute(fed);
        self.ensure_wakes(queue);
    }

    /// The async seal: each shard's representative (lowest-indexed member
    /// still alive) seals concurrently at the cadence instant; the sealing
    /// work is charged to the representative's free-running clock, pushing
    /// its next wake back.
    fn shard_seal_due(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        t: SimTime,
        epoch: u64,
    ) {
        fed.advance_chain_to(t);
        let topology = self
            .topology
            .clone()
            .expect("shard events imply a topology");
        let mut seal_end = t;
        for shard in 0..topology.shards {
            let rep = topology
                .members(shard)
                .into_iter()
                .find(|&i| self.joined[i] && self.alive[i]);
            let Some(rep) = rep else { continue };
            let spent = seal_shard(fed, shard, epoch, rep, t);
            self.clock[rep] = self.clock[rep].max(t) + spent;
            seal_end = seal_end.max(t + spent);
        }
        fed.flush_chain_at(seal_end);
        // Gossip dissemination: prefetches fire at the exchange instant,
        // strictly before it (same-time FIFO). Seals can no longer move
        // this epoch's releases, so the prefetched set is the exchanged
        // set.
        if fed.gossip().is_some_and(|g| g.prefetch) {
            for cluster in 0..self.n {
                if self.joined[cluster]
                    && self.alive[cluster]
                    && self.finished_at[cluster].is_none()
                {
                    queue.schedule(seal_end, Event::PrefetchDue { cluster, epoch });
                }
            }
        }
        queue.schedule(seal_end, Event::ShardExchange { epoch });
        self.ensure_wakes(queue);
    }

    /// The async exchange: every cluster still working folds the other
    /// shards' sealed releases into its model, paying the fetch cost on
    /// its own clock. Re-arms the next seal on the fixed cadence while
    /// anyone still has rounds to run (or a join is pending); otherwise
    /// the cadence chain ends and the `SealSlot` drain can fire.
    fn shard_exchange(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        t: SimTime,
        epoch: u64,
    ) {
        fed.advance_chain_to(t);
        let topology = self
            .topology
            .clone()
            .expect("shard events imply a topology");
        for idx in 0..self.n {
            if !(self.joined[idx] && self.alive[idx]) || self.finished_at[idx].is_some() {
                continue;
            }
            let spent = exchange_into(fed, &topology, idx);
            self.clock[idx] = self.clock[idx].max(t) + spent;
        }
        let more = self.pending_joins > 0
            || (0..self.n)
                .any(|i| self.joined[i] && self.alive[i] && self.rounds_done[i] < self.rounds);
        if more {
            // A slow seal/exchange can overrun the cadence instant; never
            // schedule into the past.
            let next = (self.setup_done + self.seal_period * (epoch + 1)).max(t);
            queue.schedule(next, Event::ShardSealDue { epoch: epoch + 1 });
        } else {
            self.shard_pending = false;
        }
        self.ensure_wakes(queue);
    }

    /// A fired [`Event::RegroupDue`] on the virtual-time cadence: derive
    /// and install the next topology epoch over the clusters' current
    /// weights, adopt it, and re-arm the next regroup while anyone still
    /// has rounds to run (the same liveness condition the seal cadence
    /// uses); otherwise the cadence chain ends and the `SealSlot` drain
    /// can fire. Charges no cluster clock — regrouping is orchestrator
    /// bookkeeping, not silo work.
    fn regroup_due(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        t: SimTime,
        epoch: u64,
    ) {
        fed.advance_chain_to(t);
        if let Some(next) = fed.regroup_epoch(epoch, t) {
            self.topology = Some(next);
        }
        let sealed = fed.flush_chain_at(t);
        let more = self.pending_joins > 0
            || (0..self.n)
                .any(|i| self.joined[i] && self.alive[i] && self.rounds_done[i] < self.rounds);
        if more {
            let next = (self.setup_done + self.regroup_period * (epoch + 1)).max(sealed);
            queue.schedule(next, Event::RegroupDue { epoch: epoch + 1 });
        } else {
            self.regroup_pending = false;
        }
        self.ensure_wakes(queue);
    }
}

impl EventPolicy for AsyncPolicy {
    fn seed(&mut self, fed: &mut Federation, queue: &mut EventQueue<Event>) {
        log_initial_skews(fed, self.plan.as_ref(), &self.joined);
        for idx in 0..self.n {
            if let Some(jt) = self.join_time[idx] {
                self.pending_joins += 1;
                queue.schedule_keyed(jt, idx as u64, Event::MembershipChange { cluster: idx });
            }
        }
        if self.topology.is_some() {
            self.shard_pending = true;
            // Regroups are scheduled ahead of seals so that at a shared
            // cadence instant the fresh grouping shapes the seal
            // (same-time FIFO pops the regroup first).
            if self
                .topology
                .as_ref()
                .is_some_and(|tp| tp.regroup_every.is_some())
            {
                self.regroup_pending = true;
                queue.schedule(
                    self.setup_done + self.regroup_period,
                    Event::RegroupDue { epoch: 1 },
                );
            }
            queue.schedule(
                self.setup_done + self.seal_period,
                Event::ShardSealDue { epoch: 1 },
            );
        }
        self.ensure_wakes(queue);
    }

    fn handle(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        event: Event,
    ) {
        match event {
            Event::ClusterWake { cluster } => self.wake(fed, queue, at, cluster),
            Event::MembershipChange { cluster } => self.membership_change(fed, queue, at, cluster),
            Event::RegroupDue { epoch } => self.regroup_due(fed, queue, at, epoch),
            Event::ShardSealDue { epoch } => self.shard_seal_due(fed, queue, at, epoch),
            Event::ShardExchange { epoch } => self.shard_exchange(fed, queue, at, epoch),
            Event::PrefetchDue { cluster, .. } => {
                if self.joined[cluster]
                    && self.alive[cluster]
                    && self.finished_at[cluster].is_none()
                {
                    let topology = self
                        .topology
                        .clone()
                        .expect("prefetch events imply a topology");
                    prefetch_into(fed, &topology, cluster);
                }
            }
            Event::FetchAhead { cluster, .. } => {
                // Warm while training rounds remain, or while scoring
                // duties are still queued (a finished cluster keeps
                // scoring; its queue drains with warmed fetches).
                if self.joined[cluster]
                    && self.alive[cluster]
                    && (self.finished_at[cluster].is_none() || !self.tasks[cluster].is_empty())
                {
                    fed.fetch_ahead_into(cluster);
                }
            }
            // End-of-run drain: seal everything due, flushing any still-
            // pending transactions (exactly the reference's final flush).
            Event::SealSlot => {
                fed.flush_chain_at(at);
            }
            // Barrier events never arise under the no-barrier policy.
            Event::OpenTraining { .. }
            | Event::TrainingDone { .. }
            | Event::StartScoring { .. }
            | Event::ScoresDue { .. }
            | Event::RoundBarrier { .. } => {}
        }
    }
}

/// Runs the Async engine with the [`Engine::auto`] execution engine.
///
/// # Panics
///
/// Panics if the federation's contract is not in Async mode, or the scorer
/// requires full-round visibility (MultiKRUM — Table 3 forbids it here).
pub fn run_async(
    fed: &mut Federation,
    workload: &WorkloadConfig,
    scorer: ScorerKind,
) -> EngineOutcome {
    run_async_engine(fed, workload, scorer, Engine::auto())
}

/// Runs the Async engine with an explicit execution engine.
///
/// The no-barrier policy stays strictly event-ordered under either engine:
/// every `ClusterWake`'s inputs (contract candidates, scorer assignments)
/// depend on the chain state left by the previous event's commit, so
/// cross-cluster phase-A fan-out would change what each cluster observes.
/// The engine choice still matters: the final merge-and-evaluate pass fans
/// out per cluster under [`Engine::Parallel`], and each training event's
/// client fits are thread-parallel inside the cluster regardless. Results
/// are byte-identical between engines at the same seed.
///
/// # Panics
///
/// Panics if the federation's contract is not in Async mode, or the scorer
/// requires full-round visibility (MultiKRUM — Table 3 forbids it here).
pub fn run_async_engine(
    fed: &mut Federation,
    workload: &WorkloadConfig,
    scorer: ScorerKind,
    engine: Engine,
) -> EngineOutcome {
    let mut policy = AsyncPolicy::new(fed, workload, scorer, engine);
    let trace = events::drain(fed, &mut policy);
    policy.finish(fed, trace)
}

// ---------------------------------------------------------------------
// PolicyKind: the mode-erased policy the service layer drives.
// ---------------------------------------------------------------------

/// A mode-erased orchestration policy, so a resumable run
/// ([`crate::service::RunState`]) can hold either engine behind one type
/// and drive it event by event through the kernel stepper.
pub(crate) enum PolicyKind {
    /// The barrier-event policy ([`run_sync`]).
    Sync(SyncPolicy),
    /// The no-barrier policy ([`run_async`]).
    Async(AsyncPolicy),
}

impl PolicyKind {
    /// Builds the policy matching `mode` — exactly the constructor the
    /// corresponding blocking entry point (`run_sync_engine` /
    /// `run_async_engine`) uses, so stepping a `PolicyKind` is
    /// byte-identical to the blocking run.
    ///
    /// # Panics
    ///
    /// Panics under the same contract/scorer mismatches as the blocking
    /// entry points.
    pub(crate) fn new(
        fed: &Federation,
        mode: Mode,
        workload: &WorkloadConfig,
        scorer: ScorerKind,
        window_margin: f64,
        engine: Engine,
    ) -> PolicyKind {
        match mode {
            Mode::Sync => PolicyKind::Sync(SyncPolicy::new(
                fed,
                workload,
                scorer,
                window_margin,
                engine,
            )),
            Mode::Async => PolicyKind::Async(AsyncPolicy::new(fed, workload, scorer, engine)),
        }
    }

    /// Consumes the drained policy into its [`EngineOutcome`].
    pub(crate) fn finish(self, fed: &mut Federation, trace: Vec<EventRecord>) -> EngineOutcome {
        match self {
            PolicyKind::Sync(p) => p.finish(fed, trace),
            PolicyKind::Async(p) => p.finish(fed, trace),
        }
    }
}

impl EventPolicy for PolicyKind {
    fn seed(&mut self, fed: &mut Federation, queue: &mut EventQueue<Event>) {
        match self {
            PolicyKind::Sync(p) => p.seed(fed, queue),
            PolicyKind::Async(p) => p.seed(fed, queue),
        }
    }

    fn handle(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        event: Event,
    ) {
        match self {
            PolicyKind::Sync(p) => p.handle(fed, queue, at, event),
            PolicyKind::Async(p) => p.handle(fed, queue, at, event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::policy::AggregationPolicy;
    use unifyfl_data::{Partition, SyntheticConfig};
    use unifyfl_sim::DeviceProfile;
    use unifyfl_tensor::zoo::ModelSpec;

    fn tiny_workload(rounds: usize) -> WorkloadConfig {
        let mut dataset = SyntheticConfig::cifar10_like(360);
        dataset.input = unifyfl_tensor::zoo::InputKind::Flat(16);
        dataset.n_classes = 4;
        dataset.noise_scale = 0.5;
        dataset.label_noise = 0.0;
        WorkloadConfig {
            name: "tiny-test".into(),
            model: ModelSpec::mlp(16, vec![16], 4),
            dataset,
            rounds,
            local_epochs: 1,
            batch_size: 16,
            learning_rate: 0.05,
        }
    }

    fn configs(n: usize) -> Vec<ClusterConfig> {
        (0..n)
            .map(|i| {
                ClusterConfig::edge(format!("agg-{i}"), DeviceProfile::edge_cpu())
                    .with_policy(AggregationPolicy::All)
            })
            .collect()
    }

    fn build(mode: Mode, n: usize, rounds: usize) -> (Federation, WorkloadConfig) {
        let w = tiny_workload(rounds);
        let fed = Federation::new(7, &w, Partition::Iid, mode.to_chain(), configs(n));
        (fed, w)
    }

    #[test]
    fn sync_runs_all_rounds_and_learns() {
        let (mut fed, w) = build(Mode::Sync, 3, 3);
        let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15);
        assert_eq!(fed.clusters[0].records.len(), 3);
        // All clusters share the same completion time in sync mode.
        assert!(out.per_cluster_time.windows(2).all(|w| w[0] == w[1]));
        // The chain really carried the protocol.
        let entries = fed.contract().entries();
        assert_eq!(entries.len(), 9, "3 clusters × 3 rounds submitted");
        assert!(entries.iter().all(|e| !e.scorers.is_empty()));
        assert!(entries.iter().all(|e| e.scoring_closed));
        // Scores were recorded (majority of 3 = 2 scorers per model).
        assert!(entries.iter().all(|e| e.scores.len() == 2));
        fed.chain.verify().unwrap();
        // Learning happened: final global beats round-1 global.
        let first = fed.clusters[0].records[0].global_accuracy;
        let (final_acc, _) = out.final_global[0];
        assert!(final_acc > first, "{first} -> {final_acc}");
    }

    #[test]
    fn sync_event_trace_follows_the_barrier_cycle() {
        let (mut fed, w) = build(Mode::Sync, 3, 2);
        let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15);
        // Per round: OpenTraining, TrainingDone×3, StartScoring,
        // ScoresDue×3, RoundBarrier = 9 events; no async/membership events.
        assert_eq!(out.events.len(), 18);
        let labels: Vec<&str> = out.events.iter().map(|r| r.event.label()).collect();
        assert_eq!(
            &labels[..9],
            &[
                "open_training",
                "training_done",
                "training_done",
                "training_done",
                "start_scoring",
                "scores_due",
                "scores_due",
                "scores_due",
                "round_barrier",
            ]
        );
        // Barrier policy: the per-cluster commits fire at the window close,
        // in cluster-index order.
        assert_eq!(out.events[1].event.cluster(), Some(0));
        assert_eq!(out.events[2].event.cluster(), Some(1));
        assert_eq!(out.events[3].event.cluster(), Some(2));
        assert_eq!(out.events[1].at, out.events[4].at);
        // Time never goes backwards in the sync cycle.
        assert!(out.events.windows(2).all(|p| p[0].at <= p[1].at));
    }

    #[test]
    fn async_runs_all_rounds_and_scores() {
        let (mut fed, w) = build(Mode::Async, 3, 3);
        let out = run_async(&mut fed, &w, ScorerKind::Accuracy);
        for c in &fed.clusters {
            assert_eq!(c.records.len(), 3);
        }
        let entries = fed.contract().entries();
        assert_eq!(entries.len(), 9);
        // Every model eventually received at least one score.
        assert!(entries.iter().all(|e| !e.scores.is_empty()));
        assert!(out.end_time > fed.setup_done);
        fed.chain.verify().unwrap();
        // The no-barrier policy ends with the SealSlot drain.
        assert_eq!(out.events.last().unwrap().event, Event::SealSlot);
        assert!(out
            .events
            .iter()
            .all(|r| matches!(r.event, Event::ClusterWake { .. } | Event::SealSlot)));
    }

    #[test]
    fn async_is_faster_than_sync_with_heterogeneous_clusters() {
        let hetero = || {
            vec![
                ClusterConfig::edge("agg-pi", DeviceProfile::raspberry_pi_400()),
                ClusterConfig::edge("agg-jetson", DeviceProfile::jetson_nano()),
                ClusterConfig::edge("agg-docker", DeviceProfile::docker_container()),
            ]
        };
        let w = tiny_workload(3);
        let mut fed_s = Federation::new(7, &w, Partition::Iid, OrchestrationMode::Sync, hetero());
        let sync = run_sync(&mut fed_s, &w, ScorerKind::Accuracy, 1.15);
        let mut fed_a = Federation::new(7, &w, Partition::Iid, OrchestrationMode::Async, hetero());
        let async_ = run_async(&mut fed_a, &w, ScorerKind::Accuracy);
        // The fastest async cluster finishes well before the sync barrier.
        let fastest_async = async_.per_cluster_time.iter().min().unwrap();
        assert!(
            *fastest_async < sync.end_time,
            "async {fastest_async:?} vs sync {:?}",
            sync.end_time
        );
        // Async per-cluster times differ (free-running), sync's do not.
        assert!(
            async_
                .per_cluster_time
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1
        );
    }

    #[test]
    fn sync_straggler_misses_round_and_recovers() {
        let mut cfgs = configs(3);
        // The tiny test model's fetch cost dominates its training cost, so
        // the factor must be large to push past the 1.15-margin window.
        cfgs[2].straggle_factor = 50.0;
        let w = tiny_workload(4);
        let mut fed = Federation::new(7, &w, Partition::Iid, OrchestrationMode::Sync, cfgs);
        let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15);
        assert!(out.straggler_rounds[2] > 0, "slow cluster must straggle");
        assert_eq!(out.straggler_rounds[0], 0);
        assert_eq!(out.straggler_rounds[1], 0);
        // The straggler still submitted *some* models (next-round rule).
        let from_straggler = fed
            .contract()
            .entries()
            .iter()
            .filter(|e| e.submitter == fed.clusters[2].address())
            .count();
        assert!(from_straggler >= 1);
    }

    #[test]
    fn sync_straggler_model_is_accepted_only_next_round() {
        let mut cfgs = configs(3);
        cfgs[2].straggle_factor = 50.0;
        let w = tiny_workload(4);
        let mut fed = Federation::new(7, &w, Partition::Iid, OrchestrationMode::Sync, cfgs);
        let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15);
        assert!(out.straggler_rounds[2] > 0);

        let straggler = fed.clusters[2].address();
        let mut rounds_submitted: Vec<u64> = fed
            .contract()
            .entries()
            .iter()
            .filter(|e| e.submitter == straggler)
            .map(|e| e.round)
            .collect();
        rounds_submitted.sort_unstable();
        // Round 1 has no peers to pull, so even the straggler fits; from
        // round 2 on its 50× training overruns the window. The round-2
        // model is accepted only as a *round-3* submission (next-round
        // rule), and the round-4 overrun never lands at all.
        assert_eq!(rounds_submitted, vec![1, 3], "next-round acceptance");
        assert_eq!(
            rounds_submitted.len() as u64,
            w.rounds as u64 - out.straggler_rounds[2],
            "every miss costs exactly one landed submission"
        );
        // The landed round-3 entry is the *held* model: the carryover
        // branch submits without pulling or training that round.
        let r3 = fed.clusters[2]
            .records
            .iter()
            .find(|r| r.round == 3)
            .expect("round 3 recorded");
        assert_eq!(r3.peers_merged, 0, "stale model, no pull this round");
        // The engine never submits into a closed window, so every
        // submitModel transaction from the straggler succeeded on-chain.
        let mut any_tx = false;
        for b in 0..=fed.chain.height() {
            for r in fed.chain.receipts(b).unwrap_or(&[]) {
                if fed
                    .chain
                    .block(b)
                    .and_then(|blk| blk.transactions.get(r.tx_index as usize))
                    .is_some_and(|tx| tx.from == straggler)
                {
                    any_tx = true;
                    assert!(r.success, "straggler tx reverted: {:?}", r.error);
                }
            }
        }
        assert!(any_tx);
    }

    #[test]
    fn clock_skew_is_recorded_and_delays_submissions() {
        use unifyfl_sim::fault::{ChaosConfig, FaultEvent, FaultKind, FaultPlan};
        let (mut fed, w) = build(Mode::Sync, 3, 2);
        let cfg = ChaosConfig::scripted(vec![FaultEvent {
            cluster: 1,
            round: 1,
            kind: FaultKind::ClockSkew {
                skew: SimDuration::from_secs(30),
            },
        }]);
        fed.install_chaos(FaultPlan::expand(&cfg, 99, 3, 2));
        let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15);
        // The skew's application is observable in the fault log even if
        // nothing else goes wrong...
        assert!(fed
            .chaos_records()
            .iter()
            .any(|r| r.kind == "clock_skew" && r.outcome.contains("behind")));
        // ...and a 30 s offset dwarfs the tiny workload's window slack, so
        // the skewed cluster's submissions miss the training window.
        assert!(out.straggler_rounds[1] > 0, "skewed cluster must straggle");
        assert_eq!(out.straggler_rounds[0], 0);
        assert_eq!(out.straggler_rounds[2], 0);
    }

    #[test]
    fn late_score_is_rejected_by_the_contract() {
        let (mut fed, _) = build(Mode::Sync, 3, 1);
        let orch = fed.orchestrator;
        let t0 = fed.setup_done;

        // Drive one full phase cycle by hand: open training, submit one
        // model, open scoring, close scoring — then score late.
        let tx = fed.phase_tx(unifyfl_chain::orchestrator::calls::start_training());
        fed.submit_tx_at(t0, tx);
        let t1 = fed.flush_chain_at(t0);

        let cid = fed.clusters[1].store_model(1);
        let tx = fed.clusters[1].submit_model_tx(orch, &cid);
        fed.submit_tx_at(t1, tx);
        let t2 = fed.flush_chain_at(t1);

        let tx = fed.phase_tx(unifyfl_chain::orchestrator::calls::start_scoring());
        fed.submit_tx_at(t2, tx);
        let t3 = fed.flush_chain_at(t2);

        let tx = fed.phase_tx(unifyfl_chain::orchestrator::calls::end_scoring());
        fed.submit_tx_at(t3, tx);
        let t4 = fed.flush_chain_at(t3);

        // An *assigned* scorer arrives after the window closed (§3.2:
        // "the blockchain will no longer accept scores").
        let entry = fed.contract().entry(&cid.to_string()).expect("recorded");
        assert!(!entry.scorers.is_empty());
        let scorer_addr = entry.scorers[0];
        let scorer_idx = fed
            .clusters
            .iter()
            .position(|c| c.address() == scorer_addr)
            .expect("scorer is a cluster");
        let tx = fed.clusters[scorer_idx].score_tx(orch, &cid, 0.75);
        fed.submit_tx_at(t4, tx);
        fed.flush_chain_at(t4);

        // The transaction reverted and no score was recorded.
        let entry = fed.contract().entry(&cid.to_string()).unwrap();
        assert!(entry.scores.is_empty(), "late score must not be recorded");
        let head = fed.chain.height();
        let rejected = (0..=head)
            .flat_map(|b| fed.chain.receipts(b).unwrap_or(&[]).iter())
            .any(|r| {
                !r.success
                    && r.error
                        .as_deref()
                        .is_some_and(|e| e.contains("scoring window closed"))
            });
        assert!(rejected, "the revert must appear in a receipt");
    }

    #[test]
    fn sync_multikrum_scores_all_models() {
        let (mut fed, w) = build(Mode::Sync, 4, 2);
        run_sync(&mut fed, &w, ScorerKind::MultiKrum, 1.15);
        let entries = fed.contract().entries();
        assert!(!entries.is_empty());
        // Scores exist and sit in (0, 1].
        for e in entries {
            for (_, s) in &e.scores {
                let v = s.to_f64();
                assert!((0.0..=1.0).contains(&v), "score {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not support weight-similarity")]
    fn async_rejects_multikrum() {
        let (mut fed, w) = build(Mode::Async, 3, 1);
        let _ = run_async(&mut fed, &w, ScorerKind::MultiKrum);
    }

    #[test]
    fn self_only_policy_never_merges() {
        let mut cfgs = configs(3);
        for c in &mut cfgs {
            c.policy = AggregationPolicy::SelfOnly;
        }
        let w = tiny_workload(3);
        let mut fed = Federation::new(7, &w, Partition::Iid, OrchestrationMode::Sync, cfgs);
        run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15);
        for c in &fed.clusters {
            assert!(c.records.iter().all(|r| r.peers_merged == 0));
        }
    }

    #[test]
    fn collaborative_policies_do_merge() {
        let (mut fed, w) = build(Mode::Sync, 3, 3);
        run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15);
        // From round 2 on, candidates exist and the All policy merges them.
        let merged_after_round1: usize = fed
            .clusters
            .iter()
            .flat_map(|c| c.records.iter().filter(|r| r.round > 1))
            .map(|r| r.peers_merged)
            .sum();
        assert!(merged_after_round1 > 0);
    }

    // ---- two-tier sharding -------------------------------------------

    fn build_sharded(
        mode: Mode,
        n: usize,
        rounds: usize,
        shards: usize,
        k: Option<usize>,
    ) -> (Federation, WorkloadConfig) {
        use crate::sharding::ShardConfig;
        let w = tiny_workload(rounds);
        let mut cfg = ShardConfig::new(shards);
        cfg.scorers_per_release = k;
        let topology = ShardTopology::derive(&cfg, 7, n);
        let fed = Federation::new_sharded(
            7,
            &w,
            Partition::Iid,
            mode.to_chain(),
            configs(n),
            Some(topology),
        );
        (fed, w)
    }

    #[test]
    fn sync_sharded_run_seals_and_exchanges() {
        let (mut fed, w) = build_sharded(Mode::Sync, 6, 4, 2, Some(2));
        let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15);
        for c in &fed.clusters {
            assert_eq!(c.records.len(), 4);
        }
        // exchange_every = 2 over 4 rounds: the seal/exchange pair fires
        // after round 2 only (never after the final round).
        let count = |pred: fn(&Event) -> bool| out.events.iter().filter(|r| pred(&r.event)).count();
        assert_eq!(count(|e| matches!(e, Event::ShardSealDue { .. })), 1);
        assert_eq!(count(|e| matches!(e, Event::ShardExchange { .. })), 1);
        // One sealed release per shard landed on-chain.
        let releases = fed.contract().shard_releases();
        assert_eq!(releases.len(), 2);
        assert!(releases.iter().any(|r| r.shard == 0));
        assert!(releases.iter().any(|r| r.shard == 1));
        // Scorer sampling stayed intra-shard and within the k cap.
        for e in fed.contract().entries() {
            assert!(e.scorers.len() <= 2, "k = 2 cap violated");
            assert!(!e.scorers.is_empty());
            let sub_shard = fed.contract().shard_of(e.submitter);
            for s in &e.scorers {
                assert_eq!(fed.contract().shard_of(*s), sub_shard);
            }
        }
        fed.chain.verify().unwrap();
    }

    #[test]
    fn async_sharded_run_seals_on_cadence() {
        let (mut fed, w) = build_sharded(Mode::Async, 6, 3, 2, Some(2));
        let out = run_async(&mut fed, &w, ScorerKind::Accuracy);
        for c in &fed.clusters {
            assert_eq!(c.records.len(), 3);
        }
        assert!(out
            .events
            .iter()
            .any(|r| matches!(r.event, Event::ShardSealDue { .. })));
        assert!(!fed.contract().shard_releases().is_empty());
        // The cadence chain ends before the end-of-run drain.
        assert_eq!(out.events.last().unwrap().event, Event::SealSlot);
        fed.chain.verify().unwrap();
    }

    #[test]
    fn sharded_runs_are_seed_deterministic() {
        let run = || {
            let (mut fed, w) = build_sharded(Mode::Sync, 6, 4, 3, Some(1));
            let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15);
            (
                format!("{:?}", out.events),
                format!("{:?}", out.final_global),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sync_sharded_multikrum_scores_per_shard() {
        let (mut fed, w) = build_sharded(Mode::Sync, 6, 2, 2, None);
        run_sync(&mut fed, &w, ScorerKind::MultiKrum, 1.15);
        let entries = fed.contract().entries();
        assert!(!entries.is_empty());
        for e in entries {
            for (_, s) in &e.scores {
                let v = s.to_f64();
                assert!((0.0..=1.0).contains(&v), "score {v}");
            }
        }
        fed.chain.verify().unwrap();
    }

    // ---- elastic membership ------------------------------------------

    fn joiner_configs(n: usize, joins_at: SimDuration) -> Vec<ClusterConfig> {
        let mut cfgs = configs(n + 1);
        cfgs[n].name = "agg-late".into();
        cfgs[n].joins_at = Some(joins_at);
        cfgs
    }

    #[test]
    fn sync_joiner_registers_bootstraps_and_participates() {
        let w = tiny_workload(4);
        // Join mid-run: the tiny workload's rounds open at t = 5, 20, 35
        // and 50 s, so a 28 s offset (join time 33 s) lands the join on
        // round 3's phase boundary.
        let mut fed = Federation::new(
            7,
            &w,
            Partition::Iid,
            OrchestrationMode::Sync,
            joiner_configs(3, SimDuration::from_secs(28)),
        );
        let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15);
        // The join fired exactly once and was recorded.
        let joins = fed.membership_records();
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].cluster, "agg-late");
        assert_eq!(joins[0].change, "join");
        assert!(out
            .events
            .iter()
            .any(|r| r.event == Event::MembershipChange { cluster: 3 }));
        // Before the join the cluster is absent from the ledger; afterwards
        // it trains and submits like any founder.
        let late = fed.clusters[3].address();
        let late_rounds: Vec<u64> = fed
            .contract()
            .entries()
            .iter()
            .filter(|e| e.submitter == late)
            .map(|e| e.round)
            .collect();
        assert!(!late_rounds.is_empty(), "joiner must submit after joining");
        assert!(
            late_rounds.iter().all(|&r| r > 1),
            "joiner cannot have submitted in round 1: {late_rounds:?}"
        );
        // The joiner recorded fewer rounds than the founders.
        assert!(fed.clusters[3].records.len() < fed.clusters[0].records.len());
        assert!(!fed.clusters[3].records.is_empty());
        fed.chain.verify().unwrap();
    }

    #[test]
    fn async_joiner_bootstraps_and_runs_its_rounds() {
        let w = tiny_workload(3);
        let mut fed = Federation::new(
            7,
            &w,
            Partition::Iid,
            OrchestrationMode::Async,
            joiner_configs(3, SimDuration::from_secs(120)),
        );
        let out = run_async(&mut fed, &w, ScorerKind::Accuracy);
        assert_eq!(fed.membership_records().len(), 1);
        // Bootstrap seeded from at least one already-scored release (the
        // founders have been publishing for 120 virtual seconds).
        let detail = &fed.membership_records()[0].detail;
        assert!(detail.contains("bootstrapped"), "{detail}");
        assert!(!detail.contains("from 0 "), "bootstrap found no releases");
        // The joiner free-runs its full round budget after joining.
        assert_eq!(fed.clusters[3].records.len(), w.rounds);
        assert!(
            fed.clusters[3].records[0].completed_at_secs > 120.0,
            "joiner rounds start after the join"
        );
        // The join event appears in the trace before any of its wakes.
        let first_wake = out
            .events
            .iter()
            .position(|r| r.event == Event::ClusterWake { cluster: 3 })
            .expect("joiner woke");
        let join_pos = out
            .events
            .iter()
            .position(|r| r.event == Event::MembershipChange { cluster: 3 })
            .expect("join fired");
        assert!(join_pos < first_wake);
        fed.chain.verify().unwrap();
    }

    #[test]
    fn membership_runs_are_seed_deterministic() {
        let run = || {
            let w = tiny_workload(3);
            let mut fed = Federation::new(
                11,
                &w,
                Partition::Iid,
                OrchestrationMode::Async,
                joiner_configs(3, SimDuration::from_secs(90)),
            );
            let out = run_async(&mut fed, &w, ScorerKind::Accuracy);
            (
                format!("{:?}", out.events),
                format!("{:?}", out.final_global),
            )
        };
        assert_eq!(run(), run());
    }
}
