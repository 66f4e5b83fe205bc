//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Spans come from this crate only. Around each `RunState::step` the
//! benchmark records a `core.event.<label>` span and reads
//! `core::profile`'s phase counters; the counters give each phase's
//! duration inside the step but not its position, so the phase spans are
//! laid end to end from the step's start. The phase hooks do not nest, so
//! their union equals their sum. Phases map to layers as: train and score
//! → `tensor_fl` (client fit and evaluation over the tensor kernels),
//! fetch and fetch-ahead → `storage`, seal → `chain`, regroup → `core`.

use std::time::Instant;

use unifyfl_core::experiment::{ExperimentConfig, ExperimentReport, Mode};
use unifyfl_core::profile::{self, PhaseTimes};
use unifyfl_core::service::RunState;

use crate::e2e::{self, Burst};
use crate::metrics::{Metrics, EVENT_LABELS};
use crate::report::digest;
use crate::stats::median;
use crate::trace::Trace;
use crate::Problems;

/// A traced run of one or more configs, one after another.
pub struct TracedRuns {
    /// Phase attribution summed over the runs.
    pub phases: PhaseTimes,
    /// Wall seconds of the traced runs (first step to report), summed.
    pub run_s: f64,
    /// Events fired, summed.
    pub events: usize,
    /// Wall seconds spent turning drained runs into reports, summed.
    pub finish_s: f64,
    /// The reports, in config order.
    pub reports: Vec<ExperimentReport>,
}

fn phase_spans(trace: &mut Trace, parent: usize, start_ns: u64, end_ns: u64, d: &PhaseTimes) {
    let mut cursor = start_ns;
    for (name, secs) in [
        ("tensor_fl.train", d.train_secs),
        ("tensor_fl.score", d.score_secs),
        ("storage.fetch", d.fetch_secs),
        ("storage.fetch_ahead", d.overlap_secs),
        ("chain.seal", d.seal_secs),
        ("core.regroup", d.regroup_secs),
    ] {
        let len = ((secs * 1e9) as u64).min(end_ns.saturating_sub(cursor));
        if len > 0 {
            trace.record(name, cursor, cursor + len, Some(parent));
            cursor += len;
        }
    }
}

/// Builds and runs each config with a span per set-up, per fired event
/// (with its phase children) and per report build.
pub fn traced_runs(configs: &[ExperimentConfig], trace: &mut Trace) -> Result<TracedRuns, String> {
    let mut out = TracedRuns {
        phases: PhaseTimes::default(),
        run_s: 0.0,
        events: 0,
        finish_s: 0.0,
        reports: Vec::new(),
    };
    for config in configs {
        let setup = trace.open("setup.run_state_new", None);
        let state = RunState::new(config).map_err(|e| format!("{}: {e}", config.label));
        trace.close(setup);
        let mut state = state?;
        let before = profile::snapshot();
        let t_run = Instant::now();
        let run = trace.open("core.run", None);
        loop {
            let start = trace.now_ns();
            let p0 = profile::snapshot();
            let fired = state.step();
            let p1 = profile::snapshot();
            let end = trace.now_ns();
            let Some(record) = fired else { break };
            let id = trace.record(
                format!("core.event.{}", record.event.label()),
                start,
                end,
                Some(run),
            );
            phase_spans(trace, id, start, end, &p1.since(&p0));
            out.events += 1;
        }
        let start = trace.now_ns();
        let p0 = profile::snapshot();
        let report = state.run_to_completion();
        let p1 = profile::snapshot();
        let end = trace.now_ns();
        let id = trace.record("core.finish", start, end, Some(run));
        phase_spans(trace, id, start, end, &p1.since(&p0));
        trace.close(run);
        out.run_s += t_run.elapsed().as_secs_f64();
        out.finish_s += (end - start) as f64 / 1e9;
        let d = profile::snapshot().since(&before);
        out.phases = PhaseTimes {
            train_secs: out.phases.train_secs + d.train_secs,
            score_secs: out.phases.score_secs + d.score_secs,
            fetch_secs: out.phases.fetch_secs + d.fetch_secs,
            seal_secs: out.phases.seal_secs + d.seal_secs,
            regroup_secs: out.phases.regroup_secs + d.regroup_secs,
            overlap_secs: out.phases.overlap_secs + d.overlap_secs,
        };
        out.reports.push(report);
    }
    Ok(out)
}

/// Records every metric the traced runs and the trace give: phases,
/// events, self time per layer and the report's storage and chain counts,
/// with the measured tracing overhead (traced minus untraced run seconds).
pub fn record_run_metrics(
    runs: &TracedRuns,
    trace: &Trace,
    overhead_s: f64,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) {
    m.set("core.phase.train_s", runs.phases.train_secs);
    m.set("core.phase.score_s", runs.phases.score_secs);
    m.set("core.phase.fetch_s", runs.phases.fetch_secs);
    m.set("core.phase.seal_s", runs.phases.seal_secs);
    m.set("core.events_per_s", runs.events as f64 / runs.run_s);
    m.set("core.finish_s", runs.finish_s);
    for label in EVENT_LABELS {
        let (secs, count) = trace.total_by_name(&format!("core.event.{label}"));
        m.set(format!("core.event.{label}.count"), count as f64);
        m.set(format!("core.event.{label}.s"), secs);
    }
    let fired_elsewhere: Vec<&str> = trace
        .spans()
        .iter()
        .filter_map(|s| s.name.strip_prefix("core.event."))
        .filter(|l| !EVENT_LABELS.contains(l))
        .collect();
    if let Some(label) = fired_elsewhere.first() {
        notes.push(format!(
            "event label {label} fired but has no core.event metric; it counts in self.core_s"
        ));
    }

    let layers = trace.self_secs_by_layer();
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    m.set("self.core_s", layer("core"));
    m.set("self.tensor_fl_s", layer("tensor_fl"));
    m.set("self.storage_s", layer("storage"));
    m.set("self.chain_s", layer("chain"));
    m.set("self.tensor_fl_share", layer("tensor_fl") / runs.run_s);
    m.set("trace.overhead_s", overhead_s);

    let mut t = unifyfl_core::TransferReport::default();
    let (mut txs, mut blocks, mut failed_txs, mut gas) = (0u64, 0u64, 0u64, 0u64);
    for r in &runs.reports {
        let x = &r.transfer;
        t.cache_hits += x.cache_hits;
        t.cache_misses += x.cache_misses;
        t.logical_bytes += x.logical_bytes;
        t.physical_bytes += x.physical_bytes;
        t.delta_fetches += x.delta_fetches;
        t.delta_fallbacks += x.delta_fallbacks;
        t.dedup_chunks_skipped += x.dedup_chunks_skipped;
        t.route_hops += x.route_hops;
        t.relayed_bytes += x.relayed_bytes;
        txs += r.chain.txs;
        blocks += r.chain.blocks;
        failed_txs += r.chain.failed_txs;
        gas += r.chain.gas_used;
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    m.set(
        "storage.cache_hit_ratio",
        ratio(t.cache_hits, t.cache_hits + t.cache_misses),
    );
    m.set(
        "storage.physical_to_logical",
        ratio(t.physical_bytes, t.logical_bytes),
    );
    m.set(
        "storage.delta_fallback_ratio",
        ratio(t.delta_fallbacks, t.delta_fetches + t.delta_fallbacks),
    );
    m.set(
        "storage.dedup_chunks_skipped",
        t.dedup_chunks_skipped as f64,
    );
    m.set("storage.route_hops", t.route_hops as f64);
    m.set("storage.relayed_mb", t.relayed_bytes as f64 / 1e6);
    m.set("chain.txs", txs as f64);
    m.set("chain.blocks", blocks as f64);
    m.set("chain.failed_tx_ratio", ratio(failed_txs, txs));
    m.set("chain.gas", gas as f64);
}

/// Transactions per sealed block over the traced reports, at least one.
pub fn txs_per_block(runs: &TracedRuns) -> usize {
    let txs: u64 = runs.reports.iter().map(|r| r.chain.txs).sum();
    let blocks: u64 = runs.reports.iter().map(|r| r.chain.blocks).sum();
    usize::try_from(txs.div_ceil(blocks.max(1)))
        .unwrap_or(usize::MAX)
        .max(1)
}

/// A note when Async runs were traced: the Async duty path scores outside
/// any `Phase::Score` guard, so `core::profile` never attributes Async
/// scoring; `core.phase.score_s` misses it and the time lands in
/// `self.core_s`.
pub fn async_scoring_gap(configs: &[ExperimentConfig], runs: &TracedRuns) -> Option<String> {
    configs.iter().any(|c| c.mode == Mode::Async).then(|| {
        format!(
            "core.phase.score_s = {} s misses Async scoring, which core::profile does not \
             attribute to Phase::Score; it counts in self.core_s, and \
             core.scoring.accuracy_score_ms times one scoring call from outside",
            runs.phases.score_secs
        )
    })
}

/// The `service.*` metrics from one traced burst, with solo runs of a
/// sample of its configs for the queue wait.
pub fn record_service_metrics(
    configs: &[ExperimentConfig],
    workers: usize,
    samples: usize,
    trace: &mut Trace,
    m: &mut Metrics,
    problems: &mut Problems,
) -> Burst {
    let b = e2e::burst(configs, workers, false, Some(trace));
    if b.failed > 0 {
        problems.fail(format!("{} service runs failed", b.failed));
    }
    let sample = e2e::sample_indices(configs.len(), samples);
    let solos = e2e::solo_checks(configs, &sample, &b, problems);
    m.set("service.submit_us", median(&b.submit_s) * 1e6);
    m.set("service.queue_wait_p50_s", e2e::queue_wait_p50(&b, &solos));
    m.set("service.refused", b.refused as f64);
    m.set("service.generator_lateness_s", b.lateness_s);
    b
}

/// Checks that every traced report equals the untraced one.
pub fn check_same_reports(traced: &TracedRuns, untraced: &[String], problems: &mut Problems) {
    for (r, d) in traced.reports.iter().zip(untraced) {
        if digest(r) != *d {
            problems.wrong(format!(
                "traced report for {} differs from the untraced one",
                r.label
            ));
        }
    }
}
