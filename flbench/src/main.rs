//! `flbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path flbench/Cargo.toml -- \
//!     --workload <cnn-sync|fleet-async|sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics for about
//! `--seconds`; with `--trace 1` it alternates traced and untraced passes,
//! runs the layer microbenchmarks and reports the per-layer metrics (it does
//! not read `--seconds`). Either way it checks
//! the program's outputs, prints one line per metric, and ends with a JSON
//! result line. It exits 1 if any check fails and 2 on a bad command line.
//! See `README.md` beside this file for the workloads and the metrics.

mod e2e;
mod metrics;
mod micro;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

use unifyfl_chain::hash::sha256;
use unifyfl_core::baseline::run_hbfl;
use unifyfl_core::experiment::{Engine, ExperimentConfig, ExperimentReport};

use crate::metrics::Metrics;
use crate::stats::{mean, median, percentile};
use crate::trace::Trace;
use crate::workloads::Workload;

/// The seed used when `--seed` is not given; the reports at this seed are
/// pinned below.
const DEFAULT_SEED: u64 = 42;

/// Report digests at [`DEFAULT_SEED`]: for the closed-loop workloads the
/// digest of the report, for `sweep` the digest of the burst's report
/// digests in submission order. A change that alters any report changes
/// these.
const PINNED: &[(&str, &str)] = &[
    (
        "cnn-sync",
        "db69aeecd13b0642b3bcf24538746f47642e9f1cc94f1c13389988d647a12831",
    ),
    (
        "fleet-async",
        "d5525c4d266ac1af41ec8f83cc5f090df30d8ba7a04b2ab10dccf8ec0d1786bb",
    ),
    (
        "sweep",
        "b730776b0531f92afca1da6c9e285125c1786d70f88aec3fc1de9d55fe3cf2ca",
    ),
];

/// Sweep members run alone after each burst, to compare reports and to
/// time set-up and run without the service.
const SWEEP_SOLO_SAMPLES: usize = 40;
/// Sweep members traced one by one in the traced run.
const SWEEP_TRACE_SAMPLES: usize = 24;
/// Burst size for the service metrics of the workloads that do not run a
/// service themselves.
const SERVICE_PROBE_BURST: usize = 96;
/// Solo samples for that probe's queue wait.
const SERVICE_PROBE_SAMPLES: usize = 16;
/// Untraced and traced passes over the traced configs, for the tracing
/// overhead.
const TRACE_PASSES: usize = 2;
/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".flbench";

/// Failed operations and correctness problems met during a run.
#[derive(Debug, Default)]
pub struct Problems {
    failed: usize,
    incorrect: bool,
    messages: Vec<String>,
}

impl Problems {
    /// An operation that should have succeeded did not.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        self.messages.push(message.into());
    }

    /// An output differs from what it must be.
    pub fn wrong(&mut self, message: impl Into<String>) {
        self.incorrect = true;
        self.messages.push(message.into());
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Hardware threads, the ceiling on service workers.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Service worker threads: one per hardware thread, never more.
fn service_workers(nproc: usize) -> usize {
    let workers = nproc;
    assert!(
        workers <= nproc,
        "refusing to start {workers} service workers on {nproc} hardware threads"
    );
    workers
}

fn check_pinned(workload: Workload, seed: u64, digest: &str, problems: &mut Problems) {
    if seed != DEFAULT_SEED {
        return;
    }
    let pinned = PINNED
        .iter()
        .find(|(w, _)| *w == workload.name())
        .map(|(_, d)| *d)
        .expect("every workload has a pinned digest");
    if pinned != digest {
        problems.wrong(format!(
            "{} report digest {digest} differs from the pinned {pinned}",
            workload.name()
        ));
    }
}

/// What a run gathers for its output.
#[derive(Default)]
struct Run {
    metrics: Metrics,
    problems: Problems,
    attempted: usize,
    notes: Vec<String>,
}

fn rss(run: &mut Run) {
    match report::peak_rss_mb() {
        Some(mb) => run.metrics.set("peak_rss_mb", mb),
        None => run
            .problems
            .fail("cannot read VmHWM from /proc/self/status"),
    }
}

fn closed_loop_e2e(workload: Workload, config: &ExperimentConfig, args: &Args, run: &mut Run) {
    let Some(cl) = e2e::closed_loop(config, args.seconds, &mut run.problems) else {
        return;
    };
    rss(run);
    run.attempted += cl.runs.len();
    let m = &mut run.metrics;
    m.set("setup_s", median(&cl.setups));
    m.set("run_wall_s", median(&cl.runs));
    // One experiment at a time: the rate is the inverse of the median
    // latency, which a single slow repetition does not move.
    let p50 = median(&cl.latencies);
    m.set("experiments_per_s", 1.0 / p50);
    m.set("run_latency_p50_s", p50);
    m.set("run_latency_p99_s", percentile(&cl.latencies, 99.0));
    m.set("final_accuracy_pct", report::final_accuracy_pct(&cl.report));
    m.set("wire_mb", cl.report.transfer.physical_bytes as f64 / 1e6);
    run.notes.push(format!(
        "{} repetitions, {} set-ups; p99 over {} latencies is their maximum; run walls {:?} s",
        cl.runs.len(),
        cl.setups.len(),
        cl.latencies.len(),
        cl.runs
    ));

    run.notes.push(format!(
        "virtual_end_vs = {} vs (not gated: the same for every seed on some workloads)",
        cl.report.wall_secs
    ));
    run.notes
        .push(time_to_target_note(workload, config, &cl.report));
    let d = report::digest(&cl.report);
    run.notes.push(format!("report digest {d}"));
    check_pinned(workload, args.seed, &d, &mut run.problems);
}

/// `time_to_target_vs` of one report, as a printed line (it is not a gated
/// metric: on `fleet-async` it varies with the seed more than any bound
/// allows).
fn time_to_target_note(
    workload: Workload,
    config: &ExperimentConfig,
    r: &ExperimentReport,
) -> String {
    let chance = 100.0 / config.workload.dataset.n_classes as f64;
    let target = workload.accuracy_target_pct();
    match report::time_to_target(&report::mean_curve(r), chance, target) {
        Some(t) => format!("time_to_target_vs = {t} vs (mean global accuracy reaches {target} %)"),
        None => format!("time_to_target_vs: mean global accuracy never reaches {target} %"),
    }
}

/// The HBFL reference row: ideal centralized multilevel FL on the same
/// task, seed and partition, beside UnifyFL's result. Not gated.
fn hbfl_reference(config: &ExperimentConfig, unifyfl: &ExperimentReport) -> String {
    let hbfl = run_hbfl(
        config.seed,
        &config.workload,
        config.partition,
        config.clusters.clone(),
        config.window_margin,
    );
    let chance = 100.0 / config.workload.dataset.n_classes as f64;
    let target = Workload::CnnSync.accuracy_target_pct();
    let show = |t: Option<f64>| t.map_or("never".to_owned(), |t| format!("{t} vs"));
    format!(
        "reference (not gated): HBFL final_accuracy_pct = {} %, time_to_target_vs = {}, \
         virtual_end_vs = {} vs | UnifyFL final_accuracy_pct = {} %, time_to_target_vs = {}, \
         virtual_end_vs = {} vs",
        hbfl.outcome.global.0 * 100.0,
        show(report::time_to_target(
            &report::hbfl_curve(&hbfl),
            chance,
            target
        )),
        hbfl.outcome.end_time.as_secs_f64(),
        report::final_accuracy_pct(unifyfl),
        show(report::time_to_target(
            &report::mean_curve(unifyfl),
            chance,
            target
        )),
        unifyfl.wall_secs,
    )
}

fn sweep_e2e(args: &Args, workers: usize, run: &mut Run) {
    let configs = workloads::sweep(args.seed);
    let sample = e2e::sample_indices(configs.len(), SWEEP_SOLO_SAMPLES);
    let ol = e2e::open_loop(&configs, &sample, workers, args.seconds, &mut run.problems);
    rss(run);
    run.attempted += ol.attempted;
    run.problems.failed += ol.failed;
    let reports: Vec<_> = ol.first.reports.iter().flatten().collect();
    if ol.solos.is_empty() || reports.is_empty() || ol.p99s.is_empty() {
        return;
    }
    let m = &mut run.metrics;
    m.set(
        "setup_s",
        median(&ol.solos.iter().map(|s| s.setup_s).collect::<Vec<_>>()),
    );
    m.set(
        "run_wall_s",
        median(&ol.solos.iter().map(|s| s.run_s).collect::<Vec<_>>()),
    );
    m.set("experiments_per_s", median(&ol.throughputs));
    m.set("run_latency_p50_s", median(&ol.p50s));
    m.set("run_latency_p99_s", median(&ol.p99s));
    let accs: Vec<f64> = reports
        .iter()
        .map(|r| report::final_accuracy_pct(r))
        .collect();
    m.set("final_accuracy_pct", mean(&accs));
    let wire: u64 = reports.iter().map(|r| r.transfer.physical_bytes).sum();
    m.set("wire_mb", wire as f64 / 1e6);

    let target = Workload::Sweep.accuracy_target_pct();
    let reached: Vec<f64> = ol
        .first
        .reports
        .iter()
        .zip(&configs)
        .filter_map(|(r, c)| {
            let chance = 100.0 / c.workload.dataset.n_classes as f64;
            report::time_to_target(&report::mean_curve(r.as_ref()?), chance, target)
        })
        .collect();
    run.notes.push(format!(
        "{} bursts of {} experiments ({} in flight, {} service workers), at least {} \
         latencies beyond each burst's p99; generator lateness up to {} s; experiments/s per \
         burst {:?}; p99 per burst {:?} s",
        ol.throughputs.len(),
        configs.len(),
        workloads::SWEEP_IN_FLIGHT,
        workers,
        ol.beyond_p99,
        ol.max_lateness_s,
        ol.throughputs,
        ol.p99s,
    ));
    let ends: Vec<f64> = reports.iter().map(|r| r.wall_secs).collect();
    run.notes.push(format!(
        "virtual_end_vs = {} vs, mean over the burst (not gated: the same for every seed)",
        mean(&ends)
    ));
    if !reached.is_empty() {
        run.notes.push(format!(
            "time_to_target_vs = {} vs (mean over the {} of {} runs that reach {target} %)",
            mean(&reached),
            reached.len(),
            reports.len()
        ));
    }
    let joined: String = ol
        .first
        .digests
        .iter()
        .flatten()
        .map(String::as_str)
        .collect();
    let d = sha256(joined.as_bytes()).to_hex();
    run.notes.push(format!("burst digest {d}"));
    check_pinned(Workload::Sweep, args.seed, &d, &mut run.problems);
}

fn traced(args: &Args, workers: usize, run: &mut Run) {
    let mut trace = Trace::new();
    let cnn = workloads::cnn_sync(args.seed);
    let fleet = workloads::fleet_async(args.seed);
    let sweep = workloads::sweep(args.seed);
    let configs: Vec<ExperimentConfig> = match args.workload {
        Workload::CnnSync => vec![cnn.clone()],
        Workload::FleetAsync => vec![fleet.clone()],
        Workload::Sweep => e2e::sample_indices(sweep.len(), SWEEP_TRACE_SAMPLES)
            .into_iter()
            .map(|i| sweep[i].clone())
            .collect(),
    };

    // Untraced and traced passes alternate, so drift in machine speed does
    // not land on one side of the tracing overhead. The first traced pass's
    // spans are the ones kept and reported.
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut digests = Vec::new();
    let mut kept = None;
    for pass in 0..TRACE_PASSES {
        let mut wall = 0.0;
        for config in &configs {
            match e2e::run_once(config) {
                Ok(t) => {
                    wall += t.run_s;
                    if pass == 0 {
                        digests.push(report::digest(&t.report));
                    }
                }
                Err(e) => {
                    run.problems.fail(e);
                    return;
                }
            }
        }
        untraced_s.push(wall);
        let mut discarded = Trace::new();
        let into = if pass == 0 {
            &mut trace
        } else {
            &mut discarded
        };
        match traced::traced_runs(&configs, into) {
            Ok(r) => {
                traced::check_same_reports(&r, &digests, &mut run.problems);
                traced_s.push(r.run_s);
                kept.get_or_insert(r);
            }
            Err(e) => {
                run.problems.fail(e);
                return;
            }
        }
    }
    run.attempted += 2 * TRACE_PASSES * configs.len();
    let runs = kept.expect("at least one traced pass");
    let overhead_s = median(&traced_s) - median(&untraced_s);
    traced::record_run_metrics(&runs, &trace, overhead_s, &mut run.metrics, &mut run.notes);
    run.notes.extend(traced::async_scoring_gap(&configs, &runs));
    if args.workload == Workload::CnnSync {
        run.notes.push(hbfl_reference(&cnn, &runs.reports[0]));
    }

    let (burst, samples) = match args.workload {
        Workload::Sweep => (&sweep[..], SWEEP_SOLO_SAMPLES),
        _ => (&sweep[..SERVICE_PROBE_BURST], SERVICE_PROBE_SAMPLES),
    };
    let b = traced::record_service_metrics(
        burst,
        workers,
        samples,
        &mut trace,
        &mut run.metrics,
        &mut run.problems,
    );
    run.attempted += burst.len() + samples;
    run.problems.failed += b.refused;

    micro::cnn_layers(&cnn, &mut run.metrics);
    micro::fleet_layers(&fleet, &mut run.metrics);
    micro::chain_layers(traced::txs_per_block(&runs), &mut run.metrics);
    micro::scoring_layer(&configs[0], &mut run.metrics);

    let m = &run.metrics;
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    run.notes.push(format!(
        "self time over {} s of traced runs: core {} s, tensor_fl {} s, storage {} s, chain {} s; \
         tracing overhead {} s: traced {traced_s:?} s against untraced {untraced_s:?} s",
        runs.run_s,
        get("self.core_s"),
        get("self.tensor_fl_s"),
        get("self.storage_s"),
        get("self.chain_s"),
        get("trace.overhead_s"),
    ));
    let path = format!(
        "{TRACE_DIR}/trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    let written =
        std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, trace.to_json()));
    match written {
        Ok(()) => run
            .notes
            .push(format!("{} spans written to {path}", trace.spans().len())),
        Err(e) => run.problems.fail(format!("cannot write {path}: {e}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flbench: {e}");
            eprintln!(
                "usage: flbench --workload <cnn-sync|fleet-async|sweep> [--seed N] \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = nproc();
    let workers = service_workers(nproc);
    println!(
        "flbench workload={} seed={} seconds={} trace={} nproc={nproc} engine={:?} \
         service_workers={workers}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        Engine::Sequential,
    );

    let mut run = Run::default();
    let catalogue = if args.trace {
        traced(&args, workers, &mut run);
        metrics::per_layer()
    } else {
        match args.workload {
            Workload::CnnSync => closed_loop_e2e(
                args.workload,
                &workloads::cnn_sync(args.seed),
                &args,
                &mut run,
            ),
            Workload::FleetAsync => closed_loop_e2e(
                args.workload,
                &workloads::fleet_async(args.seed),
                &args,
                &mut run,
            ),
            Workload::Sweep => sweep_e2e(&args, workers, &mut run),
        }
        metrics::end_to_end()
    };

    let attempted = run.attempted.max(1);
    let failed = run.problems.failed;
    println!(
        "  failed_share = {} ratio ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    for note in &run.notes {
        println!("  note: {note}");
    }
    for message in &run.problems.messages {
        println!("  problem: {message}");
    }
    let rendered = run.metrics.render(&catalogue);
    let metrics_json = match &rendered {
        Ok(json) => {
            for (name, unit) in &catalogue {
                let value = run.metrics.get(name).expect("render checked every name");
                println!("  {name} = {} {unit}", metrics::json_number(value));
            }
            json.clone()
        }
        Err(e) => {
            println!("  problem: {e}");
            "{}".to_owned()
        }
    };
    let correct = !run.problems.incorrect && failed == 0 && rendered.is_ok();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
