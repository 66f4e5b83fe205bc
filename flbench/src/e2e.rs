//! End-to-end measurement (`--trace 0`): wall time per experiment for the
//! closed-loop workloads, and an open-loop burst through the service for
//! `sweep`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use unifyfl_core::experiment::{run_experiment, ExperimentConfig, ExperimentReport};
use unifyfl_core::service::{ExperimentService, RunState, ServiceConfig, ServiceError};

use crate::report::digest;
use crate::stats::{beyond, median, percentile};
use crate::trace::Trace;
use crate::workloads::SWEEP_IN_FLIGHT;
use crate::Problems;

/// Repetitions a closed-loop run always makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// `RunState::new` samples behind `setup_s` taken before each repetition,
/// by building a run and dropping it. Host speed drifts over seconds, and a
/// set-up takes milliseconds, so samples spread over the whole loop give a
/// steadier median than a batch taken at one moment.
const SETUPS_PER_REP: usize = 7;
/// Bursts a `sweep` run always makes.
const MIN_BURSTS: usize = 2;
/// Pause between two polls of the pending handles.
const POLL: Duration = Duration::from_millis(2);

/// One experiment run start to finish, timed.
pub struct Timed {
    /// `RunState::new` wall seconds.
    pub setup_s: f64,
    /// First `step` to report in hand, wall seconds.
    pub run_s: f64,
    /// The report.
    pub report: ExperimentReport,
}

/// Builds and runs `config` once, untraced.
pub fn run_once(config: &ExperimentConfig) -> Result<Timed, String> {
    let t0 = Instant::now();
    let state = RunState::new(config).map_err(|e| format!("{}: {e}", config.label))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = state.run_to_completion();
    Ok(Timed {
        setup_s,
        run_s: t1.elapsed().as_secs_f64(),
        report,
    })
}

/// Repetitions of one configuration, one after another.
pub struct ClosedLoop {
    /// Set-up samples, [`SETUPS_PER_REP`] per repetition.
    pub setups: Vec<f64>,
    /// Run samples.
    pub runs: Vec<f64>,
    /// Set-up plus run, per repetition.
    pub latencies: Vec<f64>,
    /// The first repetition's report (all are byte-identical).
    pub report: ExperimentReport,
}

/// Repeats `config` until `seconds` would be overrun by one more
/// repetition (at least [`MIN_REPS`] times), checking that every
/// repetition's report is byte-identical.
pub fn closed_loop(
    config: &ExperimentConfig,
    seconds: f64,
    problems: &mut Problems,
) -> Option<ClosedLoop> {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut latencies = Vec::new();
    let mut first: Option<(ExperimentReport, String)> = None;
    loop {
        for _ in 0..SETUPS_PER_REP {
            let t0 = Instant::now();
            // An invalid config fails again, and is reported, in `run_once`.
            let built = RunState::new(config);
            setups.push(t0.elapsed().as_secs_f64());
            drop(built);
        }
        let timed = match run_once(config) {
            Ok(t) => t,
            Err(e) => {
                problems.fail(e);
                return None;
            }
        };
        let d = digest(&timed.report);
        match &first {
            None => first = Some((timed.report, d)),
            Some((_, d0)) if *d0 != d => problems.wrong(format!(
                "repetition {} report digest {d} differs from the first {d0}",
                runs.len()
            )),
            Some(_) => {}
        }
        runs.push(timed.run_s);
        latencies.push(timed.setup_s + timed.run_s);
        let per_rep = start.elapsed().as_secs_f64() / runs.len() as f64;
        if runs.len() >= MIN_REPS && start.elapsed().as_secs_f64() + per_rep > seconds {
            break;
        }
    }
    let (report, _) = first.expect("at least one repetition");
    Some(ClosedLoop {
        setups,
        runs,
        latencies,
        report,
    })
}

/// One burst: every config submitted at once at `t0` to a fresh service.
pub struct Burst {
    /// Seconds from `t0` (when every submission was due) to the report, per
    /// completed config index.
    pub latency_s: Vec<Option<f64>>,
    /// Report digests per config index.
    pub digests: Vec<Option<String>>,
    /// Reports per config index (kept only when asked for).
    pub reports: Vec<Option<ExperimentReport>>,
    /// Submissions the service refused.
    pub refused: usize,
    /// Runs that ended other than completed.
    pub failed: usize,
    /// Seconds from `t0` to the last report.
    pub wall_s: f64,
    /// Wall seconds each `submit` call took.
    pub submit_s: Vec<f64>,
    /// Seconds from `t0` until the last submission was made: how late the
    /// generator ran behind the burst's due time.
    pub lateness_s: f64,
}

/// Submits `configs` as one open-loop burst to a service running
/// `workers` threads with [`SWEEP_IN_FLIGHT`] runs in flight, and polls
/// the handles from this thread until every run has ended. With a trace,
/// records a span per submission and per run (due time to observed end).
pub fn burst(
    configs: &[ExperimentConfig],
    workers: usize,
    keep_reports: bool,
    mut trace: Option<&mut Trace>,
) -> Burst {
    let service = ExperimentService::start(ServiceConfig {
        max_in_flight: SWEEP_IN_FLIGHT,
        queue_depth: configs.len(),
        worker_threads: workers,
        ..ServiceConfig::default()
    })
    .expect("the sweep service config is valid");
    let root = trace.as_deref_mut().map(|t| t.open("service.burst", None));
    let due_ns = trace.as_deref().map(Trace::now_ns);
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(configs.len());
    let mut submit_s = Vec::with_capacity(configs.len());
    let mut refused = 0;
    for config in configs {
        let s0 = trace.as_deref().map(Trace::now_ns);
        let t = Instant::now();
        let submitted = service.submit(config.clone());
        submit_s.push(t.elapsed().as_secs_f64());
        if let (Some(tr), Some(s0)) = (trace.as_deref_mut(), s0) {
            let end = tr.now_ns();
            tr.record("service.submit", s0, end, root);
        }
        match submitted {
            Ok(h) => handles.push(Some(h)),
            Err(ServiceError::Saturated { .. }) => {
                refused += 1;
                handles.push(None);
            }
            Err(e) => panic!("sweep config rejected: {e}"),
        }
    }
    let lateness_s = t0.elapsed().as_secs_f64();

    // Admission is FIFO and at most SWEEP_IN_FLIGHT runs step at once, so
    // the runs that can end next are the oldest pending ones: polling a
    // window of them observes every completion without a waiter thread.
    let n = configs.len();
    let mut pending: VecDeque<usize> = (0..n).filter(|&i| handles[i].is_some()).collect();
    let mut latency_s = vec![None; n];
    let mut digests = vec![None; n];
    let mut reports: Vec<Option<ExperimentReport>> = (0..n).map(|_| None).collect();
    let mut failed = 0;
    let mut wall_s = 0.0;
    while !pending.is_empty() {
        let mut ended = Vec::new();
        for (slot, &i) in pending.iter().enumerate().take(2 * SWEEP_IN_FLIGHT) {
            let handle = handles[i].as_ref().expect("pending runs were admitted");
            if let Some(outcome) = handle.try_outcome() {
                let at = t0.elapsed().as_secs_f64();
                wall_s = at;
                if let (Some(tr), Some(due)) = (trace.as_deref_mut(), due_ns) {
                    let end = tr.now_ns();
                    tr.record("service.run", due, end, root);
                }
                match outcome.report() {
                    Some(report) => {
                        latency_s[i] = Some(at);
                        digests[i] = Some(digest(report));
                        if keep_reports {
                            reports[i] = Some(report.clone());
                        }
                    }
                    None => failed += 1,
                }
                ended.push(slot);
            }
        }
        if ended.is_empty() {
            std::thread::sleep(POLL);
        }
        for slot in ended.into_iter().rev() {
            pending.remove(slot);
        }
    }
    service.shutdown();
    if let (Some(tr), Some(root)) = (trace, root) {
        tr.close(root);
    }
    Burst {
        latency_s,
        digests,
        reports,
        refused,
        failed,
        wall_s,
        submit_s,
        lateness_s,
    }
}

/// Repeated bursts of the same configs.
pub struct OpenLoop {
    /// Per burst, the p50 of latency from due time to report.
    pub p50s: Vec<f64>,
    /// Per burst, the p99 of the same. Pooling bursts instead would make
    /// the p99 the tail of the slowest burst alone.
    pub p99s: Vec<f64>,
    /// The fewest latencies any burst had beyond its p99.
    pub beyond_p99: usize,
    /// Completed experiments per second, per burst.
    pub throughputs: Vec<f64>,
    /// Solo timings of the sampled members, after every burst.
    pub solos: Vec<Solo>,
    /// The first burst (with its reports).
    pub first: Burst,
    /// Experiments submitted or run alone over all bursts.
    pub attempted: usize,
    /// Of those, the ones that failed or were refused.
    pub failed: usize,
    /// The largest generator lateness seen.
    pub max_lateness_s: f64,
}

/// Repeats [`burst`] until `seconds` would be overrun by one more (at
/// least [`MIN_BURSTS`] times), checking every burst's reports are
/// byte-identical to the first's. After each burst the `sample` members
/// run alone ([`solo_checks`]), so the solo timings span the whole run as
/// the bursts do.
pub fn open_loop(
    configs: &[ExperimentConfig],
    sample: &[usize],
    workers: usize,
    seconds: f64,
    problems: &mut Problems,
) -> OpenLoop {
    let start = Instant::now();
    let (mut p50s, mut p99s, mut beyond_p99) = (Vec::new(), Vec::new(), usize::MAX);
    let mut throughputs = Vec::new();
    let mut solos = Vec::new();
    let mut first: Option<Burst> = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut max_lateness_s: f64 = 0.0;
    loop {
        let b = burst(configs, workers, first.is_none(), None);
        solos.extend(solo_checks(configs, sample, &b, problems));
        attempted += configs.len() + sample.len();
        failed += b.failed + b.refused;
        max_lateness_s = max_lateness_s.max(b.lateness_s);
        let latencies: Vec<f64> = b.latency_s.iter().flatten().copied().collect();
        if !latencies.is_empty() {
            p50s.push(percentile(&latencies, 50.0));
            p99s.push(percentile(&latencies, 99.0));
            beyond_p99 = beyond_p99.min(beyond(&latencies, 99.0));
        }
        throughputs.push(latencies.len() as f64 / b.wall_s);
        match &first {
            None => first = Some(b),
            Some(f) => {
                if let Some(i) = (0..configs.len()).find(|&i| f.digests[i] != b.digests[i]) {
                    problems.wrong(format!(
                        "burst {} report for {} differs from the first burst's",
                        throughputs.len(),
                        configs[i].label
                    ));
                }
            }
        }
        let per_burst = start.elapsed().as_secs_f64() / throughputs.len() as f64;
        if throughputs.len() >= MIN_BURSTS && start.elapsed().as_secs_f64() + per_burst > seconds {
            break;
        }
    }
    OpenLoop {
        p50s,
        p99s,
        beyond_p99,
        throughputs,
        solos,
        first: first.expect("at least one burst"),
        attempted,
        failed,
        max_lateness_s,
    }
}

/// Solo timings of sampled sweep members, and the check that each one's
/// service report is byte-identical to a solo `run_experiment`.
pub struct Solo {
    /// Config index in the burst.
    pub index: usize,
    /// Solo `RunState::new` seconds.
    pub setup_s: f64,
    /// Solo first step to report seconds.
    pub run_s: f64,
}

/// Runs each sampled config alone, times it, and compares its report with
/// the burst's report for the same config.
pub fn solo_checks(
    configs: &[ExperimentConfig],
    sample: &[usize],
    burst: &Burst,
    problems: &mut Problems,
) -> Vec<Solo> {
    let mut out = Vec::with_capacity(sample.len());
    for &i in sample {
        let config = &configs[i];
        let solo = match run_experiment(config) {
            Ok(r) => r,
            Err(e) => {
                problems.fail(format!("{}: {e}", config.label));
                continue;
            }
        };
        if burst.digests[i].as_deref() != Some(digest(&solo).as_str()) {
            problems.wrong(format!(
                "service report for {} differs from a solo run_experiment",
                config.label
            ));
        }
        match run_once(config) {
            Ok(t) => out.push(Solo {
                index: i,
                setup_s: t.setup_s,
                run_s: t.run_s,
            }),
            Err(e) => problems.fail(e),
        }
    }
    out
}

/// `service.queue_wait_p50_s`: the median over sampled configs of burst
/// latency minus the same config's solo set-up and run.
pub fn queue_wait_p50(burst: &Burst, solos: &[Solo]) -> f64 {
    let waits: Vec<f64> = solos
        .iter()
        .filter_map(|s| burst.latency_s[s.index].map(|l| (l - s.setup_s - s.run_s).max(0.0)))
        .collect();
    if waits.is_empty() {
        0.0
    } else {
        median(&waits)
    }
}

/// `count` indices spread over a burst of `n` with an odd stride, so that
/// Sync and Async members (even and odd indices) alternate in the sample.
pub fn sample_indices(n: usize, count: usize) -> Vec<usize> {
    let count = count.clamp(1, n);
    let stride = (n / count).max(1);
    let stride = if stride.is_multiple_of(2) {
        stride - 1
    } else {
        stride
    };
    (0..count).map(|k| k * stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_alternate_parity_and_stay_in_the_burst() {
        for (n, count) in [(1200, 24), (1200, 60), (96, 16), (5, 5), (3, 10)] {
            let s = sample_indices(n, count);
            assert_eq!(s.len(), count.min(n));
            assert!(s.iter().all(|&i| i < n));
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            if s.len() > 1 {
                assert!(s.iter().any(|i| i % 2 == 1), "{n}/{count}: no odd member");
            }
        }
    }
}
