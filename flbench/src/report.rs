//! What the benchmark reads off an `ExperimentReport`, and of the process.

use unifyfl_chain::hash::sha256;
use unifyfl_core::baseline::BaselineRun;
use unifyfl_core::experiment::ExperimentReport;

/// SHA-256 of the report's `Debug` form: equal digests mean byte-identical
/// reports.
pub fn digest(report: &ExperimentReport) -> String {
    sha256(format!("{report:?}").as_bytes()).to_hex()
}

/// Federation-mean final global accuracy, in percent.
pub fn final_accuracy_pct(report: &ExperimentReport) -> f64 {
    let aggs = &report.aggregators;
    aggs.iter().map(|a| a.global_accuracy_pct).sum::<f64>() / aggs.len().max(1) as f64
}

/// The federation-mean accuracy curve: per round, the latest aggregator's
/// virtual time and the mean global accuracy (%).
pub fn mean_curve(report: &ExperimentReport) -> Vec<(f64, f64)> {
    let aggs = &report.aggregators;
    let rounds = aggs.iter().map(|a| a.curve.len()).min().unwrap_or(0);
    (0..rounds)
        .map(|r| {
            let t = aggs
                .iter()
                .map(|a| a.curve[r].time_secs)
                .fold(0.0, f64::max);
            let acc = aggs
                .iter()
                .map(|a| a.curve[r].global_accuracy_pct)
                .sum::<f64>()
                / aggs.len() as f64;
            (t, acc)
        })
        .collect()
}

/// The HBFL baseline's accuracy curve, in the same shape as [`mean_curve`].
pub fn hbfl_curve(run: &BaselineRun) -> Vec<(f64, f64)> {
    run.clusters
        .first()
        .map(|c| {
            c.records
                .iter()
                .map(|r| (r.completed_at_secs, r.global_accuracy * 100.0))
                .collect()
        })
        .unwrap_or_default()
}

/// Virtual time at which `curve` first reaches `target` (%), interpolated
/// linearly inside the round that crosses it. The curve starts from chance
/// accuracy (`start_pct`) at `t = 0`. `None` if the target is never reached.
pub fn time_to_target(curve: &[(f64, f64)], start_pct: f64, target: f64) -> Option<f64> {
    let mut prev = (0.0, start_pct);
    if prev.1 >= target {
        return Some(0.0);
    }
    for &(t, acc) in curve {
        if acc >= target {
            let frac = (target - prev.1) / (acc - prev.1);
            return Some(prev.0 + frac * (t - prev.0));
        }
        prev = (t, acc);
    }
    None
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_to_target_interpolates_inside_the_crossing_round() {
        let curve = [(10.0, 20.0), (20.0, 40.0), (30.0, 60.0)];
        assert_eq!(time_to_target(&curve, 10.0, 50.0), Some(25.0));
        assert_eq!(time_to_target(&curve, 10.0, 15.0), Some(5.0));
        assert_eq!(time_to_target(&curve, 10.0, 60.0), Some(30.0));
        assert_eq!(time_to_target(&curve, 10.0, 61.0), None);
        // A dip below the target after crossing does not move the answer.
        let dip = [(10.0, 55.0), (20.0, 45.0), (30.0, 70.0)];
        assert_eq!(time_to_target(&dip, 25.0, 50.0), Some(25.0 / 30.0 * 10.0));
    }
}
