//! Operation accounting, metric collection and the run context printed with
//! every run (so an outlier can be explained rather than guessed at).

use crate::stats::{median, percentile, quartiles, tail_percentile, Metric, Outcome};
use crate::trace::Tracer;
use std::path::Path;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Recorded values by metric name; units live in the metric tables.
    pub metrics: Vec<(String, f64)>,
    pub context: Vec<(&'static str, String)>,
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Count one attempted operation; a failed one records why.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let why = why();
            eprintln!("FAILED: {why}");
            self.failures.push(why);
        }
    }

    /// Record a metric; a value that could not be measured is NaN, which
    /// makes the run incorrect.
    pub fn metric(&mut self, name: &str, value: Option<f64>) {
        self.metrics
            .push((name.to_owned(), value.unwrap_or(f64::NAN)));
    }

    pub fn context(&mut self, key: &'static str, value: String) {
        self.context.push((key, value));
    }

    /// Record the worker and query-client thread counts a workload runs.
    pub fn threads(&mut self, workers: usize, clients: usize) {
        self.context("workers", workers.to_string());
        self.context("clients", clients.to_string());
        self.metric("run.workers", Some(workers as f64));
        self.metric("run.clients", Some(clients as f64));
    }

    /// Record the spread of a metric's samples within this run (quartile
    /// distance over the median) and the highest percentile of them that
    /// has ten samples beyond it.
    pub fn sample_context(&mut self, key: &'static str, samples: &[f64]) {
        let n = samples.len();
        let spread = match (quartiles(samples), median(samples)) {
            (Some((q1, q3)), Some(m)) if m != 0.0 => format!("{:.3}", (q3 - q1) / m),
            _ => "n/a".into(),
        };
        let tail = match tail_percentile(n) {
            Some(p) => format!("p{p} = {:.4}", percentile(samples, p).unwrap_or(f64::NAN)),
            None => "none".into(),
        };
        self.context(
            key,
            format!("{n} samples, iqr/median {spread}, tail {tail}"),
        );
    }

    /// Count `attempted` operations of which those listed in `failures`
    /// failed.
    pub fn ops(&mut self, attempted: usize, failures: &[String]) {
        for i in 0..attempted.max(failures.len()) {
            self.op(i >= failures.len(), || failures[i].clone());
        }
    }

    /// The result line's content, with the metrics in `order`; a metric the
    /// workload did not record reads `missing`.
    pub fn outcome(&self, order: &[(&str, &'static str)], missing: f64) -> Outcome {
        let metrics = order
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_owned(),
                value: self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(missing, |&(_, v)| v),
                unit,
            })
            .collect();
        Outcome {
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// Aggregate `cpu` line of `/proc/stat`: (steal ticks, total ticks).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// CPU seconds (user + system, every thread so far) of this process, from
/// `/proc/self/stat` in USER_HZ = 100 ticks.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The source revision, read from a `.git` directory in the working
/// directory when there is one (a plain source checkout has none).
pub fn git_revision() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let git = Path::new(".git");
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r)).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_a_ratio_of_deltas() {
        assert_eq!(steal_share(Some((10, 1000)), Some((20, 1100))), Some(0.1));
        assert_eq!(steal_share(Some((10, 1000)), Some((10, 1000))), None);
        assert_eq!(steal_share(None, Some((1, 2))), None);
    }

    #[test]
    fn unexercised_metrics_read_zero_and_failures_count() {
        let mut r = Report::default();
        r.metric("a", Some(2.0));
        r.op(true, String::new);
        r.op(false, || "boom".into());
        r.ops(3, &["bad reply".into()]);
        let o = r.outcome(&[("a", "s"), ("b", "count")], 0.0);
        assert_eq!((o.attempted, o.failed), (5, 2));
        assert_eq!(o.metrics[0].value, 2.0);
        assert_eq!((o.metrics[0].unit, o.metrics[1].value), ("s", 0.0));
    }
}
