//! Metric names, summary statistics and the result line.

/// The end-to-end metrics every workload reports from its untraced run:
/// `(name, unit)`. Their per-workload meaning is in `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports: `(name, unit)`. A
/// layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("engine.self_ns_per_event", "ns"),
    ("queue.peak_len", "count"),
    ("admission.bytes", "bytes"),
    ("defense.good_join.calls", "count"),
    ("defense.good_join.ns", "ns"),
    ("defense.good_depart.calls", "count"),
    ("defense.good_depart.ns", "ns"),
    ("defense.bad_join_batch.calls", "count"),
    ("defense.bad_join_batch.ns", "ns"),
    ("defense.bad_join_batch.admitted_per_call", "ratio"),
    ("defense.purge.calls", "count"),
    ("defense.purge.ns", "ns"),
    ("defense.periodic_apply.calls", "count"),
    ("defense.periodic_apply.ns", "ns"),
    ("defense.quote.calls", "count"),
    ("defense.quote.ns", "ns"),
    ("adversary.act.calls", "count"),
    ("adversary.act.ns", "ns"),
    ("adversary.retention.ns", "ns"),
    ("workload.next_session.ns", "ns"),
    ("workload.next_initial.ns", "ns"),
    ("workload_io.decode_mb_per_s", "MB/s"),
    ("workload.stream_bytes", "bytes"),
    ("churn.generate_s", "s"),
    ("workload_io.write_s", "s"),
    ("cache.warm_s", "s"),
    ("pool.idle_frac", "ratio"),
    ("pool.job_imbalance", "ratio"),
    ("pool.busy_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("shard.next_event.wait_ns", "ns"),
    ("shard.speedup", "ratio"),
    ("shard.wall_s1_s", "s"),
    ("shard.wall_sn_s", "s"),
    ("gate.connect.calls", "count"),
    ("gate.connect.p50_ns", "ns"),
    ("gate.connect.p99_ns", "ns"),
    ("gate.join.calls", "count"),
    ("gate.join.p50_ns", "ns"),
    ("gate.join.p99_ns", "ns"),
    ("gate.mine_submit.calls", "count"),
    ("gate.mine_submit.p50_ns", "ns"),
    ("gate.mine_submit.p99_ns", "ns"),
    ("gate.depart.calls", "count"),
    ("gate.depart.p50_ns", "ns"),
    ("gate.depart.p99_ns", "ns"),
    ("gate.join.drop_frac", "ratio"),
    ("gate.difficulty_mean", "hashes"),
    ("crypto.pow_verifications", "per_admit"),
    ("memhard.verifications", "per_admit"),
    ("wire.ns_per_frame", "ns"),
    ("client.self_s", "s"),
    ("client.pow_work", "hashes"),
    ("client.mine_attempts", "count"),
    ("transport.connect_us", "us"),
    ("transport.overhead_us", "us"),
    ("transport.conns_peak", "count"),
    ("transport.errors", "count"),
    ("gen.lateness_p99_us", "us"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("engine.events", "count"),
];

/// One measured value with the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: u64,
}

/// What one workload run measured and whether its outputs checked out.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Measured metrics.
    pub metrics: Vec<Metric>,
    /// Operations attempted (cells, replays, decisions or sessions).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed, with what was seen.
    pub check_failures: Vec<String>,
    /// The traced run's spans and call-site aggregates, as TSV rows.
    pub trace_rows: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, samples });
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Prints each metric of `names` with its unit and sample count, then
    /// the failed checks, then (last) the one-line JSON result. Metrics
    /// of `names` that were not measured print as 0: an unexercised layer.
    /// A metric that is NaN or infinite is an error: the JSON line is not
    /// printed and the error names the metrics.
    pub fn print(
        &self,
        workload: &str,
        names: &[(&'static str, &'static str)],
    ) -> Result<(), String> {
        let mut json = Vec::new();
        let mut non_finite = Vec::new();
        for &(name, unit) in names {
            let (value, samples) = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or((0.0, 0), |m| (m.value, m.samples));
            println!("{workload} {name} = {value} {unit} (n={samples})");
            if !value.is_finite() {
                non_finite.push(name);
            }
            json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        for m in self.metrics.iter().filter(|m| !names.iter().any(|(n, _)| *n == m.name)) {
            println!("{workload} {} = {} (n={}, not gated)", m.name, m.value, m.samples);
        }
        for failure in &self.check_failures {
            println!("{workload} CHECK FAILED: {failure}");
        }
        if !non_finite.is_empty() {
            return Err(format!("{workload}: not a finite number: {}", non_finite.join(", ")));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        Ok(())
    }
}

/// The `q` quantile (nearest rank) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
