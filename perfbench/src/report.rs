//! Metric tables, order statistics and the result line.
//!
//! The names and units here must equal the `end_to_end` and `per_layer`
//! lists of the repository's `BENCHMARK.json`; a test holds them to it.

use std::time::Duration;

/// One reported metric: its name and unit.
pub type Metric = (&'static str, &'static str);

/// Printed with `--trace 0`: what a client of the server sees.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("tx_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("rss_peak_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Printed with `--trace 1`: one layer each, from the outside in.
pub const PER_LAYER: &[Metric] = &[
    ("net.cryptopool.exec_us_per_job", "us"),
    ("net.cryptopool.queue_wait_us_per_job", "us"),
    ("net.cryptopool.batch_wait_us_per_job", "us"),
    ("net.cryptopool.queue_depth_max", "count"),
    ("net.cryptopool.jobs_per_batch", "count"),
    ("net.cryptopool.busy_frac", "ratio"),
    ("net.server.resumed_frac", "ratio"),
    ("net.cache.hit_frac", "ratio"),
    ("ssl.ticket.accept_frac", "ratio"),
    ("net.server.errors", "count"),
    ("net.server.timeouts", "count"),
    ("net.server.alerts_sent", "count"),
    ("loadgen.connect_us", "us"),
    ("loadgen.client_us_per_tx", "us"),
    ("loadgen.lag_p99_ms", "ms"),
    ("ssl.handshake.kx_us", "us"),
    ("ssl.handshake.server_self_us", "us"),
    ("ssl.record.seal_us_per_16k", "us"),
    ("ssl.record.open_us_per_16k", "us"),
    ("ssl.inproc.tx_us", "us"),
    ("alloc.count_per_tx", "count"),
    ("alloc.bytes_per_tx", "bytes"),
    ("rsa.decrypt_us", "us"),
    ("rsa.sign_us", "us"),
    ("ssl.dhe.keygen_us", "us"),
    ("ssl.dhe.agree_us", "us"),
    ("bignum.sqr1024_ns", "ns"),
    ("bignum.sqr2048_ns", "ns"),
    ("ciphers.aes128_cbc_us_per_16k", "us"),
    ("hashes.hmac_sha1_us_per_16k", "us"),
    ("ssl.ticket.seal_us", "us"),
    ("ssl.ticket.open_us", "us"),
    ("budget.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the `q` percentile: how well the sample
/// supports that percentile.
pub fn beyond(sorted: &[Duration], q: f64) -> usize {
    let cut = percentile(sorted, q);
    sorted.len() - sorted.partition_point(|d| *d <= cut)
}

/// Median of unsorted samples.
pub fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    percentile(&samples, 0.5)
}

/// Median of unsorted values (the lower one of an even count).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// The result line, printed last. `values` must name exactly the `declared`
/// metrics, in order; anything else is a bug in this benchmark.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[Metric],
    values: &[(&str, f64)],
) -> String {
    let names: Vec<&str> = values.iter().map(|(name, _)| *name).collect();
    let want: Vec<&str> = declared.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, want, "reported metrics must match the declared table");
    let metrics: Vec<String> = values
        .iter()
        .zip(declared)
        .map(|((name, value), (_, unit))| {
            assert!(value.is_finite(), "{name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
