//! The benchmark's own checks: failures are counted, and the metrics it
//! prints are the ones `BENCHMARK.json` declares.

use super::*;
use loadgen::{verify, Failure};
use sslperf_ssl::Protocol;

/// A small key keeps the live tests fast; the mixes are otherwise real.
fn small_key(tag: &str) -> RsaPrivateKey {
    RsaPrivateKey::generate(512, &mut SslRng::from_seed(tag.as_bytes())).expect("keygen")
}

static FULL_SMALL: Workload = Workload {
    name: "test_full",
    protocol: Protocol::Ssl3,
    resume: Resume::Never,
    doc_size: 1024,
    offered_per_s: 100.0,
};

static ID_RESUME: Workload = Workload {
    name: "test_id_resume",
    protocol: Protocol::Ssl3,
    resume: Resume::IdCache,
    doc_size: 4096,
    offered_per_s: 100.0,
};

#[test]
fn a_flipped_body_byte_fails_verification() {
    let body = FULL_SMALL.document();
    let response = sslperf_websim::http::HttpResponse::ok(body.clone()).to_bytes();
    assert!(verify(&response, &body));
    let mut flipped = response.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 1;
    assert!(!verify(&flipped, &body));
}

#[test]
fn a_flipped_body_byte_counts_as_failed_on_the_wire() {
    let mut bench = serve(&FULL_SMALL, small_key("flip"), 1, 2).expect("serve");
    assert_eq!(bench.warm.failed(), 0, "{}", bench.warm.failures_json());
    let mut body = FULL_SMALL.document();
    body[512] ^= 0x40;
    bench.generator.expect_body(body);
    let tally = bench.generator.run(Schedule::Count(6), false);
    bench.server.shutdown();
    assert_eq!(tally.attempted, 6);
    assert_eq!(tally.failures[Failure::BadResponse as usize], 6);
    assert_eq!(tally.ok(), 0);
}

#[test]
fn a_resume_that_falls_back_to_a_full_handshake_counts_as_failed() {
    let mut bench = serve(&ID_RESUME, small_key("fallback"), 2, 2).expect("serve");
    assert_eq!(bench.warm.failed(), 0, "{}", bench.warm.failures_json());
    let resumed = bench.generator.run(Schedule::Count(4), false);
    assert_eq!(resumed.failed(), 0, "every client holds a session after warm-up");
    bench.server.config().clear_session_cache();
    let tally = bench.generator.run(Schedule::Count(4), false);
    bench.server.shutdown();
    assert_eq!(tally.failures[Failure::NotResumed as usize], 4);
    assert_eq!(tally.ok(), 0);
}

#[test]
fn arrivals_repeat_per_seed_at_the_offered_rate() {
    let window = Duration::from_secs(20);
    let a = arrivals(&FULL_SMALL, 9, window);
    assert_eq!(a, arrivals(&FULL_SMALL, 9, window));
    assert_ne!(a, arrivals(&FULL_SMALL, 10, window));
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    let expected = FULL_SMALL.offered_per_s * window.as_secs_f64();
    assert!((a.len() as f64 - expected).abs() < 0.1 * expected, "{} arrivals", a.len());
}

#[test]
fn a_late_generator_invalidates_the_open_loop() {
    let ms = Duration::from_millis;
    let mut tally = Tally {
        latency: (0..1000).map(|i| ms(4) + ms(i) / 1000).collect(),
        lag: vec![ms(0); 1000],
        ..Tally::default()
    };
    let window = Duration::from_secs(10);
    tally.wall = window + ms(30);
    let open = OpenLoop::from(&tally, window);
    assert_eq!(open.beyond_p99, 10);
    assert_eq!(open.p99, tally.latency[989]);
    assert!(open.valid());
    tally.lag[..30].fill(ms(3));
    assert!(!OpenLoop::from(&tally, window).valid(), "lag p99 above half the latency p99");
    tally.lag.fill(ms(0));
    tally.wall = window + window / 10;
    assert!(!OpenLoop::from(&tally, window).valid(), "a backlog drained after the window");
    tally.wall = window;
    tally.latency.truncate(500);
    assert!(!OpenLoop::from(&tally, window).valid(), "too few samples beyond p99");
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads: Vec<(&str, &str)> = workload::WORKLOADS.iter().map(|w| (w.name, "")).collect();
    assert_eq!(declared(&text, "workloads", "\"end_to_end\""), workloads);
    assert_eq!(declared(&text, "end_to_end", "\"per_layer\""), END_TO_END);
    assert_eq!(declared(&text, "per_layer", "]"), PER_LAYER);

    // `result_line` asserts that a run's values name exactly the table.
    let host = Host::read();
    let workload = Workload::find("ssl3_resume_small").expect("declared workload");
    for trace in [false, true] {
        let args = Args { workload, seed: 3, seconds: 1.0, trace };
        let outcome =
            if trace { traced(&args, &host) } else { plain(&args, &host, Instant::now()) }
                .expect("run");
        let table = if trace { PER_LAYER } else { END_TO_END };
        result_line(true, 1, 0, table, &outcome.values);
        assert_eq!(outcome.totals.failed(), 0, "{}", outcome.totals.failures_json());
    }
}

/// The `"name"` and `"unit"` of each entry of one list of `BENCHMARK.json`,
/// in order: the text from the list's key up to `until`, split at each `{`.
fn declared<'a>(text: &'a str, key: &str, until: &str) -> Vec<(&'a str, &'a str)> {
    let start = text.find(&format!("\"{key}\": [")).expect(key);
    let end = start + text[start..].find(until).expect(until);
    let field = |entry: &'a str, name: &str| {
        let tag = format!("\"{name}\": \"");
        entry.find(&tag).map_or("", |at| entry[at + tag.len()..].split('"').next().unwrap_or(""))
    };
    text[start..end].split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}
