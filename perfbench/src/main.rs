//! Serving benchmark: starts an event-loop server in this process, drives
//! it over loopback with a seeded single-thread load generator, checks
//! every response, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`) as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ssl3_rsa_full --seed 1 --seconds 30 --trace 0
//! ```
//!
//! See `README.md` next to this package for the workloads and metrics.

mod alloc;
mod host;
mod layers;
mod loadgen;
mod report;
mod workload;

use host::Host;
use loadgen::{poisson_arrivals, Generator, Schedule, Tally};
use report::{
    beyond, median, median_f64, percentile, ratio, result_line, us, END_TO_END, PER_LAYER,
};
use sslperf_net::{EventLoopServer, ServerOptions};
use sslperf_rng::SslRng;
use sslperf_rsa::RsaPrivateKey;
use sslperf_ssl::TicketKeyring;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Resume, Workload, KEY_BITS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The certificate name the server presents.
pub const SERVER_NAME: &str = "perfbench.sslperf.test";

/// Set-ups timed in an untraced run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Shares of `--seconds` an untraced run spends in the closed loop and in
/// the open loop.
const CLOSED_SHARE: f64 = 0.25;
const OPEN_SHARE: f64 = 0.75;

/// An untraced run alternates this many closed-loop slices with as many
/// open-loop segments, so both loops sample the host over the whole run.
/// `tx_per_s` and the server CPU per transaction are medians over the
/// slices, so a short stall of the host moves one slice, not the result.
const ROUNDS: u32 = 15;

/// Session holders on a resuming mix. Each one's first connection, a
/// full handshake, happens during warm-up.
const RESUME_CLIENTS: usize = 16;

/// Warm-up transactions on a full-handshake mix.
const WARM_FULL: usize = 16;

/// An open-loop phase is invalid when the generator's own p99 lateness
/// exceeds this share of the p99 latency: the generator, not the server,
/// would then be setting the tail.
const LAG_LIMIT: f64 = 0.5;

/// Open-loop percentiles need this many samples beyond them.
const MIN_BEYOND: usize = 10;

/// An open loop that runs past its arrival window by more than this share
/// of the window built a backlog: it measured a queue, not the server.
const OVERRUN_LIMIT: f64 = 0.05;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::read();
    if let Some(why) = host.refusal() {
        eprintln!("perfbench: not reporting: {why}");
        return ExitCode::from(3);
    }
    let run = if args.trace { traced(&args, &host) } else { plain(&args, &host, process_start) };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"fail_ratio\": {{\"value\": {}, \"unit\": \"ratio\"}}, \"failures\": {}, {}}}",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        host.json(),
        ratio(outcome.totals.failed() as f64, outcome.totals.attempted as f64),
        outcome.totals.failures_json(),
        outcome.info
    );
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result_line(
            outcome.valid && outcome.totals.failed() == 0,
            outcome.totals.attempted,
            outcome.totals.failed(),
            declared,
            &outcome.values,
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;

/// What a run prints.
struct Outcome {
    totals: Tally,
    /// False when a phase could not support the numbers it reports.
    valid: bool,
    values: Vec<(&'static str, f64)>,
    /// Extra `"key": value` pairs for the information line.
    info: String,
}

/// A server under load, and everything the layer passes reuse.
struct Bench {
    server: EventLoopServer,
    key: RsaPrivateKey,
    keyring: Option<Arc<TicketKeyring>>,
    generator: Generator,
    warm: Tally,
}

/// Key generation, server start and warm-up. `round` picks the key, so
/// repeated set-ups in one run do not all pay the same prime search.
fn set_up(
    workload: &'static Workload,
    seed: u64,
    round: usize,
    slots: usize,
) -> Result<Bench, String> {
    let mut rng = SslRng::from_seed(format!("perfbench-key-{seed}-{round}").as_bytes());
    let key = RsaPrivateKey::generate(KEY_BITS, &mut rng).map_err(|e| format!("keygen: {e}"))?;
    serve(workload, key, seed, slots)
}

/// Server start and warm-up under `key`.
fn serve(
    workload: &'static Workload,
    key: RsaPrivateKey,
    seed: u64,
    slots: usize,
) -> Result<Bench, String> {
    let keyring = (workload.resume == Resume::Ticket)
        .then(|| Arc::new(TicketKeyring::new(format!("perfbench-tickets-{seed}").as_bytes())));
    let options = ServerOptions::builder()
        .shards(1)
        .crypto_workers(1)
        .ticket_keys(keyring.clone())
        .build()
        .map_err(|e| format!("server options: {e}"))?;
    let server = EventLoopServer::start(key.clone(), SERVER_NAME, &options)
        .map_err(|e| format!("server start: {e}"))?;
    let (clients, warm) = match workload.resume {
        Resume::Never => (slots, WARM_FULL),
        _ => (RESUME_CLIENTS, 2 * RESUME_CLIENTS),
    };
    let mut generator = Generator::new(server.local_addr(), workload, slots, clients, seed);
    let warm = generator.run(Schedule::Count(warm), false);
    Ok(Bench { server, key, keyring, generator, warm })
}

/// Server counters, read through `ServerStats` and the session cache.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    connections: u64,
    resumed: u64,
    errors: u64,
    timeouts: u64,
    alerts: u64,
    jobs: u64,
    batches: u64,
    exec: Duration,
    queue_wait: Duration,
    batch_wait: Duration,
    hits: u64,
    misses: u64,
    tickets_accepted: u64,
    tickets_refused: u64,
}

impl Counters {
    fn read(server: &EventLoopServer) -> Self {
        let s = server.stats();
        let cache = server.session_cache();
        Counters {
            connections: s.connections(),
            resumed: s.resumed_handshakes(),
            errors: s.errors(),
            timeouts: s.timeouts(),
            alerts: s.alerts_sent(),
            jobs: s.crypto_jobs(),
            batches: s.crypto_batches(),
            exec: s.crypto_exec().to_duration(),
            queue_wait: s.crypto_queue_wait().to_duration(),
            batch_wait: s.crypto_batch_wait().to_duration(),
            hits: cache.hits(),
            misses: cache.misses(),
            tickets_accepted: s.tickets_accepted(),
            tickets_refused: s.tickets_rejected() + s.tickets_expired(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            connections: self.connections - before.connections,
            resumed: self.resumed - before.resumed,
            errors: self.errors - before.errors,
            timeouts: self.timeouts - before.timeouts,
            alerts: self.alerts - before.alerts,
            jobs: self.jobs - before.jobs,
            batches: self.batches - before.batches,
            exec: self.exec.saturating_sub(before.exec),
            queue_wait: self.queue_wait.saturating_sub(before.queue_wait),
            batch_wait: self.batch_wait.saturating_sub(before.batch_wait),
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            tickets_accepted: self.tickets_accepted - before.tickets_accepted,
            tickets_refused: self.tickets_refused - before.tickets_refused,
        }
    }

    fn per_job(&self, total: Duration) -> f64 {
        ratio(us(total), self.jobs as f64)
    }
}

/// Open-loop latency percentiles and the checks that make them valid.
struct OpenLoop {
    samples: usize,
    p50: Duration,
    p90: Duration,
    p99: Duration,
    beyond_p99: usize,
    lag_p99: Duration,
    lag_samples: usize,
    /// How far the phase ran past its arrival window, as a share of it.
    overrun: f64,
}

impl OpenLoop {
    fn from(tally: &Tally, window: Duration) -> Self {
        let mut latency = tally.latency.clone();
        latency.sort_unstable();
        let mut lag = tally.lag.clone();
        lag.sort_unstable();
        OpenLoop {
            samples: latency.len(),
            p50: percentile(&latency, 0.5),
            p90: percentile(&latency, 0.9),
            p99: percentile(&latency, 0.99),
            beyond_p99: beyond(&latency, 0.99),
            lag_p99: percentile(&lag, 0.99),
            lag_samples: lag.len(),
            overrun: tally.wall.saturating_sub(window).as_secs_f64() / window.as_secs_f64(),
        }
    }

    fn valid(&self) -> bool {
        self.beyond_p99 >= MIN_BEYOND
            && self.lag_p99.as_secs_f64() <= LAG_LIMIT * self.p99.as_secs_f64()
            && self.overrun <= OVERRUN_LIMIT
    }

    fn json(&self) -> String {
        format!(
            "\"open_loop\": {{\"samples\": {}, \"lat_p90_ms\": {{\"value\": {}, \"unit\": \"ms\"}}, \"lat_p99_ms\": {{\"value\": {}, \"unit\": \"ms\"}}, \"beyond_p99\": {}, \"lag_p99_ms\": {}, \"lag_samples\": {}, \"lag_limit_frac_of_p99\": {LAG_LIMIT}, \"overrun_frac\": {}, \"valid\": {}}}",
            self.samples,
            self.p90.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3,
            self.beyond_p99,
            self.lag_p99.as_secs_f64() * 1e3,
            self.lag_samples,
            self.overrun,
            self.valid()
        )
    }
}

fn arrivals(workload: &Workload, seed: u64, window: Duration) -> Vec<Duration> {
    let mut rng = SslRng::from_seed(format!("perfbench-arrivals-{seed}").as_bytes());
    poisson_arrivals(workload.offered_per_s, window, &mut rng)
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn plain(args: &Args, host: &Host, process_start: Instant) -> Result<Outcome, String> {
    let workload = args.workload;
    let slots = host.nproc();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut totals = Tally::default();
    let mut bench: Option<Bench> = None;
    for round in 0..SETUPS {
        if let Some(previous) = bench.take() {
            previous.server.shutdown();
        }
        let began = if round == 0 { process_start } else { Instant::now() };
        let next = set_up(workload, args.seed, round, slots)?;
        setups.push(began.elapsed());
        totals.absorb(&next.warm);
        bench = Some(next);
    }
    let mut bench = bench.expect("at least one set-up");
    let setup = median(setups.clone());

    let slice = Duration::from_secs_f64(args.seconds * CLOSED_SHARE) / ROUNDS;
    let segment = Duration::from_secs_f64(args.seconds * OPEN_SHARE) / ROUNDS;
    let window = segment * ROUNDS;
    let schedule = arrivals(workload, args.seed, window);
    let (mut rates, mut cpu_per_tx, mut closed_ok) = (Vec::new(), Vec::new(), 0);
    let mut open = Tally::default();
    for round in 0..ROUNDS {
        let cpu_before = host::process_cpu();
        let closed = bench.generator.run(Schedule::Closed(slice), false);
        let server_cpu =
            host::process_cpu().saturating_sub(cpu_before).saturating_sub(closed.generator_cpu);
        rates.push(closed.ok_in_window as f64 / slice.as_secs_f64());
        cpu_per_tx.push(ratio(us(server_cpu), closed.ok() as f64));
        closed_ok += closed.ok_in_window;
        totals.absorb(&closed);

        let from = segment * round;
        let due: Vec<Duration> = schedule
            .iter()
            .filter(|at| (from..from + segment).contains(at))
            .map(|at| *at - from)
            .collect();
        let part = bench.generator.run(Schedule::Open(&due), false);
        totals.absorb(&part);
        open.append(part, segment);
    }
    bench.server.shutdown();

    let open_loop = OpenLoop::from(&open, window);
    let values = vec![
        ("setup_s", setup.as_secs_f64()),
        ("tx_per_s", median_f64(&rates)),
        ("lat_p50_ms", open_loop.p50.as_secs_f64() * 1e3),
        ("rss_peak_mb", host::peak_rss_mb()),
        ("ok_ratio", ratio(totals.ok() as f64, totals.attempted as f64)),
    ];
    let setups_s: Vec<String> = setups.iter().map(|d| d.as_secs_f64().to_string()).collect();
    let info = format!(
        "\"offered_per_s\": {}, \"setup_rounds_s\": [{}], \"rounds\": {ROUNDS}, \"closed_loop\": {{\"slice_s\": {}, \"ok_in_window\": {closed_ok}, \"cpu_us_per_tx\": {{\"value\": {}, \"unit\": \"us\"}}}}, \"open_segment_s\": {}, {}",
        workload.offered_per_s,
        setups_s.join(", "),
        slice.as_secs_f64(),
        median_f64(&cpu_per_tx),
        segment.as_secs_f64(),
        open_loop.json()
    );
    Ok(Outcome { totals, valid: open_loop.valid(), values, info })
}

/// `--trace 1`: the per-layer metrics.
fn traced(args: &Args, host: &Host) -> Result<Outcome, String> {
    const SLICES: u32 = 4;
    let workload = args.workload;
    let s = args.seconds;
    let mut bench = set_up(workload, args.seed, 0, host.nproc())?;
    let mut totals = Tally::default();
    totals.absorb(&bench.warm);

    // Closed loop, alternating untraced and traced slices so drift hits
    // both sides of `trace.overhead_frac` alike.
    let slice = Duration::from_secs_f64(s * 0.15) / (2 * SLICES);
    let before_closed = Counters::read(&bench.server);
    let (mut plain_ok, mut traced_ok) = (0, 0);
    for _ in 0..SLICES {
        let plain = bench.generator.run(Schedule::Closed(slice), false);
        let traced = bench.generator.run(Schedule::Closed(slice), true);
        plain_ok += plain.ok_in_window;
        traced_ok += traced.ok_in_window;
        totals.absorb(&plain);
        totals.absorb(&traced);
    }
    let closed = Counters::read(&bench.server).since(before_closed);
    let closed_wall = slice * 2 * SLICES;

    let before_open = Counters::read(&bench.server);
    let window = Duration::from_secs_f64(s * 0.7);
    let schedule = arrivals(workload, args.seed, window);
    let open = bench.generator.run(Schedule::Open(&schedule), true);
    totals.absorb(&open);
    let open_stats = Counters::read(&bench.server).since(before_open);
    let all = Counters::read(&bench.server).since(before_closed);
    let depth_max = bench.server.stats().crypto_queue_depth_max();
    let Bench { server, key, keyring, .. } = bench;
    server.shutdown();

    let budget = Duration::from_secs_f64(s * 0.075);
    let inproc = layers::inproc(workload, &key, keyring.as_ref(), budget, args.seed);
    let kernel_keys =
        TicketKeyring::new(format!("perfbench-kernel-tickets-{}", args.seed).as_bytes());
    let kernels = layers::kernels(&key, &kernel_keys, budget, args.seed);

    let open_loop = OpenLoop::from(&open, window);
    let open_ok = open.ok() as f64;
    let mut connect = open.connect.clone();
    connect.sort_unstable();
    let client_per_tx = ratio(us(open.client_busy), open_ok);
    let kx_per_tx =
        ratio(us(open_stats.exec + open_stats.queue_wait + open_stats.batch_wait), open_ok);
    let covered = client_per_tx + kx_per_tx + us(inproc.server_self) + us(inproc.seal);
    let observed = ratio(us(open.service.iter().sum()), open.service.len() as f64);
    let per_16k = |d: Duration| ratio(us(d) * 16384.0, inproc.response_bytes as f64);

    let mut values = vec![
        ("net.cryptopool.exec_us_per_job", all.per_job(all.exec)),
        ("net.cryptopool.queue_wait_us_per_job", all.per_job(all.queue_wait)),
        ("net.cryptopool.batch_wait_us_per_job", all.per_job(all.batch_wait)),
        ("net.cryptopool.queue_depth_max", depth_max as f64),
        ("net.cryptopool.jobs_per_batch", ratio(all.jobs as f64, all.batches as f64)),
        ("net.cryptopool.busy_frac", ratio(closed.exec.as_secs_f64(), closed_wall.as_secs_f64())),
        ("net.server.resumed_frac", ratio(all.resumed as f64, all.connections as f64)),
        ("net.cache.hit_frac", ratio(all.hits as f64, (all.hits + all.misses) as f64)),
        (
            "ssl.ticket.accept_frac",
            ratio(all.tickets_accepted as f64, (all.tickets_accepted + all.tickets_refused) as f64),
        ),
        ("net.server.errors", all.errors as f64),
        ("net.server.timeouts", all.timeouts as f64),
        ("net.server.alerts_sent", all.alerts as f64),
        ("loadgen.connect_us", us(percentile(&connect, 0.5))),
        ("loadgen.client_us_per_tx", client_per_tx),
        ("loadgen.lag_p99_ms", open_loop.lag_p99.as_secs_f64() * 1e3),
        ("ssl.handshake.kx_us", us(inproc.kx)),
        ("ssl.handshake.server_self_us", us(inproc.server_self)),
        ("ssl.record.seal_us_per_16k", per_16k(inproc.seal)),
        ("ssl.record.open_us_per_16k", per_16k(inproc.open)),
        ("ssl.inproc.tx_us", us(inproc.tx)),
        ("alloc.count_per_tx", inproc.allocs),
        ("alloc.bytes_per_tx", inproc.alloc_bytes),
    ];
    values.extend(kernels.iter().map(|k| (k.name, k.value)));
    values.push(("budget.unattributed_frac", 1.0 - ratio(covered, observed)));
    values.push(("trace.overhead_frac", 1.0 - ratio(traced_ok as f64, plain_ok as f64)));

    let info = format!(
        "\"offered_per_s\": {}, \"closed_loop\": {{\"slices\": {}, \"slice_s\": {}, \"ok_untraced\": {plain_ok}, \"ok_traced\": {traced_ok}}}, {}, \"connect_samples\": {}, \"kernel_samples\": {{{}}}, \"inproc_transactions\": {}, \"budget_us\": {{\"observed\": {observed}, \"client\": {client_per_tx}, \"kx\": {kx_per_tx}, \"server_handshake\": {}, \"server_seal\": {}}}",
        workload.offered_per_s,
        2 * SLICES,
        slice.as_secs_f64(),
        open_loop.json(),
        connect.len(),
        kernels.iter().map(|k| format!("\"{}\": {}", k.name, k.samples)).collect::<Vec<_>>().join(", "),
        inproc.transactions,
        us(inproc.server_self),
        us(inproc.seal),
    );
    Ok(Outcome { totals, valid: open_loop.valid(), values, info })
}
