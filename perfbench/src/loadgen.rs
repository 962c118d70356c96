//! The load generator: one thread, a few non-blocking connections, each
//! connection one verified transaction.
//!
//! A transaction is a TCP connect on loopback, the handshake, one
//! `GET /doc_{size}.bin`, a byte-for-byte check of the body, and
//! `close_notify`. Clients are a fixed population of session holders: a
//! client's first connection is a full handshake, and on a resuming mix
//! every later one must resume or it counts as failed.

use crate::workload::{Resume, Workload};
use sslperf_rng::SslRng;
use sslperf_ssl::{ClientMachine, ClientSession, Engine};
use sslperf_websim::http::HttpResponse;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A transaction taking longer than this has failed.
const TX_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the generator sleeps when no socket moved.
const POLL: Duration = Duration::from_micros(20);

/// What every transaction asks for and what it must get back.
struct Mix {
    workload: &'static Workload,
    request: Vec<u8>,
    expected_body: Vec<u8>,
}

/// Why a transaction failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// A socket or SSL error, or the server closed early.
    Error,
    /// No verified close within [`TX_TIMEOUT`].
    Timeout,
    /// The response was not `200` with exactly the expected body.
    BadResponse,
    /// A resuming client's connection fell back to a full handshake.
    NotResumed,
}

impl Failure {
    pub const ALL: [Failure; 4] =
        [Failure::Error, Failure::Timeout, Failure::BadResponse, Failure::NotResumed];

    pub fn name(self) -> &'static str {
        match self {
            Failure::Error => "error",
            Failure::Timeout => "timeout",
            Failure::BadResponse => "bad_response",
            Failure::NotResumed => "not_resumed",
        }
    }
}

/// When transactions start.
#[derive(Debug, Clone, Copy)]
pub enum Schedule<'a> {
    /// Closed loop: keep every slot busy, starting transactions until the
    /// window has passed.
    Closed(Duration),
    /// Closed loop for exactly this many transactions.
    Count(usize),
    /// Open loop: one transaction per arrival, given as an offset from the
    /// phase start. An arrival that finds every slot busy waits in the
    /// generator; its latency still counts from its due time.
    Open(&'a [Duration]),
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: [u64; 4],
    /// Verified transactions that closed inside a closed-loop window.
    pub ok_in_window: u64,
    /// Due time to verified close; a failed transaction reads as
    /// `Duration::MAX`, so it misses every latency limit.
    pub latency: Vec<Duration>,
    /// Connect to verified close, verified transactions only.
    pub service: Vec<Duration>,
    /// How late the generator started each transaction after it was due
    /// and a slot was free: the generator's own lateness, not the server's.
    pub lag: Vec<Duration>,
    /// Time inside `TcpStream::connect`.
    pub connect: Vec<Duration>,
    /// Time inside the client engine's calls (traced phases only).
    pub client_busy: Duration,
    /// Generator thread CPU time.
    pub generator_cpu: Duration,
    /// Phase start to the last transaction's end.
    pub wall: Duration,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.failures.iter().sum()
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed()
    }

    fn fail(&mut self, why: Failure) {
        self.failures[why as usize] += 1;
        self.latency.push(Duration::MAX);
    }

    /// Adds `other`'s counts (not its samples) to this tally.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (mine, theirs) in self.failures.iter_mut().zip(other.failures) {
            *mine += theirs;
        }
    }

    /// Appends the samples of `other`, one segment of an open loop whose
    /// arrivals spanned `window`. A segment that finished early counts as
    /// the whole window, so its slack cannot hide another's backlog.
    pub fn append(&mut self, other: Tally, window: Duration) {
        self.latency.extend(other.latency);
        self.lag.extend(other.lag);
        self.wall += other.wall.max(window);
    }

    pub fn failures_json(&self) -> String {
        let kinds: Vec<String> = Failure::ALL
            .iter()
            .map(|f| format!("\"{}\": {}", f.name(), self.failures[*f as usize]))
            .collect();
        format!("{{{}}}", kinds.join(", "))
    }
}

/// Accumulates time spent inside client engine calls when tracing.
struct Busy {
    on: bool,
    total: Duration,
}

impl Busy {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.total += start.elapsed();
        out
    }
}

/// True when `response` is a `200` carrying exactly `expected`.
pub fn verify(response: &[u8], expected: &[u8]) -> bool {
    HttpResponse::parse(response).is_ok_and(|r| r.status() == 200 && r.body() == expected)
}

/// Total length of a response once its header has arrived.
fn response_len(bytes: &[u8]) -> Option<usize> {
    let end = bytes.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&bytes[..end]).ok()?;
    let body = head.lines().find_map(|l| l.strip_prefix("Content-Length: "))?;
    Some(end + 4 + body.trim().parse::<usize>().ok()?)
}

/// The generator: a client population and the connections in flight.
pub struct Generator {
    addr: SocketAddr,
    mix: Mix,
    slots: usize,
    seed: u64,
    sessions: Vec<Option<ClientSession>>,
    idle: VecDeque<usize>,
    /// Transactions started so far; names each connection's rng stream.
    started: u64,
    scratch: Vec<u8>,
}

impl Generator {
    /// A generator holding at most `slots` connections open, over a
    /// population of `clients` session holders.
    pub fn new(
        addr: SocketAddr,
        workload: &'static Workload,
        slots: usize,
        clients: usize,
        seed: u64,
    ) -> Self {
        assert!(clients >= slots, "every slot needs an idle client");
        Generator {
            addr,
            mix: Mix { workload, request: workload.request(), expected_body: workload.document() },
            slots,
            seed,
            sessions: vec![None; clients],
            idle: (0..clients).collect(),
            started: 0,
            scratch: vec![0; 16 * 1024],
        }
    }

    /// Changes the body every later transaction is checked against.
    #[cfg(test)]
    pub fn expect_body(&mut self, body: Vec<u8>) {
        self.mix.expected_body = body;
    }

    /// Runs one phase. With `trace`, time inside client engine calls is
    /// summed into [`Tally::client_busy`].
    pub fn run(&mut self, schedule: Schedule<'_>, trace: bool) -> Tally {
        let mut tally = Tally::default();
        let mut busy = Busy { on: trace, total: Duration::ZERO };
        let cpu_before = crate::host::thread_cpu();
        let start = Instant::now();
        let mut conns: Vec<Conn> = Vec::with_capacity(self.slots);
        let mut free_since = vec![start; self.slots];
        let mut next = 0;
        let mut waiting: VecDeque<Instant> = VecDeque::new();
        let mut scratch = std::mem::take(&mut self.scratch);
        loop {
            let now = Instant::now();
            if let Schedule::Open(arrivals) = schedule {
                while next < arrivals.len() && start + arrivals[next] <= now {
                    waiting.push_back(start + arrivals[next]);
                    next += 1;
                }
            }
            while conns.len() < self.slots {
                let due = match schedule {
                    Schedule::Closed(window) if now - start < window => now,
                    Schedule::Count(n) if next < n => {
                        next += 1;
                        now
                    }
                    Schedule::Open(_) => match waiting.pop_front() {
                        Some(due) => due,
                        None => break,
                    },
                    _ => break,
                };
                let ready = free_since.pop().expect("a slot is free").max(due);
                match self.connect(due, ready, &mut busy, &mut tally) {
                    Ok(conn) => conns.push(conn),
                    Err(why) => {
                        tally.fail(why);
                        free_since.push(Instant::now());
                    }
                }
            }

            let mut progress = false;
            let mut i = 0;
            while i < conns.len() {
                match conns[i].pump(&mut scratch, &self.mix, &mut busy) {
                    Ok(Some(moved)) => {
                        progress |= moved;
                        i += 1;
                    }
                    outcome => {
                        let conn = conns.swap_remove(i);
                        let done = Instant::now();
                        progress = true;
                        free_since.push(done);
                        self.idle.push_back(conn.client);
                        match outcome {
                            Ok(_) => {
                                if let Some(session) = conn.session {
                                    self.sessions[conn.client] = Some(session);
                                }
                                if matches!(schedule, Schedule::Closed(w) if done - start <= w) {
                                    tally.ok_in_window += 1;
                                }
                                tally.latency.push(done - conn.due);
                                tally.service.push(done - conn.began);
                            }
                            Err(why) => tally.fail(why),
                        }
                    }
                }
            }

            let more = match schedule {
                Schedule::Closed(window) => Instant::now() - start < window,
                Schedule::Count(n) => next < n,
                Schedule::Open(arrivals) => next < arrivals.len() || !waiting.is_empty(),
            };
            if !more && conns.is_empty() {
                break;
            }
            if !progress {
                let mut pause = POLL;
                if let (Schedule::Open(arrivals), true) = (schedule, conns.is_empty()) {
                    if let Some(offset) = arrivals.get(next) {
                        pause = (start + *offset).saturating_duration_since(Instant::now());
                    }
                }
                std::thread::sleep(pause);
            }
        }
        self.scratch = scratch;
        tally.wall = start.elapsed();
        tally.client_busy = busy.total;
        tally.generator_cpu = crate::host::thread_cpu().saturating_sub(cpu_before);
        tally
    }

    /// Starts one transaction on the next idle client.
    fn connect(
        &mut self,
        due: Instant,
        ready: Instant,
        busy: &mut Busy,
        tally: &mut Tally,
    ) -> Result<Conn, Failure> {
        tally.attempted += 1;
        let began = Instant::now();
        tally.lag.push(began.saturating_duration_since(ready));
        let client = self.idle.pop_front().expect("a client is idle");
        let rng = SslRng::from_seed(
            format!("perfbench-client-{}-{}", self.seed, self.started).as_bytes(),
        );
        self.started += 1;
        let session = self.sessions[client].clone();
        let must_resume = session.is_some();
        let stream = TcpStream::connect(self.addr);
        tally.connect.push(began.elapsed());
        let setup = stream.and_then(|s| {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        });
        let Ok(stream) = setup else {
            self.idle.push_back(client);
            return Err(Failure::Error);
        };
        let machine = self.mix.workload.client(session, rng);
        match busy.time(|| Engine::new(machine)) {
            Ok(engine) => Ok(Conn {
                stream,
                engine,
                client,
                must_resume,
                due,
                began,
                response: Vec::new(),
                response_len: None,
                request_sent: false,
                closing: false,
                session: None,
            }),
            Err(_) => {
                self.idle.push_back(client);
                Err(Failure::Error)
            }
        }
    }
}

/// One transaction in flight.
struct Conn {
    stream: TcpStream,
    engine: Engine<ClientMachine>,
    client: usize,
    must_resume: bool,
    due: Instant,
    began: Instant,
    response: Vec<u8>,
    response_len: Option<usize>,
    request_sent: bool,
    closing: bool,
    /// The session to resume next time, once the response checked out.
    session: Option<ClientSession>,
}

impl Conn {
    /// Moves whatever the socket allows. `Ok(Some(progress))` while the
    /// transaction is open, `Ok(None)` once `close_notify` is flushed.
    fn pump(
        &mut self,
        scratch: &mut [u8],
        mix: &Mix,
        busy: &mut Busy,
    ) -> Result<Option<bool>, Failure> {
        if self.began.elapsed() > TX_TIMEOUT {
            return Err(Failure::Timeout);
        }
        let mut progress = false;
        while !self.closing {
            match self.stream.read(scratch) {
                Ok(0) => return Err(Failure::Error),
                Ok(n) => {
                    progress = true;
                    let mut offset = 0;
                    while offset < n {
                        let fed = busy
                            .time(|| self.engine.feed(&scratch[offset..n]))
                            .map_err(|_| Failure::Error)?;
                        offset += fed;
                        self.advance(mix, busy)?;
                        if fed == 0 && offset < n {
                            return Err(Failure::Error);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(Failure::Error),
            }
        }
        self.advance(mix, busy)?;
        while self.engine.wants_write() {
            match self.stream.write(self.engine.output()) {
                Ok(0) => return Err(Failure::Error),
                Ok(n) => {
                    progress = true;
                    self.engine.consume_output(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(Failure::Error),
            }
        }
        if self.closing && !self.engine.wants_write() {
            return Ok(None);
        }
        Ok(Some(progress))
    }

    /// Sends the request once established, collects and checks the
    /// response, then queues the orderly close.
    fn advance(&mut self, mix: &Mix, busy: &mut Busy) -> Result<(), Failure> {
        if self.closing || !self.engine.is_established() {
            return Ok(());
        }
        if !self.request_sent {
            let resumed = matches!(self.engine.machine(), ClientMachine::V3(c) if c.resumed());
            if self.must_resume && !resumed {
                return Err(Failure::NotResumed);
            }
            busy.time(|| self.engine.seal(&mix.request)).map_err(|_| Failure::Error)?;
            self.request_sent = true;
        }
        while let Some(range) = busy.time(|| self.engine.open_next()).map_err(|_| Failure::Error)? {
            self.response.extend_from_slice(&self.engine.buffered()[range]);
        }
        if self.response_len.is_none() {
            self.response_len = response_len(&self.response);
        }
        let Some(len) = self.response_len else { return Ok(()) };
        if self.response.len() < len {
            return Ok(());
        }
        if !verify(&self.response, &mix.expected_body) {
            return Err(Failure::BadResponse);
        }
        if mix.workload.resume != Resume::Never {
            if let ClientMachine::V3(client) = self.engine.machine() {
                self.session = client.session();
            }
        }
        busy.time(|| self.engine.queue_close_notify()).map_err(|_| Failure::Error)?;
        self.closing = true;
        Ok(())
    }
}

/// Poisson arrival offsets at `rate` per second over `window`.
pub fn poisson_arrivals(rate: f64, window: Duration, rng: &mut SslRng) -> Vec<Duration> {
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        at += -u.ln() / rate;
        if at >= window.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}
