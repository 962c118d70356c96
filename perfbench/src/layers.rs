//! Layer costs measured from outside the program: the same transaction
//! mix pumped through a server and a client engine over memory on one
//! thread, and kernel calls timed alone on inputs shaped like the mix.

use crate::report::median;
use crate::workload::{Resume, Workload, SUITE};
use sslperf_bignum::{Bn, MontCtx};
use sslperf_ciphers::{Aes, Cbc};
use sslperf_hashes::{HashAlg, Hmac};
use sslperf_net::ShardedSessionCache;
use sslperf_rng::SslRng;
use sslperf_rsa::RsaPrivateKey;
use sslperf_ssl::dhe::{validate_public, DheKeyPair};
use sslperf_ssl::{
    CachedSession, ClientMachine, ClientSession, Engine, EngineDriven, ServerConfig, ServerMachine,
    TicketKeyring, TicketSessionStore,
};
use sslperf_websim::http::{synthesize_document, HttpRequest, HttpResponse};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECORD_16K: usize = 16 * 1024;

/// Per-transaction means from the in-process pass.
#[derive(Debug, Default)]
pub struct InProc {
    pub transactions: u64,
    /// Inside `CryptoJob::execute`.
    pub kx: Duration,
    /// Server `feed` and `complete_crypto` until established (the job
    /// itself runs outside them).
    pub server_self: Duration,
    /// Server `seal` of the response.
    pub seal: Duration,
    /// Client `feed` plus `open_next` over the response.
    pub open: Duration,
    /// The whole transaction.
    pub tx: Duration,
    /// Response bytes sealed per transaction.
    pub response_bytes: usize,
    pub allocs: f64,
    pub alloc_bytes: f64,
}

/// The server side of the in-process pass: the store the live server
/// would use, behind the same configuration type.
fn server_config(key: &RsaPrivateKey, keyring: Option<&Arc<TicketKeyring>>) -> ServerConfig {
    let cache = Box::new(ShardedSessionCache::new(8, 1024));
    let config = match keyring {
        Some(keyring) => ServerConfig::with_store(
            key.clone(),
            crate::SERVER_NAME,
            Box::new(TicketSessionStore::new(Arc::clone(keyring), cache)),
        ),
        None => ServerConfig::with_cache(key.clone(), crate::SERVER_NAME, cache),
    };
    config.expect("self-signed certificate")
}

/// Moves everything `from` has queued into `to`.
fn transfer<A: EngineDriven, B: EngineDriven>(
    from: &mut Engine<A>,
    to: &mut Engine<B>,
    scratch: &mut [u8],
) {
    while from.wants_write() {
        let n = from.take_output(scratch);
        let mut off = 0;
        while off < n {
            let fed = to.feed(&scratch[off..n]).expect("in-process peer accepts its bytes");
            assert!(fed > 0, "in-process peer stalled");
            off += fed;
        }
    }
}

/// One transaction over memory. Returns the session to resume next.
#[allow(clippy::too_many_arguments)]
fn transaction(
    workload: &Workload,
    config: &ServerConfig,
    key: &RsaPrivateKey,
    session: Option<ClientSession>,
    request: &[u8],
    seed: &str,
    scratch: &mut [u8],
    acc: &mut InProc,
) -> Option<ClientSession> {
    let started = Instant::now();
    let rng = SslRng::from_seed(format!("{seed}-client").as_bytes());
    let mut client = Engine::new(workload.client(session, rng)).expect("client hello");
    let server_rng = SslRng::from_seed(format!("{seed}-server").as_bytes());
    let mut server = Engine::new(ServerMachine::new(config, server_rng)).expect("server engine");
    server.set_crypto_offload(true);

    // Handshake: the server's own time excludes the key-exchange job,
    // which runs here between two server calls.
    let mut flights = 0;
    while !(client.is_established() && server.is_established()) || client.wants_write() {
        flights += 1;
        assert!(flights < 8, "in-process handshake stalled");
        let t = Instant::now();
        transfer(&mut client, &mut server, scratch);
        acc.server_self += t.elapsed();
        if let Some(job) = server.take_crypto_job() {
            let t = Instant::now();
            let done = job.execute(key);
            acc.kx += t.elapsed();
            let t = Instant::now();
            server.complete_crypto(done).expect("key exchange completes");
            acc.server_self += t.elapsed();
        }
        transfer(&mut server, &mut client, scratch);
    }

    // Request, then the response sealed by the server and opened by the
    // client, one record's worth of wire bytes at a time.
    client.seal(request).expect("request seals");
    transfer(&mut client, &mut server, scratch);
    let range = server.open_next().expect("request opens").expect("whole request");
    let path =
        HttpRequest::parse(&server.buffered()[range]).expect("request parses").path().to_owned();
    let body = HttpResponse::ok(synthesize_document(&path, workload.doc_size)).to_bytes();
    let t = Instant::now();
    server.seal(&body).expect("response seals");
    acc.seal += t.elapsed();
    acc.response_bytes = body.len();
    let mut received = 0;
    let t = Instant::now();
    while server.wants_write() {
        let n = server.take_output(scratch);
        let mut off = 0;
        while off < n {
            off += client.feed(&scratch[off..n]).expect("client accepts response");
            while let Some(range) = client.open_next().expect("response opens") {
                received += range.len();
            }
        }
    }
    acc.open += t.elapsed();
    assert_eq!(received, body.len(), "whole response delivered");

    client.queue_close_notify().expect("close_notify");
    transfer(&mut client, &mut server, scratch);
    acc.tx += started.elapsed();
    acc.transactions += 1;
    match client.machine() {
        ClientMachine::V3(c) if workload.resume != Resume::Never => c.session(),
        _ => None,
    }
}

/// Runs the mix in memory for about `budget`, after a warm-up that gives
/// every client its first (full) handshake. Allocation counts cover the
/// timed transactions only.
pub fn inproc(
    workload: &Workload,
    key: &RsaPrivateKey,
    keyring: Option<&Arc<TicketKeyring>>,
    budget: Duration,
    seed: u64,
) -> InProc {
    const CLIENTS: usize = 4;
    let config = server_config(key, keyring);
    let request = workload.request();
    let mut scratch = vec![0u8; RECORD_16K + 2048];
    let mut sessions: Vec<Option<ClientSession>> = vec![None; CLIENTS];
    let mut warm = InProc::default();
    for (i, session) in sessions.iter_mut().enumerate() {
        let seed = format!("perfbench-inproc-{seed}-warm-{i}");
        *session =
            transaction(workload, &config, key, None, &request, &seed, &mut scratch, &mut warm);
    }
    let mut acc = InProc::default();
    let deadline = Instant::now() + budget;
    let ((), allocs, bytes) = crate::alloc::counted(|| {
        let mut i = 0;
        while i < CLIENTS || Instant::now() < deadline {
            let seed = format!("perfbench-inproc-{seed}-{i}");
            let slot = i % CLIENTS;
            let session = sessions[slot].take();
            sessions[slot] = transaction(
                workload,
                &config,
                key,
                session,
                &request,
                &seed,
                &mut scratch,
                &mut acc,
            );
            i += 1;
        }
    });
    let n = acc.transactions as f64;
    InProc {
        transactions: acc.transactions,
        kx: acc.kx.div_f64(n),
        server_self: acc.server_self.div_f64(n),
        seal: acc.seal.div_f64(n),
        open: acc.open.div_f64(n),
        tx: acc.tx.div_f64(n),
        response_bytes: acc.response_bytes,
        allocs: allocs as f64 / n,
        alloc_bytes: bytes as f64 / n,
    }
}

/// One kernel's median time per call, in the unit its name ends with.
pub struct Kernel {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Median time of one call of `f`, over samples of `batch` calls each,
/// after a warm-up, within about `budget`. `per_second` converts seconds
/// to the metric's unit.
fn kernel(
    name: &'static str,
    per_second: f64,
    budget: Duration,
    batch: u32,
    mut f: impl FnMut(),
) -> Kernel {
    const MIN_SAMPLES: usize = 5;
    for _ in 0..batch {
        f();
    }
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || Instant::now() < deadline {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed() / batch);
    }
    let count = samples.len();
    Kernel { name, value: median(samples).as_secs_f64() * per_second, samples: count }
}

/// Kernel timings, each the median of many calls within `budget / 10`.
pub fn kernels(
    key: &RsaPrivateKey,
    keyring: &TicketKeyring,
    budget: Duration,
    seed: u64,
) -> Vec<Kernel> {
    let slice = budget / 10;
    let mut rng = SslRng::from_seed(format!("perfbench-kernels-{seed}").as_bytes());

    let pre_master = rng.bytes(48);
    let ciphertext = key.public_key().encrypt_pkcs1(&pre_master, &mut rng).expect("encrypt");
    let decrypt = kernel("rsa.decrypt_us", 1e6, slice, 4, || {
        black_box(key.decrypt_pkcs1(black_box(&ciphertext)).expect("decrypt"));
    });
    let transcript = rng.bytes(128);
    let sign = kernel("rsa.sign_us", 1e6, slice, 4, || {
        black_box(key.sign_pkcs1(HashAlg::Sha256, black_box(&transcript)).expect("sign"));
    });

    let peer = DheKeyPair::generate(&mut rng);
    let peer_public = validate_public(peer.public()).expect("valid public");
    let mut dhe_rng = rng.clone();
    let keygen = kernel("ssl.dhe.keygen_us", 1e6, slice, 1, || {
        black_box(DheKeyPair::generate(&mut dhe_rng));
    });
    let mine = DheKeyPair::generate(&mut rng);
    let agree = kernel("ssl.dhe.agree_us", 1e6, slice, 1, || {
        black_box(mine.agree(black_box(&peer_public)));
    });

    let sqr = |name, bits: usize, rng: &mut SslRng| {
        let mut modulus = rng.bytes(bits / 8);
        modulus[0] |= 0x80;
        modulus[bits / 8 - 1] |= 1;
        let ctx = MontCtx::new(&Bn::from_bytes_be(&modulus)).expect("odd modulus");
        let a = ctx.to_mont(&Bn::from_bytes_be(&rng.bytes(bits / 8 - 1)));
        kernel(name, 1e9, slice, 256, || {
            black_box(ctx.mont_sqr(black_box(&a)));
        })
    };
    let sqr1024 = sqr("bignum.sqr1024_ns", 1024, &mut rng);
    let sqr2048 = sqr("bignum.sqr2048_ns", 2048, &mut rng);

    let aes_key = rng.bytes(16);
    let iv = rng.bytes(16);
    let mut record = rng.bytes(RECORD_16K);
    let mut cbc = Cbc::new(Aes::new(&aes_key).expect("aes key"), iv).expect("cbc");
    let aes = kernel("ciphers.aes128_cbc_us_per_16k", 1e6, slice, 8, || {
        cbc.encrypt(black_box(&mut record)).expect("whole blocks");
    });
    let mac_key = rng.bytes(20);
    let hmac = kernel("hashes.hmac_sha1_us_per_16k", 1e6, slice, 8, || {
        let mut mac = Hmac::new(HashAlg::Sha1, &mac_key);
        mac.update(black_box(&record));
        black_box(mac.finalize());
    });

    let session = CachedSession { master: rng.bytes(48), suite: SUITE };
    let ticket = keyring.seal(&session);
    let seal = kernel("ssl.ticket.seal_us", 1e6, slice, 16, || {
        black_box(keyring.seal(black_box(&session)));
    });
    let open = kernel("ssl.ticket.open_us", 1e6, slice, 16, || {
        black_box(keyring.open(black_box(&ticket)).expect("fresh ticket opens"));
    });

    vec![decrypt, sign, keygen, agree, sqr1024, sqr2048, aes, hmac, seal, open]
}
