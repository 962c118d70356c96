//! The four traffic mixes. `README.md` gives the reason for each.

use sslperf_rng::SslRng;
use sslperf_ssl::{CipherSuite, ClientConfig, ClientMachine, ClientSession, Protocol, SslClient};
use sslperf_websim::http::{synthesize_document, HttpRequest};

/// RSA modulus size for every workload: the paper's key size.
pub const KEY_BITS: usize = 1024;

/// Record protection for every workload.
pub const SUITE: CipherSuite = CipherSuite::RsaAes128Sha;

/// How a client's connections after its first are set up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// Every connection is a full handshake.
    Never,
    /// Resume through the server's session-id cache.
    IdCache,
    /// Resume through a stateless session ticket.
    Ticket,
}

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub protocol: Protocol,
    pub resume: Resume,
    /// Size of the `/doc_{size}.bin` document every transaction fetches.
    pub doc_size: usize,
    /// Open-loop offered rate, transactions per second. Fixed once at
    /// about a fifth of the closed-loop `tx_per_s` seed 1 reached on the
    /// reference host (2-core Xeon, AES-NI), so the open loop stays far
    /// from saturation when that host runs at half speed, and high enough
    /// that a 30-second run gathers well over 1000 open-loop samples.
    pub offered_per_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ssl3_rsa_full",
        protocol: Protocol::Ssl3,
        resume: Resume::Never,
        doc_size: 1024,
        offered_per_s: 150.0,
    },
    Workload {
        name: "tls13_dhe_full",
        protocol: Protocol::Tls13,
        resume: Resume::Never,
        doc_size: 1024,
        offered_per_s: 55.0,
    },
    Workload {
        name: "ssl3_resume_bulk",
        protocol: Protocol::Ssl3,
        resume: Resume::IdCache,
        doc_size: 256 * 1024,
        offered_per_s: 55.0,
    },
    Workload {
        name: "ssl3_resume_small",
        protocol: Protocol::Ssl3,
        resume: Resume::Ticket,
        doc_size: 1024,
        offered_per_s: 500.0,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn path(&self) -> String {
        format!("/doc_{}.bin", self.doc_size)
    }

    /// The request every transaction sends.
    pub fn request(&self) -> Vec<u8> {
        HttpRequest::get(&self.path()).to_bytes()
    }

    /// The body every response must carry.
    pub fn document(&self) -> Vec<u8> {
        synthesize_document(&self.path(), self.doc_size)
    }

    /// The client machine for a client's next connection: a resumption
    /// when it holds a session, its first full handshake otherwise.
    pub fn client(&self, session: Option<ClientSession>, rng: SslRng) -> ClientMachine {
        match (self.resume, session) {
            (Resume::Never, _) => ClientMachine::new(ClientConfig::new(self.protocol, SUITE), rng),
            (_, Some(session)) => ClientMachine::V3(SslClient::resuming(session, rng)),
            (Resume::Ticket, None) => ClientMachine::V3(SslClient::new(SUITE, rng).with_tickets()),
            (Resume::IdCache, None) => ClientMachine::V3(SslClient::new(SUITE, rng)),
        }
    }
}
