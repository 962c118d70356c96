//! Host fingerprint and the `/proc` readings the end-to-end metrics use.

use sslperf_bignum::default_limb_width;
use sslperf_ciphers::Aes;
use std::time::Duration;

/// Environment variables that swap a kernel for a different one; a result
/// measured under either describes another program.
const OVERRIDES: [&str; 2] = ["SSLPERF_LIMBS", "SSLPERF_AES"];

/// What a result needs to be compared across hosts.
pub struct Host {
    nproc: usize,
    cpu_model: String,
    aes_ni: bool,
    limbs: &'static str,
    overrides: Vec<(&'static str, String)>,
}

impl Host {
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            aes_ni: Aes::ni_available(),
            limbs: default_limb_width().name(),
            overrides: OVERRIDES
                .iter()
                .filter_map(|&var| std::env::var(var).ok().map(|value| (var, value)))
                .collect(),
        }
    }

    /// Logical CPUs: the generator holds this many connections open.
    pub fn nproc(&self) -> usize {
        self.nproc
    }

    /// Why this host's result must not be reported, if it must not.
    pub fn refusal(&self) -> Option<String> {
        let (var, value) = self.overrides.first()?;
        Some(format!("{var}={value} selects a different kernel; unset it to measure the default"))
    }

    pub fn json(&self) -> String {
        let overrides: Vec<String> =
            self.overrides.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v))).collect();
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"aes_ni\": {}, \"limbs\": \"{}\", \"overrides\": {{{}}}}}",
            self.nproc,
            escape(&self.cpu_model),
            self.aes_ni,
            self.limbs,
            overrides.join(", "),
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .collect::<String>()
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
}

/// On-CPU time of one task, from its `schedstat` (nanoseconds).
fn schedstat(path: &std::path::Path) -> Duration {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map_or(Duration::ZERO, Duration::from_nanos)
}

/// On-CPU time of every live thread of this process.
pub fn process_cpu() -> Duration {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| tasks.flatten().map(|task| schedstat(&task.path().join("schedstat"))).sum())
        .unwrap_or_default()
}

/// On-CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    schedstat(std::path::Path::new("/proc/thread-self/schedstat"))
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
