//! The host fingerprint printed with every result.

use annolight_imgproc::simd::{kernel_tier, KernelTier};
use annolight_support::json::{Json, ToJson};
use annolight_support::json_obj;
use std::path::Path;

/// Where the result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// `std::thread::available_parallelism`.
    pub logical_cores: usize,
    /// The best kernel tier the CPU supports.
    pub detected_tier: &'static str,
    /// The tier the kernels actually run.
    pub active_tier: &'static str,
    /// Whether `ANNOLIGHT_KERNEL_TIER` pinned the tier (results taken
    /// under a pin are not comparable with unpinned ones).
    pub tier_pinned: bool,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// The commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this process's host.
    #[must_use]
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            cpu,
            logical_cores: std::thread::available_parallelism().map_or(1, usize::from),
            detected_tier: KernelTier::detect().name(),
            active_tier: kernel_tier().name(),
            tier_pinned: std::env::var_os("ANNOLIGHT_KERNEL_TIER").is_some(),
            rustc: env!("SESSIONBENCH_RUSTC"),
            commit: commit(Path::new(env!("CARGO_MANIFEST_DIR")).join("..").as_path())
                .unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

impl ToJson for Fingerprint {
    fn to_json(&self) -> Json {
        json_obj!({
            "cpu": self.cpu,
            "logical_cores": self.logical_cores,
            "kernel_tier_detected": self.detected_tier,
            "kernel_tier_active": self.active_tier,
            "kernel_tier_pinned": self.tier_pinned,
            "rustc": self.rustc,
            "commit": self.commit,
        })
    }
}

/// Resolves `HEAD` by reading the `.git` directory under `root` (no git
/// process, nothing read outside the checkout).
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_owned())
}

/// Peak resident set size (`VmHWM`) of this process in MiB, or `None`
/// off Linux.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
