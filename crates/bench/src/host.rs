//! The host fingerprint recorded with every committed benchmark result,
//! so results from different machines and commits can be told apart.

use annolight_imgproc::simd::kernel_tier;
use std::path::Path;

/// Where a benchmark result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// `std::thread::available_parallelism`.
    pub logical_cores: usize,
    /// The kernel tier the per-pixel kernels ran at.
    pub kernel_tier: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// `HEAD` of the checkout the benchmark was built in (the measured
    /// tree may carry uncommitted changes on top of it), or `unknown`
    /// outside a git checkout.
    pub commit: String,
}

annolight_support::impl_json!(struct HostFingerprint { cpu, logical_cores, kernel_tier, rustc, commit });

impl HostFingerprint {
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
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        Self {
            cpu,
            logical_cores: std::thread::available_parallelism().map_or(1, usize::from),
            kernel_tier: kernel_tier().name().to_owned(),
            rustc: env!("ANNOLIGHT_BENCH_RUSTC").to_owned(),
            commit: commit(&root).unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

/// Resolves `HEAD` by reading the `.git` directory under `root`.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_the_host() {
        let h = HostFingerprint::read();
        assert!(!h.cpu.is_empty());
        assert!(h.logical_cores >= 1);
        assert_eq!(h.kernel_tier, kernel_tier().name());
        assert!(!h.rustc.is_empty());
        assert!(!h.commit.is_empty());
    }
}
