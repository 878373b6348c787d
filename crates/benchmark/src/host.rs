//! What a reader needs to know about the machine a result came from.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Iterations of the calibration loop (~0.1 s on the reference host).
const CALIBRATION_ROUNDS: u64 = 50_000_000;

/// Times a fixed CPU-bound loop, in ms. Taken before and after each
/// workload: when the two differ by more than a tenth the host was busy
/// with something else and the run is flagged `noisy`. Reported only —
/// never used to rescale a measurement.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..black_box(CALIBRATION_ROUNDS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Whether two calibration readings differ by more than a tenth.
pub fn is_noisy(before_ms: f64, after_ms: f64) -> bool {
    let (lo, hi) = if before_ms < after_ms {
        (before_ms, after_ms)
    } else {
        (after_ms, before_ms)
    };
    hi > lo * 1.1
}

/// Peak resident set (`VmHWM`) of this process in MiB; `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Usable hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc -V` of the toolchain on the path, or "unknown".
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The commit checked out in `root`, read from `.git` directly (no
/// subprocess, nothing outside `root`); "unknown" for a plain directory.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noisy_means_more_than_a_tenth_apart() {
        assert!(!is_noisy(100.0, 109.0));
        assert!(!is_noisy(109.0, 100.0));
        assert!(is_noisy(100.0, 111.0));
        assert!(is_noisy(111.0, 100.0));
    }

    #[test]
    fn plain_directory_has_no_commit() {
        assert_eq!(
            git_commit(Path::new("/nonexistent-dsec-benchmark")),
            "unknown"
        );
    }
}
