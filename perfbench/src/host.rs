//! Host fingerprint: CPU counts, effective thread counts, peak memory
//! and an in-process calibration loop, so figures from different hosts
//! are never compared as equals.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// CPUs this process may run on (what `nproc` prints), from the
/// affinity list in `/proc/self/status`; falls back to
/// `available_parallelism`.
pub fn nproc() -> usize {
    proc_status_field("Cpus_allowed_list")
        .and_then(|list| cpu_list_len(&list))
        .unwrap_or_else(available_parallelism)
}

/// `std::thread::available_parallelism`, the figure the driver and the
/// runtime size their pools from.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resident set size of this process now, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    proc_status_field("VmRSS")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Run `f` while a helper thread samples the resident set every 5 ms;
/// returns `f`'s result and the highest sample in MiB. Unlike the
/// process-lifetime `VmHWM`, this gives one peak per pass, so a run can
/// report the median pass peak.
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_mb();
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(rss_mb());
            }
            peak
        });
        let out = f();
        done.store(true, Ordering::SeqCst);
        let peak = sampler.join().expect("the RSS sampler panicked");
        (out, peak.max(rss_mb()))
    })
}

fn proc_status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k == key).then(|| v.trim().to_string())
    })
}

/// Count the CPUs in a kernel CPU list such as `0-3,6,8-9`.
fn cpu_list_len(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (a, b) = part.split_once('-').unwrap_or((part, part));
        let (a, b) = (
            a.trim().parse::<usize>().ok()?,
            b.trim().parse::<usize>().ok()?,
        );
        n += b.checked_sub(a)? + 1;
    }
    Some(n)
}

/// Nanoseconds per iteration of a fixed integer mixing loop, best of
/// ten: the in-process calibration figure (the method of the
/// threaded-dispatch A/B in `docs/architecture.md`). It moves with the
/// host's speed and contention, not with any code in the repository.
pub fn calibration_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..10 {
        let t = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(black_box(i));
        }
        black_box(x);
        best = best.min(t.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    best
}

/// One-line JSON fingerprint printed ahead of every result.
pub fn fingerprint_json(workers: usize, verify_threads: usize) -> String {
    format!(
        "{{\"nproc\":{},\"available_parallelism\":{},\"workers\":{},\"verify_threads\":{},\"calibration_ns_per_iter\":{}}}",
        nproc(),
        available_parallelism(),
        workers,
        verify_threads,
        calibration_ns()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count() {
        assert_eq!(cpu_list_len("0-3,6,8-9"), Some(7));
        assert_eq!(cpu_list_len("0"), Some(1));
        assert_eq!(cpu_list_len("x"), None);
    }
}
