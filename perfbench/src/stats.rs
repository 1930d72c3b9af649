//! Order statistics and process probes.

/// Nearest-rank `q`-quantile of an unsorted sample (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    permsearch_obs::percentile(&sorted, q)
}

/// Median of an unsorted sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Resident set size of this process in MiB (`VmRSS`), 0 off Linux.
///
/// The allocator's free pages are handed back to the OS first. Without
/// that, the reading swung by one 10 MB arena between runs of the same
/// inputs, depending on whether the allocator kept a discarded set-up
/// build's arena.
pub fn rss_mb() -> f64 {
    release_free_memory();
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only returns free
    // heap pages to the OS and leaves every live allocation in place.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
