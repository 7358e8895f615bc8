//! What the operating system knows about this process and machine:
//! `/proc/self/{status,stat}` counters and the run header's provenance.

use std::fs;

/// `VmHWM` (peak resident set) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Voluntary context switches of the whole process so far (every thread:
/// the runtime's workers block and wake on behalf of the requests).
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| field(&s, "voluntary_ctxt_switches:"))
        .sum()
}

/// User + system CPU time of the process so far, in microseconds.
pub fn cpu_time_us() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (USER_HZ = 100 on Linux).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 10_000
}

fn status_field(key: &str) -> Option<u64> {
    field(&fs::read_to_string("/proc/self/status").ok()?, key)
}

fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

// `std` links the C library on Linux; these two calls are the only thing
// the benchmark needs from it that `std` does not wrap.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a `cpu_set_t` (1024 bits).
const CPU_SET_WORDS: usize = 16;

/// Pins the calling thread — the only one, when called first thing in
/// `main`, so every thread started later inherits the mask — to the last
/// processor it is allowed on (device interrupts usually land on the
/// first). Returns that processor, or `None` when the kernel refused and
/// the run goes on unpinned.
///
/// Why: the sandbox's processors are threads of a shared host. A wake-up
/// that crosses from one to the other goes through the host and costs
/// ~45 µs; one that stays on a processor costs ~4 µs (a blocking 64-byte
/// ping-pong between two threads over loopback measures exactly these two
/// values). Which of the two a run gets is the guest scheduler's placement
/// of the generator against the runtime's workers, it depends on what the
/// machine did in the minute before (after a compile: across), it holds for
/// minutes, and it moved `status_churn`'s read rate by a factor of two.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `bytes` long, writable, and outlives the call;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = last_set_bit(&allowed)?;
    let mut only = [0u64; CPU_SET_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is `bytes` long and outlives the call.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
}

fn last_set_bit(words: &[u64]) -> Option<usize> {
    words
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

/// The commit of the checkout the benchmark runs in, when it is one.
pub fn commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown (not a git checkout)".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or(head),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_read_as_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(field(text, "VmHWM:"), Some(2048));
        assert_eq!(field(text, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(field(text, "missing:"), None);
    }

    #[test]
    fn the_last_allowed_processor_is_found() {
        assert_eq!(last_set_bit(&[0, 0]), None);
        assert_eq!(last_set_bit(&[0b11, 0]), Some(1));
        assert_eq!(last_set_bit(&[1, 0b100]), Some(66));
    }
}
