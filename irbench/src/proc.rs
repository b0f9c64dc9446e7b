//! Process accounting from `getrusage(2)`: CPU time and peak resident
//! set of this process and of the children it has waited for (the
//! `experiments` CLI runs). `ru_maxrss` is the kernel's high-water mark,
//! the same counter `/proc/self/status` shows as `VmHWM`.

use std::time::Duration;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` of the layout
    // 64-bit Linux defines, and `who` is one of the two constants the
    // call accepts, so it cannot fail or write out of bounds.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    ru
}

fn cpu_of(ru: &Rusage) -> Duration {
    let tv = |t: Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1000);
    tv(ru.utime) + tv(ru.stime)
}

/// User + system CPU time of this process and its waited-for children.
pub fn cpu_time() -> Duration {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set, MiB: the larger of this process's and its
/// largest waited-for child's.
pub fn peak_rss_mib() -> f64 {
    let kib = rusage(RUSAGE_SELF)
        .maxrss_kib
        .max(rusage(RUSAGE_CHILDREN).maxrss_kib);
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_under_load() {
        let before = cpu_time();
        let t0 = std::time::Instant::now();
        let mut x = 1u64;
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = cpu_time() - before;
        assert!(spent >= Duration::from_millis(20), "{spent:?}");
        assert!(spent <= Duration::from_secs(5), "{spent:?}");
    }

    #[test]
    fn peak_rss_covers_a_touched_buffer() {
        let before = peak_rss_mib();
        assert!(before > 0.5, "{before}");
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let after = peak_rss_mib();
        assert!(after >= 64.0, "{after}");
        assert!(after >= before);
        // Agrees with the kernel's own rendering of the same counter.
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let hwm_kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap();
        assert!((hwm_kib / 1024.0 - peak_rss_mib()).abs() < 8.0);
    }
}
