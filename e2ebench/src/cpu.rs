//! Process CPU time: the clock the end-to-end metrics are timed on.
//!
//! The CPU time of every thread of the process, living or ended (the
//! in-process daemon's threads included). Unlike the wall clock it does
//! not count time a thread waits for a core or time the hypervisor gives
//! the core to another guest, so other tenants of a shared host move it
//! far less than they move wall time.

use std::ffi::{c_int, c_long};

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time this process has used so far, in nanoseconds.
pub fn process_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A CPU-time stopwatch.
#[derive(Clone, Copy)]
pub struct Stopwatch(u64);

impl Stopwatch {
    /// Starts counting now.
    pub fn start() -> Stopwatch {
        Stopwatch(process_ns())
    }

    /// CPU time since the start, in nanoseconds.
    pub fn ns(self) -> u64 {
        process_ns().saturating_sub(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        // The clock is process-wide and tests run on parallel threads, so
        // only a lower bound holds here.
        let sw = Stopwatch::start();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spun = sw.ns();
        assert!(spun > 10_000_000, "spinning used only {spun} ns of CPU");
        assert!(process_ns() >= spun);
    }
}
