//! The calling thread's on-CPU time.
//!
//! The benchmark's machine is a few virtual cores of a shared host, and the
//! host takes a core away in bursts: twelve identical repetitions of
//! `row_ingest` in one run measured 22k–69k rows/s by the wall clock. The
//! kernel accounts that stolen time and leaves it out of a thread's CPU
//! time, which under the engine policy (one client thread, memory VFS,
//! inline flush and merge: nothing the client waits for runs elsewhere) is
//! the time the program itself needed.

use std::ffi::{c_int, c_long};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads the thread CPU clock as 64-bit Linux defines it");

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Nanoseconds the calling thread has spent on a CPU since it started.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` as 64-bit Linux lays
    // it out (two longs), and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "every Linux has the thread CPU clock");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn advances_with_work_and_not_with_sleep() {
        let before = thread_cpu_ns();
        let t = Instant::now();
        let mut x = 1u64;
        while t.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let worked = thread_cpu_ns() - before;
        assert!(
            worked > 2_000_000,
            "20 ms of spinning is CPU time: {worked}"
        );

        let before = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_ns() - before;
        assert!(slept < 25_000_000, "sleeping is not CPU time: {slept}");
    }
}
