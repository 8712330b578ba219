//! Wall and per-thread CPU clocks for benchmark spans.
//!
//! Thread CPU time comes from `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`,
//! declared here directly: std already links the C library, so no crate is
//! needed. Beside wall time it separates "the work got slower" from "the
//! rank thread was descheduled" on a box with fewer cores than threads.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for), and the clock
    // id is a constant the kernel defines for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and thread-CPU seconds of one timed region.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Elapsed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl std::ops::AddAssign for Elapsed {
    fn add_assign(&mut self, o: Elapsed) {
        self.wall_s += o.wall_s;
        self.cpu_s += o.cpu_s;
    }
}

/// Runs `f` and returns its result with the wall and calling-thread CPU
/// time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Elapsed) {
    let cpu0 = thread_cpu_s();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_s() - cpu0;
    (r, Elapsed { wall_s, cpu_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_not_with_sleep() {
        let (_, busy) = timed(|| {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            x
        });
        assert!(busy.cpu_s > 0.0 && busy.cpu_s <= busy.wall_s * 1.05 + 1e-3);
        let (_, idle) = timed(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(idle.wall_s >= 0.05);
        assert!(idle.cpu_s < 0.02, "sleeping burned {} s of CPU", idle.cpu_s);
    }
}
