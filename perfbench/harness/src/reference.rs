//! A fixed reference task that times the host rather than the program,
//! and the CPU clock both are timed on.
//!
//! On the shared 2-core reference host, one fit of fixed code and inputs
//! drifts by ±20% over a minute with what other guests run on the same
//! cores and caches, so ten runs spread past any useful bound. A task
//! doing the same kind of work as counting (distance evaluations over
//! heap-allocated rows) drifts with it: over 15 s windows the two times
//! correlated at 0.90–0.97, and dividing one by the other cut their spread
//! from 0.14–0.21 to 0.05–0.08 (standard deviation over mean). The fit
//! workloads run this task around every fit and scale each fit's time by
//! how much faster than [`NOMINAL`] it ran.
//!
//! The task calls no code of the repository, allocates nothing while it
//! is timed, and its inputs are fixed, not drawn from the workload seed,
//! so no change to the program can move it.

use std::hint::black_box;
use std::time::Duration;

/// The task's median CPU time on the reference host (2-core Intel Xeon
/// guest). Fit times scaled by it read as on that host at its usual
/// speed.
pub const NOMINAL: Duration = Duration::from_millis(30);

/// Rows of the two brute-force pair counts the task runs: 20-d rows
/// (dominated by the arithmetic of each distance) and 3-d rows (by the
/// walk over the rows).
const ROWS_20D: usize = 1_200;
const ROWS_3D: usize = 2_500;

/// The task's fixed inputs.
pub struct Reference {
    rows20: Vec<Vec<f64>>,
    rows3: Vec<Vec<f64>>,
}

impl Reference {
    pub fn new() -> Self {
        // xorshift64: fixed inputs that owe nothing to the data generators
        // under test.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut unit = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = |n: usize, dim: usize| -> Vec<Vec<f64>> {
            (0..n).map(|_| (0..dim).map(|_| unit()).collect()).collect()
        };
        let rows20 = rows(ROWS_20D, 20);
        let rows3 = rows(ROWS_3D, 3);
        Reference { rows20, rows3 }
    }

    /// Runs the task once and returns the CPU time it took.
    pub fn run(&self) -> Duration {
        let c0 = process_cpu();
        black_box(pairs_within(black_box(&self.rows20), 0.5));
        black_box(pairs_within(black_box(&self.rows3), 0.01));
        process_cpu().saturating_sub(c0)
    }
}

/// Ordered pairs of `rows` (self-pairs included) closer than
/// `sqrt(r2)`.
fn pairs_within(rows: &[Vec<f64>], r2: f64) -> usize {
    let mut n = 0;
    for a in rows {
        for b in rows {
            let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            n += usize::from(d2 < r2);
        }
    }
    n
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("process_cpu assumes the 64-bit Linux `struct timespec` and clock ids");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of every thread of this process, to the nanosecond. It
/// leaves out time the process waited for a CPU, including time the
/// hypervisor gave the CPU to another guest (steal), and it charges a fit
/// for any thread the fit starts.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
