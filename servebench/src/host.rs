//! How fast the host runs right now, so that the CPU-bound figures
//! (offline throughput and set-up time) measure the program and not the
//! other tenants of a shared host.
//!
//! Two things change how long a CPU-bound drain takes between runs a
//! few minutes apart. The hypervisor gives the cores to other tenants
//! (steal), and the cores run the same instructions slower while other
//! tenants load the host: on the 2-vCPU VM the figures were set on, a
//! warm drain took 0.27 CPU-seconds in one hour and 0.45–0.55 in the
//! next. Process CPU time removes the first. A fixed reference kernel,
//! timed in CPU time between the pieces of work, measures the second:
//! each piece's CPU time is scaled by how much faster or slower than
//! nominal the kernel ran around it.

use std::hint::black_box;

/// Instructions in the reference program.
const PROGRAM: usize = 4096;
/// Instructions each thread executes in one reference run.
const STEPS: usize = 3_000_000;

/// CPU seconds per thread of one reference run on the 2-vCPU Xeon VM
/// the benchmark's figures were set on, two threads at once. Scaled
/// figures are per CPU-second of a host that runs the kernel this fast.
pub const NOMINAL_REFERENCE_S: f64 = 0.043;

/// CPU time this process has used so far, over all its threads (live
/// and ended), user and system, in s. Time a thread spent waiting for
/// a core is not counted, whether other processes held it or, on a
/// guest kernel with paravirtual steal accounting, the hypervisor gave
/// it to another tenant.
///
/// # Panics
///
/// Panics if the clock cannot be read.
#[must_use]
fn process_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `timespec` for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// One step of a xorshift generator.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One thread's share of a reference run: a four-register machine
/// running a seeded random program of six integer instructions, two of
/// them data-dependent branches. On a loaded host the CPU time of this
/// branchy integer code followed the drains' more closely, drain by
/// drain, than that of a floating-point matrix–vector kernel, which
/// barely slowed while the drains took twice as long.
fn reference_kernel() {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let program: Vec<u8> = (0..PROGRAM).map(|_| (xorshift(&mut x) % 6) as u8).collect();
    let program = black_box(program);
    let mut r: [u64; 4] = black_box([1, 2, 3, 4]);
    for step in 0..STEPS {
        let a = step & 3;
        let (b, c, d) = ((a + 1) & 3, (a + 2) & 3, (a + 3) & 3);
        match program[step % PROGRAM] {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] ^= r[c] >> 3,
            2 => {
                if r[a] & 1 == 0 {
                    r[a] = r[a].wrapping_mul(3);
                } else {
                    r[a] >>= 1;
                }
            }
            3 => r[a] = r[a].rotate_left(7),
            4 => r[d] = r[a].wrapping_sub(5),
            _ => {
                if r[a] > r[b] {
                    r.swap(a, b);
                }
            }
        }
    }
    black_box(r);
}

/// Runs the reference kernel on `threads` threads at once, as the
/// engine's workers run a drain, and returns its CPU seconds per
/// thread.
#[must_use]
fn reference_s(threads: usize) -> f64 {
    let threads = threads.max(1);
    let start = process_cpu_s();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(reference_kernel);
        }
    });
    (process_cpu_s() - start) / threads as f64
}

/// The host's speed relative to nominal around a piece of work, from
/// reference runs just before and just after it: above 1 on a faster
/// host, below 1 on a slower one.
#[must_use]
fn speed(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_REFERENCE_S / ((before_s + after_s) / 2.0)
}

/// Work timed in process CPU time and scaled to nominal host speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scaled<T> {
    /// What the work returned.
    pub value: T,
    /// Its CPU seconds times the host's speed: the CPU seconds it would
    /// have taken on a host of nominal speed.
    pub cpu_s: f64,
    /// The host's speed around it.
    pub speed: f64,
}

/// Reference runs on `threads` threads, kept so that consecutive
/// pieces of work share the run between them.
#[derive(Debug)]
pub struct HostClock {
    threads: usize,
    last_s: f64,
}

impl HostClock {
    /// Makes the first reference run.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            last_s: reference_s(threads),
        }
    }

    /// Runs `work`, then a reference run, and scales the work's CPU
    /// time by the speed the runs on either side of it read.
    pub fn measure<T>(&mut self, work: impl FnOnce() -> T) -> Scaled<T> {
        let start = process_cpu_s();
        let value = work();
        let cpu_s = process_cpu_s() - start;
        let after_s = reference_s(self.threads);
        let speed = speed(self.last_s, after_s);
        self.last_s = after_s;
        Scaled {
            value,
            cpu_s: cpu_s * speed,
            speed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn process_cpu_time_counts_work() {
        // Other tests' threads share the process clock, so only a lower
        // bound on the spinning thread's share can be checked here.
        let start = process_cpu_s();
        let spin = Instant::now();
        let mut x = 0_u64;
        while spin.elapsed() < Duration::from_millis(100) {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let worked = process_cpu_s() - start;
        assert!(worked > 0.02, "spinning used only {worked} s of CPU");
    }

    #[test]
    fn speed_is_nominal_over_the_mean_reference_time() {
        let nominal = NOMINAL_REFERENCE_S;
        assert!((speed(nominal, nominal) - 1.0).abs() < 1e-12);
        assert!((speed(nominal, 3.0 * nominal) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scaled_time_is_cpu_time_times_speed() {
        let mut clock = HostClock::new(1);
        let scaled = clock.measure(|| reference_s(1));
        assert!(scaled.speed > 0.0 && scaled.speed.is_finite());
        // The work is itself a reference run, so at the speed read
        // around it, it takes about the nominal time.
        let ratio = scaled.cpu_s / NOMINAL_REFERENCE_S;
        assert!(ratio > 0.25 && ratio < 4.0, "scaled {ratio} of nominal");
    }
}
