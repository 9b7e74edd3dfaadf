//! The CPU the run may use and the CPU time a thread has had, from Linux.
//!
//! The benchmark runs on shared machines whose hosts take CPU time away
//! (steal) in amounts that drift over minutes. The Algorithm 1 path runs
//! on one thread, and its operations are timed by that thread's CPU clock,
//! which counts only the time the thread ran: the kernel's paravirtual
//! steal accounting leaves stolen time out, and so does time slicing with
//! other threads. The CPU cost of a 4096-row lvpd round trip is read off
//! the process's CPU clock, which sums its threads alike. The whole run is
//! held on one CPU, so wall-clock round trips move with one CPU's
//! availability, not with the slower of two.

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A `cpu_set_t` of 1024 CPUs, as glibc defines it.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// CPU time the calling thread has run, in milliseconds.
pub fn thread_ms() -> f64 {
    clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of this process have run, in milliseconds.
pub fn process_ms() -> f64 {
    clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

fn clock_ms(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec`; both CPU-time clocks
    // exist on every Linux since 2.6.12, so the call cannot fail.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Restricts the calling thread, and so every thread it starts later, to
/// the lowest-numbered CPU it may run on.
pub fn pin_to_one() -> Result<(), String> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask names no CPU")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_clock_advances_with_work_not_with_sleep() {
        let t0 = super::thread_ms();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = super::thread_ms() - t0;
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let worked = super::thread_ms() - t0 - slept;
        assert!(slept < 5.0, "sleeping cost {slept} ms of CPU");
        assert!(worked > 1.0, "20M multiply-adds cost {worked} ms of CPU");
    }
}
