//! Sample statistics, host timing and the simulated-output digest.

use std::time::Instant;

/// Nearest-rank percentile `p` (0–100) of `samples`, sorting them in
/// place. Returns 0 for an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (nearest rank), sorting them in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The throughput a run reports: the 95th percentile of its equal-work
/// blocks' rates. Every block does the same simulated work, so blocks
/// differ only by how much other tenants of a shared host slowed them.
/// Such hosts alternate fast and slow spells lasting seconds; a median
/// flips between them from run to run, while the 95th percentile tracks
/// the simulator's own speed.
pub fn sustained_rate(block_rates: &mut [f64]) -> f64 {
    percentile(block_rates, 95.0)
}

/// This thread's CPU time in ns (`CLOCK_THREAD_CPUTIME_ID`). Timed
/// phases use it instead of the wall clock: on a shared virtual machine
/// the kernel leaves out the time the hypervisor gave this vCPU to other
/// tenants (steal time), which otherwise stretches whole runs by tens of
/// percent. For a thread that never blocks it equals wall time on a
/// dedicated host.
pub fn cpu_ns() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the cfg below requires) for the whole
    // call, and `clock_gettime` only writes through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU-time clock is unavailable");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hivebench reads the thread CPU-time clock of 64-bit Linux");

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Runs `f` `reps` times and returns the median of its results: probes
/// report the median of several timed blocks so one preempted block
/// does not move the number.
pub fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut values: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&mut values)
}

/// A 64-bit FNV-1a digest over words of simulated output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
