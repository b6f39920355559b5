//! Machine-speed calibration.
//!
//! The machines this benchmark runs on are shared. Neighbours contend for
//! caches and memory, so the speed of this process's cores drifts by 10% to
//! over 50% within a minute, and all cores drift together; no run length
//! averages that out. A phase therefore runs a fixed reference kernel on
//! every core at once after each timed interval, for a fixed share of the
//! interval's length, and its times are scaled by [`REFERENCE_SECONDS`] ÷
//! the kernel's mean time over the phase, and by the share of busy CPU time
//! the hypervisor did not steal: times are reported at a fixed reference
//! speed of a machine of its own.
//!
//! The kernel does a compiler's kind of work on a small random control-flow
//! graph: it builds successor and predecessor lists and block names, walks
//! the graph in depth-first order, runs three rounds of a hash-map dataflow
//! over it, and clones it. Of the kernels tried (pointer walks through
//! 16 KiB to 1 MiB, hashing, allocation, and this one), this one tracked the
//! system's own drift best. It is the benchmark's own code, so no change to
//! the system can move it, and it is timed in thread CPU time while the
//! system's threads are idle, so they could not slow it by taking its core.
//!
//! One scale serves a whole phase. The cores' speed swings within tenths of
//! a second, so a sample taken next to an interval says little about that
//! interval: scaled by the sample taken right after it, one request still
//! moved by 10–20% between repeats. The mean over samples spread evenly
//! through the phase tracks the phase's mean speed, and tracks it better the
//! more of the phase is sampled: sampling 5%, 10% and 20% of each interval
//! left run-to-run spreads of the phase's wall time (IQR ÷ median over five
//! repeats of one seed, per workload) of 2–11%, 1–6% and 2–5%.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// The kernel's CPU time per repetition at the reference speed: its median
/// on the 2-core x86-64 VM the bounds were set on, at a quiet time.
pub const REFERENCE_SECONDS: f64 = 0.00080;
/// Kernel time after each interval, as a share of the interval.
pub const SAMPLE_SHARE: f64 = 0.1;
/// Repetitions per core in every sample, however short its interval.
const MIN_REPS: usize = 3;
/// Blocks in the kernel's control-flow graph.
const BLOCKS: usize = 1500;

/// The reference work; returns a digest so none of it can be elided.
fn kernel() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Mostly fall-through edges, one in four a jump anywhere.
    let succs: Vec<Vec<u32>> = (0..BLOCKS)
        .map(|i| {
            let edges = 1 + next() % 3;
            (0..edges)
                .map(|_| match next() % 4 {
                    0 => (next() % BLOCKS as u64) as u32,
                    _ => ((i + 1) % BLOCKS) as u32,
                })
                .collect()
        })
        .collect();
    let names: Vec<String> = (0..BLOCKS).map(|i| format!("bb{i}.{}", i % 7)).collect();
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); BLOCKS];
    for (from, targets) in succs.iter().enumerate() {
        for &to in targets {
            preds[to as usize].push(from as u32);
        }
    }
    let mut seen = vec![false; BLOCKS];
    let (mut order, mut stack) = (Vec::new(), vec![0u32]);
    while let Some(b) = stack.pop() {
        if !std::mem::replace(&mut seen[b as usize], true) {
            order.push(b);
            stack.extend(&succs[b as usize]);
        }
    }
    let mut facts: HashMap<u32, u64> = HashMap::new();
    let mut interesting = BTreeSet::new();
    for round in 0..3u64 {
        for &b in &order {
            let mut h = round ^ names[b as usize].len() as u64;
            for p in &preds[b as usize] {
                let fact = facts.get(p).copied().unwrap_or(u64::from(*p));
                h = (h ^ fact).wrapping_mul(0x100_0000_01b3);
            }
            facts.insert(b, h);
            if h.is_multiple_of(5) {
                interesting.insert(h);
            }
        }
    }
    let copy = succs.clone();
    (facts.len() + interesting.len() + copy.len()) as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has used.
fn thread_cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One core's repetitions of the kernel for `seconds` of wall time (at
/// least [`MIN_REPS`]), each in CPU seconds.
fn lane(seconds: f64) -> Vec<f64> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let t = thread_cpu_seconds();
        std::hint::black_box(kernel());
        reps.push(thread_cpu_seconds() - t);
    }
    reps
}

/// Busy and stolen CPU ticks of the whole machine so far, from the first
/// line of `/proc/stat`; zeros where it cannot be read.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal
    let at = |i: usize| fields.get(i).copied().unwrap_or(0);
    let busy = at(0) + at(1) + at(2) + at(5) + at(6) + at(7);
    (busy, at(7))
}

/// What a phase's times are multiplied by to read at the reference speed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// For CPU time: the reference kernel time ÷ the kernel's mean time.
    pub cpu: f64,
    /// The share of busy CPU time the hypervisor did not steal.
    pub unstolen: f64,
}

impl Scale {
    /// For wall time, which steal stretches as well.
    ///
    /// Both corrections are needed. Neighbours slow this machine's cores
    /// down, which the kernel sees; the hypervisor also takes the virtual
    /// CPUs away altogether (steal), which stretches wall time but neither
    /// the kernel's thread CPU time nor the process's. Runs of the same
    /// serve-cold draw with 15% and 32% of busy time stolen read 18% and
    /// 43% slower than one with 2% until steal was corrected for, and within
    /// 2% of it after.
    pub fn wall(self) -> f64 {
        self.cpu * self.unstolen
    }
}

/// Kernel samples through one phase.
#[derive(Debug)]
pub struct Calibrator {
    /// Machine (busy, stolen) ticks when the phase began.
    ticks: (u64, u64),
    /// Every repetition's CPU seconds, over all cores and samples.
    reps: Vec<f64>,
    samples: usize,
}

impl Calibrator {
    pub fn start() -> Calibrator {
        Calibrator { ticks: cpu_ticks(), reps: Vec::new(), samples: 0 }
    }

    /// Runs the kernel on every core at once for [`SAMPLE_SHARE`] of
    /// `interval` seconds, the length of the timed interval just ended.
    pub fn sample_after(&mut self, interval: f64) {
        let seconds = SAMPLE_SHARE * interval;
        let lanes: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..crate::sys::nproc()).map(|_| s.spawn(move || lane(seconds))).collect();
            handles.into_iter().map(|h| h.join().expect("calibration thread panicked")).collect()
        });
        self.reps.extend(lanes.concat());
        self.samples += 1;
    }

    /// The kernel's mean time per repetition so far; `NaN` before a sample.
    pub fn mean_seconds(&self) -> f64 {
        self.reps.iter().sum::<f64>() / self.reps.len() as f64
    }

    /// The phase's scale: the kernel's mean over every sample, and the steal
    /// share of busy machine time since [`Calibrator::start`].
    pub fn scale(&self) -> Scale {
        let (busy, stolen) = cpu_ticks();
        Scale {
            cpu: REFERENCE_SECONDS / self.mean_seconds(),
            unstolen: 1.0 - self.stolen_share(busy, stolen),
        }
    }

    fn stolen_share(&self, busy: u64, stolen: u64) -> f64 {
        let (busy0, stolen0) = self.ticks;
        match busy.checked_sub(busy0) {
            Some(b) if b > 0 => stolen.saturating_sub(stolen0) as f64 / b as f64,
            _ => 0.0,
        }
    }

    /// A note line: samples, repetitions, the kernel's mean and the steal.
    pub fn describe(&self, what: &str) -> String {
        let s = self.scale();
        format!(
            "{what}: {} speed samples, {} kernel repetitions, mean {:.3} ms (reference {:.3} ms); \
             {:.3} of busy CPU time stolen",
            self.samples,
            self.reps.len(),
            self.mean_seconds() * 1e3,
            REFERENCE_SECONDS * 1e3,
            1.0 - s.unstolen,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn samples_run_for_their_share_of_the_interval() {
        let mut cal = Calibrator::start();
        cal.sample_after(0.0);
        let per_core = crate::sys::nproc() * MIN_REPS;
        assert_eq!(cal.reps.len(), per_core, "a zero-length interval still samples");
        let t = Instant::now();
        cal.sample_after(0.25);
        assert!(t.elapsed().as_secs_f64() >= SAMPLE_SHARE * 0.25);
        assert!(cal.reps.len() > 2 * per_core);
        let s = cal.scale();
        assert!((s.cpu * cal.mean_seconds() - REFERENCE_SECONDS).abs() < 1e-15);
        assert!((0.0..=1.0).contains(&s.unstolen));
        assert_eq!(s.wall(), s.cpu * s.unstolen);
    }

    #[test]
    fn steal_is_the_share_of_busy_ticks_since_the_start() {
        let mut cal = Calibrator::start();
        cal.ticks = (1000, 100);
        assert!((cal.stolen_share(1400, 150) - 50.0 / 400.0).abs() < 1e-12);
        assert_eq!(cal.stolen_share(1000, 100), 0.0, "no busy ticks, no share");
    }
}
