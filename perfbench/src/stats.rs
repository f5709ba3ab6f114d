//! Order statistics over pass samples and readings of the process's own
//! resource counters from `/proc/self`.

use std::fs;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields in `/proc/self/stat`
/// (`USER_HZ`, 100 on every mainstream Linux architecture).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest sample that still has at least `beyond` samples above it,
/// with its percentile rank (share of samples at or below it, in percent).
/// `None` when there are not more than `beyond` samples.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    if values.len() <= beyond {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = sorted.len() - 1 - beyond;
    let percentile = 100.0 * (index + 1) as f64 / sorted.len() as f64;
    Some((sorted[index], percentile))
}

/// User plus system CPU seconds this process has used so far, all threads
/// included (exited ones too), from `/proc/self/stat`.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis start at field 3 (`state`).
    let rest = &stat[stat.rfind(')').expect("/proc/self/stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> f64 {
        fields[field - 3]
            .parse::<u64>()
            .expect("/proc/self/stat tick fields are integers") as f64
    };
    (ticks(14) + ticks(15)) / CLOCK_TICKS_PER_S
}

/// CPU seconds the hypervisor gave to other guests while the system's
/// CPUs had work ("steal", `/proc/stat`), averaged over the CPUs. Zero where
/// the kernel does not report it.
pub fn stolen_per_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l[3..].starts_with(|c: char| c.is_ascii_digit()))
        .count()
        .max(1);
    let steal = stat
        .lines()
        .next()
        .and_then(|total| total.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<u64>().ok())
        .unwrap_or(0);
    steal as f64 / CLOCK_TICKS_PER_S / cpus as f64
}

/// Times an interval two ways: wall-clock seconds, and wall-clock seconds
/// less the time the hypervisor stole from the system's CPUs meanwhile.
/// On a shared host the steal rate swings from near zero to a third of the
/// CPU within minutes; the second reading keeps that swing out of the
/// program's timings. The interval loses the per-CPU share of the steal.
/// Steal builds up only on a CPU that has work, so this corrects a stretch
/// that keeps every CPU busy in full and a single-threaded stretch only in
/// part: the more parallel an interval, the more of its steal is removed.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    began: Instant,
    stolen: f64,
}

impl Timer {
    /// Starts timing.
    pub fn start() -> Timer {
        Timer {
            stolen: stolen_per_cpu_s(),
            began: Instant::now(),
        }
    }

    /// `(wall seconds, wall seconds less stolen time)` since the start. Steal
    /// is counted in 10 ms ticks, so the second reading is floored at 5 % of
    /// the first: tick rounding on a short interval cannot make it vanish.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.began.elapsed().as_secs_f64();
        let stolen = stolen_per_cpu_s() - self.stolen;
        (wall, (wall - stolen).max(wall * 0.05))
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kb / 1024.0
}

/// CPU seconds per pass, pooled over blocks of at least [`CpuBlocks::BLOCK_S`]
/// wall seconds. `/proc/self/stat` counts in 10 ms ticks, so a short pass
/// reads as a handful of ticks; pooling passes into one-second blocks keeps
/// each block's per-pass figure to within 1 % before the median over blocks
/// is taken.
#[derive(Debug, Default)]
pub struct CpuBlocks {
    wall_s: f64,
    cpu_s: f64,
    passes: usize,
    per_pass: Vec<f64>,
}

impl CpuBlocks {
    /// Minimum wall-clock length of one block.
    pub const BLOCK_S: f64 = 1.0;

    /// Adds one pass's wall and CPU seconds.
    pub fn add(&mut self, wall_s: f64, cpu_s: f64) {
        self.wall_s += wall_s;
        self.cpu_s += cpu_s;
        self.passes += 1;
        if self.wall_s >= Self::BLOCK_S {
            self.close_block();
        }
    }

    fn close_block(&mut self) {
        if self.passes > 0 {
            self.per_pass.push(self.cpu_s / self.passes as f64);
        }
        *self = Self {
            per_pass: std::mem::take(&mut self.per_pass),
            ..Self::default()
        };
    }

    /// Median over blocks of CPU seconds per pass; a trailing partial block
    /// counts as a block. `None` before the first pass.
    pub fn median_per_pass(mut self) -> Option<f64> {
        self.close_block();
        (!self.per_pass.is_empty()).then(|| median(&self.per_pass))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_the_requested_samples_beyond_it() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let (value, percentile) = tail(&values, 10).unwrap();
        assert_eq!(value, 10.0);
        assert_eq!(percentile, 50.0);
        assert_eq!(values.iter().filter(|v| **v > value).count(), 10);
        assert!(tail(&values[..10], 10).is_none());
    }

    #[test]
    fn cpu_blocks_pool_short_passes() {
        let mut blocks = CpuBlocks::default();
        for _ in 0..10 {
            blocks.add(0.25, 0.5);
        }
        assert_eq!(blocks.median_per_pass(), Some(0.5));
        assert_eq!(CpuBlocks::default().median_per_pass(), None);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(stolen_per_cpu_s() >= 0.0);
    }

    #[test]
    fn timer_excludes_no_more_than_it_measured() {
        let timer = Timer::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (wall, own) = timer.stop();
        assert!(wall >= 0.02);
        assert!(own > 0.0 && own <= wall);
    }
}
