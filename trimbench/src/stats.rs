//! Order statistics over the benchmark's own samples, process memory,
//! and the CPU time the host steals from this VM. No figure comes from
//! the program's log2 histograms.

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty or non-finite sample.
pub fn median(samples: &mut [f64]) -> f64 {
    sort(samples);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Nearest-rank quantile `q` of `samples`: the smallest sample with at
/// least `q·n` samples at or below it.
///
/// # Panics
/// Panics on an empty or non-finite sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    sort(samples);
    let rank = (q * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// Samples lying strictly beyond the nearest-rank quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sort(samples: &mut [f64]) {
    assert!(!samples.is_empty(), "no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
///
/// # Panics
/// Panics where `/proc/self/status` is unavailable or lacks `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Seconds per clock tick of `/proc/stat` (`USER_HZ`, 100 on Linux).
const TICK_SECS: f64 = 0.01;

/// Steal time the host has taken from this VM's CPUs so far, in seconds
/// (the `steal` column of `/proc/stat`); 0 where unavailable.
fn stolen_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks as f64 * TICK_SECS)
}

/// What other tenants of the host took from one measurement: the CPU
/// time stolen from this VM while it ran, and its wall time. On a shared
/// host, steal swings a run's wall times by tens of percent; it is
/// contention, not the program's cost.
#[derive(Debug, Clone, Copy)]
pub struct Steal {
    pub stolen: f64,
    pub wall: f64,
}

impl Steal {
    /// `secs` of the measurement less the time stolen meanwhile, at most
    /// half of it (steal is counted in 10 ms ticks and summed over CPUs).
    pub fn net(&self, secs: f64) -> f64 {
        secs - self.stolen.min(secs / 2.0)
    }

    fn share(&self) -> f64 {
        self.stolen / self.wall.max(f64::MIN_POSITIVE)
    }
}

/// Runs `f` and returns its result with the steal it suffered.
pub fn with_steal<T>(f: impl FnOnce() -> T) -> (T, Steal) {
    let (before, start) = (stolen_secs(), std::time::Instant::now());
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let stolen = (stolen_secs() - before).max(0.0);
    (out, Steal { stolen, wall })
}

/// The samples the host disturbed least: every sample that lost at most
/// half its wall time to steal or, if there are fewer than `min` of
/// those, the `min` with the smallest stolen share (earliest first among
/// equals). Order is kept.
pub fn least_disturbed<T: Clone>(samples: &[(Steal, T)], min: usize) -> Vec<(Steal, T)> {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| {
        let (x, y) = (samples[a].0.share(), samples[b].0.share());
        x.partial_cmp(&y).expect("finite steal").then(a.cmp(&b))
    });
    let calm = samples.iter().filter(|(s, _)| s.share() <= 0.5).count();
    let mut keep: Vec<usize> = order.into_iter().take(calm.max(min)).collect();
    keep.sort_unstable();
    keep.into_iter().map(|i| samples[i].clone()).collect()
}

/// Median of the values of the samples the host disturbed least (see
/// [`least_disturbed`]).
pub fn calm_median(samples: &[(Steal, f64)], min: usize) -> f64 {
    let mut values: Vec<f64> = least_disturbed(samples, min)
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    median(&mut values)
}
