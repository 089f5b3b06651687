//! Samples, spans, counters, and the memory probe shared by every workload.

use std::collections::BTreeMap;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; `NaN` when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Per-layer samples keyed by metric name: host-time spans in seconds and
/// counts as they are. A disabled probe runs the closure and records
/// nothing, so untraced passes pay no bookkeeping.
#[derive(Default)]
pub struct Probe {
    on: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Probe {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Self {
        Probe {
            on,
            samples: BTreeMap::new(),
        }
    }

    /// Runs `f`, recording its wall time under `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.record(name, t.elapsed().as_secs_f64());
        out
    }

    /// Records one sample (seconds for a span) under `name` when enabled.
    pub fn record(&mut self, name: &'static str, seconds: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(seconds);
        }
    }

    /// Whether the probe records.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Moves every sample of `other` into this probe.
    pub fn absorb(&mut self, other: Probe) {
        for (name, xs) in other.samples {
            self.samples.entry(name).or_default().extend(xs);
        }
    }

    /// The samples recorded under `name`.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.samples.get(name).map(Vec::as_slice)
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation that passed its check.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that failed or whose output check failed.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    /// Counts one operation as passed when `ok`, failed with `msg` otherwise.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(msg());
        }
    }
}

/// Resets the kernel's peak-resident-set mark to the current resident set,
/// so the next [`peak_rss_mb`] reads the peak of what ran in between.
pub fn reset_peak_rss() {
    // Writing "5" to clear_refs resets VmHWM (Linux 4.0+). Where that is
    // not possible the peak becomes the process-lifetime peak, which is
    // still a valid upper bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own deterministic generator, so the inputs
/// are a function of `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
