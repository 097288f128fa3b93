//! Timing samples, the per-layer span recorder and process memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Milliseconds in a duration, with all the digits the clock gives.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample, interpolating linearly
/// between the two nearest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Time in ms the calibration kernel takes on a quiet 2-core
/// `Intel(R) Xeon(R) Processor` host.  A reference millisecond is a
/// measured millisecond scaled by this over the kernel's time measured
/// around it.
pub const REFERENCE_MS: f64 = 5.0;

/// Kernel runs per calibration point; the point is their median.
const KERNEL_RUNS: usize = 5;

/// The calibration kernel: a fixed amount of sorting and hashing over a
/// sub-megabyte working set, the kind of work the engine's build and plan
/// execution do, sharing no code with the engine.  Returns its time.
pub fn calibration_kernel() -> Duration {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..100_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 25_000
        })
        .collect();
    keys.sort_unstable();
    let mut counts: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    for &k in &keys {
        *counts.entry(k).or_default() += 1;
    }
    std::hint::black_box(counts.len());
    start.elapsed()
}

/// The host's speed over a measured loop.  The host this benchmark is
/// tuned on shares its cores and caches with other machines, and its speed
/// for cache-heavy work swings by up to 1.7× for seconds at a time, while
/// plain arithmetic and DRAM-latency loops stay level.  The loop therefore
/// runs [`calibration_kernel`] at the boundaries of short segments of
/// timed calls and converts each call's time into reference time: the
/// time times [`REFERENCE_MS`] over the mean kernel time at the
/// segment's two ends.  A change to the engine moves reference times as
/// much as raw ones, since the kernel does not run engine code.
#[derive(Clone, Debug, Default)]
pub struct HostSpeed {
    points_ms: Vec<f64>,
}

impl HostSpeed {
    /// Records one calibration point; the calls timed after it belong to
    /// the segment it opens.
    pub fn calibrate(&mut self) {
        let runs: Vec<f64> = (0..KERNEL_RUNS).map(|_| ms(calibration_kernel())).collect();
        self.points_ms.push(median(&runs));
    }

    /// The segment the calls timed now belong to.
    pub fn segment(&self) -> usize {
        self.points_ms.len().saturating_sub(1)
    }

    /// The factor that turns a time measured in `segment` into reference
    /// time (1 before the first calibration).
    pub fn scale(&self, segment: usize) -> f64 {
        let Some(&open) = self.points_ms.get(segment) else {
            return 1.0;
        };
        let close = self.points_ms.get(segment + 1).copied().unwrap_or(open);
        REFERENCE_MS / ((open + close) / 2.0).max(1e-9)
    }

    /// Times measured in the given segments, converted to reference time
    /// (in the unit they were measured in).
    pub fn to_reference(&self, times: &[f64], segments: &[usize]) -> Vec<f64> {
        times
            .iter()
            .zip(segments)
            .map(|(&t, &segment)| t * self.scale(segment))
            .collect()
    }

    /// Median kernel time over the loop, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.points_ms)
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Busy time and call count of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Total time spent inside the layer's spans.
    pub time: Duration,
    /// Number of spans recorded.
    pub calls: u64,
}

impl Layer {
    /// Total busy time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        ms(self.time)
    }

    /// Mean time per span in milliseconds (0 when the layer never ran).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ms() / self.calls as f64
        }
    }
}

/// Span recorder for the traced run: the benchmark wraps each call into a
/// layer's public functions in [`Trace::span`], and the recorder sums the
/// time per layer.  Spans never nest, so a layer's self time is its span
/// time.  Counters recorded at the same boundaries ride along.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    layers: BTreeMap<&'static str, Layer>,
    counters: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    /// Runs `f` as one span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, start.elapsed());
        out
    }

    /// Records a span measured elsewhere.
    pub fn record(&mut self, layer: &'static str, time: Duration) {
        let entry = self.layers.entry(layer).or_default();
        entry.time += time;
        entry.calls += 1;
    }

    /// Adds `n` to a counter.
    pub fn count(&mut self, counter: &'static str, n: f64) {
        *self.counters.entry(counter).or_default() += n;
    }

    /// Appends one value to a named sample.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// A named sample (empty when never recorded).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// A layer's totals (zero when it never ran).
    pub fn layer(&self, layer: &str) -> Layer {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// A counter's value (zero when never recorded).
    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Time covered by the spans of every layer whose name does not start
    /// with `skip` (the layers that run beside the timed calls rather than
    /// inside them).
    pub fn covered_except(&self, skip: &str) -> Duration {
        self.layers
            .iter()
            .filter(|(name, _)| !name.starts_with(skip))
            .map(|(_, l)| l.time)
            .sum()
    }

    /// Folds another recorder's spans and counters into this one.
    pub fn merge(&mut self, other: &Trace) {
        for (name, layer) in &other.layers {
            let entry = self.layers.entry(name).or_default();
            entry.time += layer.time;
            entry.calls += layer.calls;
        }
        for (name, value) in &other.counters {
            *self.counters.entry(name).or_default() += value;
        }
        for (name, values) in &other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn segments_scale_by_the_mean_of_their_calibrations() {
        let mut host = HostSpeed::default();
        assert_eq!(host.scale(0), 1.0);
        host.points_ms = vec![REFERENCE_MS, 3.0 * REFERENCE_MS, 2.0 * REFERENCE_MS];
        assert_eq!(host.segment(), 2);
        assert_eq!(host.scale(0), 0.5);
        assert_eq!(host.scale(1), 0.4);
        assert_eq!(host.scale(2), 0.5);
        assert_eq!(host.median_ms(), 2.0 * REFERENCE_MS);
        assert_eq!(host.to_reference(&[4.0, 10.0], &[1, 0]), vec![1.6, 5.0]);
    }

    #[test]
    fn spans_sum_per_layer() {
        let mut t = Trace::default();
        t.record("build", Duration::from_millis(2));
        t.record("build", Duration::from_millis(4));
        t.record("plan", Duration::from_millis(1));
        assert_eq!(t.layer("build").calls, 2);
        assert_eq!(t.layer("build").mean_ms(), 3.0);
        assert_eq!(t.covered_except("snapshot"), Duration::from_millis(7));
        assert_eq!(t.layer("serve").mean_ms(), 0.0);
    }
}
