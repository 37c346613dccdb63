//! Order statistics, and the metric lines the benchmark prints.

/// Nearest-rank percentile (`q` in `0..=1`) of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len() as u64, q) as usize - 1]
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Bits of a value kept exactly; below `1 << SUB_BITS` ns every value
/// has its own bucket, above it each power of two has `HALF` buckets.
const SUB_BITS: u32 = 12;
const SUB: usize = 1 << SUB_BITS;
const HALF: usize = SUB / 2;
/// Largest power of two covered: 2^40 ns is over 18 minutes.
const TOP_BITS: u32 = 40;

/// Nanosecond latencies in log-linear buckets: exact under 4096 ns, and
/// above that within 0.05% (2048 buckets per power of two), so a
/// timer-bound p99 of about 88 ms still moves in steps of about 40 µs.
/// Memory stays fixed (about 0.5 MB) however many samples a run records.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; SUB + (TOP_BITS - SUB_BITS + 1) as usize * HALF],
            total: 0,
        }
    }

    /// `(bucket, shift)`: the value's bucket, and how many low bits the
    /// bucket drops.
    fn bucket(v: u64) -> (usize, u32) {
        let v = v.min((1 << TOP_BITS) - 1);
        if v < SUB as u64 {
            return (v as usize, 0);
        }
        let shift = 63 - v.leading_zeros() - (SUB_BITS - 1);
        let m = (v >> shift) as usize;
        (SUB + (shift as usize - 1) * HALF + (m - HALF), shift)
    }

    /// The middle of bucket `i`.
    fn value(i: usize) -> f64 {
        if i < SUB {
            return i as f64;
        }
        let shift = ((i - SUB) / HALF + 1) as u32;
        let m = ((i - SUB) % HALF + HALF) as u64;
        let lo = m << shift;
        lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns).0] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile in nanoseconds.
    pub fn quantile(&self, q: f64) -> f64 {
        let want = rank(self.total, q);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Self::value(i);
            }
        }
        f64::NAN
    }
}

/// Median and 99th percentile in microseconds, with the sample count.
pub struct Digest {
    pub count: u64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Digest {
    /// `None` when there are no samples.
    pub fn of(h: &Histogram) -> Option<Digest> {
        (h.count() > 0).then(|| Digest {
            count: h.count(),
            p50_us: h.quantile(0.50) / 1e3,
            p99_us: h.quantile(0.99) / 1e3,
        })
    }

    /// Samples above the 99th percentile's rank; the benchmark wants at
    /// least ten so the p99 is not set by a handful of outliers.
    pub fn beyond_p99(&self) -> u64 {
        self.count - rank(self.count, 0.99)
    }
}

/// One named measurement as printed and as put in the result object.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (percentiles and per-sample medians), or
    /// `None` for totals and ratios.
    pub samples: Option<u64>,
    /// Free-form qualifier shown in the table (for example where a
    /// per-layer value was measured).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
            note: String::new(),
        }
    }

    pub fn with_samples(mut self, n: usize) -> Metric {
        self.samples = Some(n as u64);
        self
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    /// A table line: name, value, unit, sample count and note.
    pub fn line(&self) -> String {
        let n = self.samples.map(|n| format!("n={n}")).unwrap_or_default();
        format!(
            "  {:<34} {:>16.4} {:<8} {:<10} {}",
            self.name, self.value, self.unit, n, self.note
        )
    }
}

/// The result object: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Every digit `f64`'s shortest round-trip form carries; non-finite
/// values (a ratio over nothing) become 0 so the object stays JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn histogram_is_exact_below_4096_and_within_0_05_percent_above() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 500.0);
        let d = Digest::of(&h).unwrap();
        assert_eq!(d.beyond_p99(), 10);
        for v in [4096u64, 5000, 87_000_000, 123_456_789_012] {
            let mut h = Histogram::new();
            h.record(v);
            let got = h.quantile(0.5);
            assert!((got - v as f64).abs() / (v as f64) < 0.0005, "{v} -> {got}");
        }
    }
}
