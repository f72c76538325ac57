//! Result assembly: metric values, the exact-percentile rule, the metric
//! name rules, the output digest and the one-line JSON result.

use std::fmt::Write as _;

/// A tail percentile is reported only when at least this many samples lie
/// beyond its rank; otherwise the sample is too small to resolve it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (1..=99) of the ascending `sorted`
/// samples: the value at rank `ceil(p·n/100)`, computed in integers so no
/// rounding moves the rank.
///
/// # Errors
///
/// When `p` is out of range, or fewer than [`MIN_BEYOND`] samples lie
/// beyond the rank.
pub fn percentile(sorted: &[f64], p: usize) -> Result<f64, String> {
    if !(1..=99).contains(&p) {
        return Err(format!("percentile {p} outside 1..=99"));
    }
    let n = sorted.len();
    let rank = (p * n).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median of `values` (mean of the two middle values for an even
/// count); `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// FNV-1a over the bit patterns of deterministic outputs, so two commits
/// can be compared for bit-identity by one printed number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The result of one benchmark run: metrics, operation counts and the
/// outcome of every output check.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (requests plus lifetime runs).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Adds one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The failed output checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable metric lines, one per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<28} {value:>16.6} {unit}");
        }
        out
    }

    /// The one-line JSON result.
    ///
    /// # Errors
    ///
    /// When a metric name or unit breaks the naming rules, a name repeats,
    /// or a value is not finite: such a result would not be readable.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("invalid metric name or unit: {name:?} {unit:?}"));
            }
            if self.metrics[..i].iter().any(|(other, ..)| other == name) {
                return Err(format!("metric {name} reported twice"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_the_nearest_rank() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 50).unwrap(), 500.0);
        assert_eq!(percentile(&s, 99).unwrap(), 990.0);
        // 0.99 · 1001 = 990.99 → rank 991, never off by one from float
        // rounding.
        assert_eq!(percentile(&ramp(1001), 99).unwrap(), 991.0);
        assert_eq!(percentile(&ramp(21), 50).unwrap(), 11.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 leaves exactly 10 beyond; of 999, only 9.
        assert!(percentile(&ramp(1000), 99).is_ok());
        assert!(percentile(&ramp(999), 99).is_err());
        assert!(percentile(&ramp(20), 50).is_ok());
        assert!(percentile(&ramp(19), 50).is_err());
        assert!(percentile(&[], 50).is_err());
        assert!(percentile(&ramp(100), 0).is_err());
        assert!(percentile(&ramp(100), 100).is_err());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in ["setup_s", "serve.linger_us_p50", "e2e_p99_us", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "tab\t", "µs", "a/b", "a:b", long.as_str()]
        {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["s", "ms", "1/s", "%", "device-s/kreq", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn json_rejects_bad_names_duplicates_and_non_finite_values() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.metric("setup_s", 1.25, "s");
        r.metric("work_s", 2.0, "s");
        assert_eq!(
            r.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"work_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        r.check(false, || "broken".into());
        assert!(r.to_json().unwrap().starts_with("{\"correct\": false"));
        let mut dup = Report::default();
        dup.metric("a", 1.0, "s");
        dup.metric("a", 2.0, "s");
        assert!(dup.to_json().is_err());
        let mut bad = Report::default();
        bad.metric("bad name", 1.0, "s");
        assert!(bad.to_json().is_err());
        let mut nan = Report::default();
        nan.metric("a", f64::NAN, "s");
        assert!(nan.to_json().is_err());
    }

    #[test]
    fn digest_tracks_bit_patterns() {
        let digest = |v: f64| {
            let mut d = Digest::default();
            d.f64(v);
            d.value()
        };
        assert_eq!(digest(1.0), digest(1.0));
        assert_ne!(digest(0.0), digest(-0.0));
        assert_ne!(digest(1.0), digest(1.0 + f64::EPSILON));
    }
}
