//! Prometheus text-format exposition (version 0.0.4) over a
//! [`MetricsSnapshot`].
//!
//! The renderer is the *only* consumer-facing serialization of the metrics
//! registry besides the pretty `--metrics` table, and both read the same
//! sorted [`crate::Registry::snapshot`] — so scrapes are
//! deterministic: the same registry state always renders to byte-identical
//! exposition text, regardless of metric insertion order.
//!
//! Internal metric names use dots and an inline label suffix
//! (`aging.r_max_ohms{layer=0}`); the exposition sanitizes names to
//! `[a-zA-Z_][a-zA-Z0-9_]*`, quotes label values, suffixes counters with
//! `_total`, and expands histograms into cumulative `_bucket{le="..."}`
//! series plus `_sum`/`_count` as the format requires.

use std::fmt::Write as _;

use crate::{HistogramSnapshot, MetricsSnapshot};

/// The `Content-Type` a scrape endpoint must declare for this exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Renders the snapshot as Prometheus text exposition: counters first, then
/// gauges, then histograms, each alphabetically (the snapshot's order), with
/// one `# TYPE` line per metric family.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for (name, total) in &snapshot.counters {
        let (family, labels) = split_name(name);
        let family = format!("{}_total", sanitize(&family));
        type_line(&mut out, &mut last_family, &family, "counter");
        let _ = writeln!(out, "{family}{labels} {total}");
    }
    for (name, value) in &snapshot.gauges {
        let (family, labels) = split_name(name);
        let family = sanitize(&family);
        type_line(&mut out, &mut last_family, &family, "gauge");
        let _ = writeln!(out, "{family}{labels} {}", number(*value));
    }
    for (name, histogram) in &snapshot.histograms {
        let (family, labels) = split_name(name);
        render_histogram(&mut out, &mut last_family, &sanitize(&family), &labels, histogram);
    }
    out
}

/// Cumulative `_bucket` series + `_sum` + `_count` for one histogram.
fn render_histogram(
    out: &mut String,
    last_family: &mut String,
    family: &str,
    labels: &str,
    histogram: &HistogramSnapshot,
) {
    type_line(out, last_family, family, "histogram");
    // `labels` arrives rendered (`{k="v"}` or empty); `le` must join any
    // existing label set rather than open a second brace block.
    let with_le = |le: &str| -> String {
        if labels.is_empty() {
            format!("{{le=\"{le}\"}}")
        } else {
            format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
        }
    };
    let mut cumulative = 0u64;
    for (bound, count) in histogram.bounds.iter().zip(&histogram.counts) {
        cumulative += count;
        let _ = writeln!(out, "{family}_bucket{} {cumulative}", with_le(&number(*bound)));
    }
    let _ = writeln!(out, "{family}_bucket{} {}", with_le("+Inf"), histogram.count);
    let _ = writeln!(out, "{family}_sum {}", number(histogram.sum));
    let _ = writeln!(out, "{family}_count {}", histogram.count);
}

/// Emits the `# TYPE` header when entering a new metric family.
fn type_line(out: &mut String, last_family: &mut String, family: &str, kind: &str) {
    if family != last_family {
        let _ = writeln!(out, "# TYPE {family} {kind}");
        family.clone_into(last_family);
    }
}

/// Splits an internal `base{key=value,...}` name into the base and a
/// rendered exposition label set (`{key="value",...}` or empty).
fn split_name(name: &str) -> (String, String) {
    let Some((base, rest)) = name.split_once('{') else {
        return (name.to_string(), String::new());
    };
    let Some(inner) = rest.strip_suffix('}') else {
        // Malformed label suffix: treat the whole thing as a bare name.
        return (name.to_string(), String::new());
    };
    let mut labels = String::from("{");
    for (i, pair) in inner.split(',').enumerate() {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if i > 0 {
            labels.push(',');
        }
        let _ = write!(labels, "{}=\"{}\"", sanitize(key), escape_label(value));
    }
    labels.push('}');
    (base.to_string(), labels)
}

/// Maps an internal metric name onto `[a-zA-Z_][a-zA-Z0-9_]*`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphabetic() || c == '_' || (c.is_ascii_digit() && i > 0) {
            out.push(c);
        } else if c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the text format (`\\`, `\"`, `\n`).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats a sample value: finite numbers via `Display`, non-finite via the
/// format's `+Inf`/`-Inf`/`NaN` spellings.
fn number(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn renders_counters_gauges_and_labels() {
        let mut registry = Registry::default();
        registry.add("tuner.iterations", 42);
        registry.set("aging.r_max_ohms{layer=0}", 95_000.0);
        registry.set("aging.r_max_ohms{layer=1}", 83_912.4);
        registry.set("health.sessions_to_failure", 12.5);
        let text = render(&registry.snapshot());
        assert!(text.contains("# TYPE tuner_iterations_total counter\n"));
        assert!(text.contains("tuner_iterations_total 42\n"));
        assert!(text.contains("# TYPE aging_r_max_ohms gauge\n"));
        assert!(text.contains("aging_r_max_ohms{layer=\"0\"} 95000\n"));
        assert!(text.contains("aging_r_max_ohms{layer=\"1\"} 83912.4\n"));
        assert!(text.contains("health_sessions_to_failure 12.5\n"));
        // One TYPE line per family, not per labeled series.
        assert_eq!(text.matches("# TYPE aging_r_max_ohms ").count(), 1);
    }

    #[test]
    fn renders_cumulative_histogram_buckets() {
        let mut registry = Registry::default();
        registry.declare_histogram("train.epoch_loss", &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            registry.observe("train.epoch_loss", v);
        }
        let text = render(&registry.snapshot());
        assert!(text.contains("# TYPE train_epoch_loss histogram\n"));
        assert!(text.contains("train_epoch_loss_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("train_epoch_loss_bucket{le=\"1\"} 3\n"));
        assert!(text.contains("train_epoch_loss_bucket{le=\"10\"} 4\n"));
        assert!(text.contains("train_epoch_loss_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("train_epoch_loss_sum 56.05\n"));
        assert!(text.contains("train_epoch_loss_count 5\n"));
    }

    #[test]
    fn non_finite_gauges_use_format_spellings() {
        let mut registry = Registry::default();
        registry.set("a", f64::NAN);
        registry.set("b", f64::INFINITY);
        registry.set("c", f64::NEG_INFINITY);
        let text = render(&registry.snapshot());
        assert!(text.contains("a NaN\n"));
        assert!(text.contains("b +Inf\n"));
        assert!(text.contains("c -Inf\n"));
    }

    #[test]
    fn hostile_names_and_labels_are_sanitized() {
        let mut registry = Registry::default();
        registry.set("0weird metric-name{key=va\"lue}", 1.0);
        let text = render(&registry.snapshot());
        assert!(text.contains("_0weird_metric_name{key=\"va\\\"lue\"} 1\n"), "got: {text}");
    }

    #[test]
    fn exposition_is_byte_identical_across_insertion_orders() {
        // Satellite guarantee: the sorted snapshot is the single source of
        // truth, so two registries reaching the same state in different
        // orders must render to exactly the same bytes — and the pretty
        // `--metrics` table (MetricsSnapshot::Display) must agree too.
        let mut forward = Registry::default();
        forward.add("a.counter", 1);
        forward.add("b.counter", 2);
        forward.set("x.gauge{layer=0}", 0.5);
        forward.set("x.gauge{layer=1}", 0.25);
        forward.observe("h.hist", 3.0);
        let mut reverse = Registry::default();
        reverse.observe("h.hist", 3.0);
        reverse.set("x.gauge{layer=1}", 0.25);
        reverse.set("x.gauge{layer=0}", 0.5);
        reverse.add("b.counter", 2);
        reverse.add("a.counter", 1);
        let (f, r) = (forward.snapshot(), reverse.snapshot());
        assert_eq!(render(&f).into_bytes(), render(&r).into_bytes());
        assert_eq!(f.to_string(), r.to_string());
    }
}
