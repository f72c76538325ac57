//! Offline trace analysis — the engine behind `memaging analyze`.
//!
//! A JSONL trace (from `--trace`, or a flight-recorder dump) is a complete,
//! deterministic record of a run: every span, counter, gauge, latency
//! observation, wear checkpoint, and series point, keyed by admission
//! sequence rather than wall clock. This module replays such a trace
//! through the *same* aggregation code the live tier runs —
//! [`memaging_obs::ShardedHistogram`] for latency,
//! [`memaging_lifetime::WearLedger`] for attribution,
//! [`memaging_obs::SeriesStore`] + [`memaging_lifetime::trend`] for the
//! per-tile lifetime forecast — so the analyzer's latency and attribution
//! documents are **byte-for-byte identical** to the live
//! `GET /serve/latency` and `GET /wear/attribution` bodies at the moment
//! the trace ended (`exp_serve` asserts exactly that). The replay takes no
//! options: the bucket count ([`LATENCY_BUCKETS`]), series capacity,
//! forecast window and critical threshold are the live tier's constants.
//!
//! On top of the replay it reconstructs what the live tier never serves:
//! per-phase self/total time from the span tree (a span's *self* time is
//! its duration minus its direct children's), and a two-run regression
//! diff ([`diff`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use memaging_lifetime::{
    trend, worst_tile, TileTrend, WearCause, WearLedger, WearThresholds, DEFAULT_FORECAST_WINDOW,
};
use memaging_obs::{
    latency_detail_json, parse_label, push_json_str, Event, LatencySnapshot, SeriesStore,
    ShardedHistogram,
};
use memaging_serve::{to_fixed, LATENCY_BUCKETS, SERIES_SCALE};

/// Aggregated timing of one span name across a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Span name, e.g. `serve.forward` or `tune`.
    pub name: String,
    /// Spans aggregated.
    pub count: u64,
    /// Total wall-clock microseconds (sum of span durations).
    pub total_us: u64,
    /// Self microseconds: total minus time spent in direct child spans
    /// (same worker and trace id, nested by interval containment).
    pub self_us: u64,
}

/// The four replayed serving-latency stages, in request-life order and
/// under the exact stage names `GET /serve/latency` uses.
#[derive(Debug)]
struct LatencyReplay {
    queue_wait: ShardedHistogram,
    linger: ShardedHistogram,
    forward: ShardedHistogram,
    e2e: ShardedHistogram,
}

impl LatencyReplay {
    fn new() -> Self {
        LatencyReplay {
            queue_wait: ShardedHistogram::new(1, LATENCY_BUCKETS),
            linger: ShardedHistogram::new(1, LATENCY_BUCKETS),
            forward: ShardedHistogram::new(1, LATENCY_BUCKETS),
            e2e: ShardedHistogram::new(1, LATENCY_BUCKETS),
        }
    }

    /// Routes one `serve.*` observation into its stage; returns whether the
    /// name was a latency stage. `serve.service_us` feeds the `forward`
    /// stage — the live tier records the per-request forward time under
    /// both names.
    fn observe(&self, name: &str, value: f64) -> bool {
        let stage = match name {
            "serve.queue_wait_us" => &self.queue_wait,
            "serve.linger_us" => &self.linger,
            "serve.service_us" => &self.forward,
            "serve.e2e_us" => &self.e2e,
            _ => return false,
        };
        stage.record(0, value.round().max(0.0) as u64);
        true
    }

    fn snapshots(&self) -> [(&'static str, LatencySnapshot); 4] {
        [
            ("queue_wait_us", self.queue_wait.snapshot()),
            ("linger_us", self.linger.snapshot()),
            ("forward_us", self.forward.snapshot()),
            ("e2e_us", self.e2e.snapshot()),
        ]
    }
}

/// One tile's fitted lifetime trend, keyed by tile index.
pub type TileFit = (usize, TileTrend);

/// Everything one trace replays to. Build with [`analyze_file`] or
/// [`analyze_lines`]; render with [`TraceAnalysis::report`] (text) or
/// [`TraceAnalysis::to_json`] (machine-readable).
#[derive(Debug)]
pub struct TraceAnalysis {
    /// Where the trace came from (path or label).
    pub source: String,
    /// Total events parsed.
    pub events: usize,
    /// Per-phase timing, in first-appearance order.
    pub phases: Vec<PhaseStat>,
    /// Final counter totals (last `total` wins — counters are cumulative).
    pub counters: BTreeMap<String, u64>,
    /// Alert events seen.
    pub alerts: usize,
    /// The replayed wear-attribution ledger; `None` when the trace has no
    /// wear checkpoints.
    pub ledger: Option<WearLedger>,
    /// Per-replica ledgers replayed from `replica{r}.`-prefixed wear
    /// causes (fleet traces), keyed by replica id. Tile indices are only
    /// meaningful within one replica's ledger — folding them into one
    /// account would silently alias tiles across replicas.
    pub replica_ledgers: BTreeMap<usize, WearLedger>,
    /// The replayed deterministic time-series store.
    pub series: SeriesStore,
    latency: LatencyReplay,
}

/// One span, flattened for the nesting reconstruction.
struct SpanRec {
    name: String,
    worker: Option<u64>,
    trace: Option<u64>,
    start: u64,
    end: u64,
    dur: u64,
}

/// Analyzes a JSONL trace file. Strict: the first malformed line aborts
/// with its line number — a trace that doesn't round-trip is a bug worth
/// surfacing, not skipping.
///
/// # Errors
///
/// Returns the I/O failure or `path:line: parse error` of the first bad
/// line.
pub fn analyze_file(path: &str) -> Result<TraceAnalysis, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    analyze_lines(path, text.lines())
}

/// Analyzes an in-memory trace, one JSON event per item. Blank lines are
/// skipped (JSONL writers end files with a newline).
///
/// # Errors
///
/// Returns `source:line: parse error` for the first malformed line.
pub fn analyze_lines<'a>(
    source: &str,
    lines: impl IntoIterator<Item = &'a str>,
) -> Result<TraceAnalysis, String> {
    let mut analysis = TraceAnalysis {
        source: source.to_string(),
        events: 0,
        phases: Vec::new(),
        counters: BTreeMap::new(),
        alerts: 0,
        ledger: None,
        replica_ledgers: BTreeMap::new(),
        series: SeriesStore::default(),
        latency: LatencyReplay::new(),
    };
    let mut spans: Vec<SpanRec> = Vec::new();
    for (lineno, line) in lines.into_iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Event::from_json(line).map_err(|e| format!("{source}:{}: {e}", lineno + 1))?;
        analysis.events += 1;
        match event {
            Event::Span { name, worker, trace, start_us, duration_us, .. } => {
                spans.push(SpanRec {
                    name,
                    worker,
                    trace,
                    start: start_us,
                    end: start_us.saturating_add(duration_us),
                    dur: duration_us,
                });
            }
            Event::Observation { name, value, .. } => {
                analysis.latency.observe(&name, value);
            }
            Event::Counter { name, total, .. } => {
                analysis.counters.insert(name, total);
            }
            Event::Wear { cause, param, tiles } => {
                let (replica, kind) = split_replica_cause(&cause);
                let cause = match (kind, param) {
                    ("inference_read", Some(batch_seq)) => WearCause::InferenceRead { batch_seq },
                    ("remap", Some(generation)) => WearCause::Remap { generation },
                    ("tuning", None) => WearCause::Tuning,
                    (other, p) => {
                        return Err(format!(
                            "{source}:{}: unknown wear cause `{other}` (param {p:?})",
                            lineno + 1
                        ));
                    }
                };
                let ledger = match replica {
                    Some(r) => analysis
                        .replica_ledgers
                        .entry(r)
                        .or_insert_with(|| WearLedger::for_replica(tiles.len(), Some(r))),
                    None => analysis.ledger.get_or_insert_with(|| WearLedger::new(tiles.len())),
                };
                if tiles.len() != ledger.tiles() {
                    return Err(format!(
                        "{source}:{}: wear checkpoint has {} tiles, ledger tracks {}",
                        lineno + 1,
                        tiles.len(),
                        ledger.tiles()
                    ));
                }
                ledger.charge(cause, &tiles);
            }
            Event::Series { name, seq, value } => analysis.series.record(&name, seq, value),
            Event::Alert { .. } => analysis.alerts += 1,
            Event::Gauge { .. } | Event::Session { .. } | Event::Message { .. } => {}
        }
    }
    analysis.phases = phase_stats(&spans);
    Ok(analysis)
}

/// Splits an optional `replica{r}.` namespace off a wear cause string:
/// `replica3.remap` → `(Some(3), "remap")`, `remap` → `(None, "remap")`.
/// A `replica` prefix without a parsable id falls through unsplit so the
/// cause match reports it as unknown.
fn split_replica_cause(cause: &str) -> (Option<usize>, &str) {
    let Some(rest) = cause.strip_prefix("replica") else {
        return (None, cause);
    };
    let Some((id, kind)) = rest.split_once('.') else {
        return (None, cause);
    };
    match id.parse::<usize>() {
        Ok(replica) => (Some(replica), kind),
        Err(_) => (None, cause),
    }
}

/// Reconstructs the span tree and aggregates per-name self/total time.
///
/// Spans sharing a `(worker, trace)` key form one sequential timeline (the
/// recorder emits them from one thread per worker slot); within it, a span
/// whose interval lies inside another's is its child, and the parent's
/// self time excludes it. Sorting by (start asc, end desc) visits parents
/// before their children, so a simple containment stack suffices.
fn phase_stats(spans: &[SpanRec]) -> Vec<PhaseStat> {
    let mut groups: BTreeMap<(Option<u64>, Option<u64>), Vec<usize>> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        groups.entry((span.worker, span.trace)).or_default().push(i);
    }
    let mut child_us = vec![0u64; spans.len()];
    for order in groups.values_mut() {
        order.sort_by_key(|&i| (spans[i].start, std::cmp::Reverse(spans[i].end), i));
        let mut stack: Vec<usize> = Vec::new();
        for &i in order.iter() {
            while let Some(&top) = stack.last() {
                // Pop finished ancestors and partial overlaps (an interval
                // the candidate is not contained in cannot be its parent).
                if spans[top].end <= spans[i].start || spans[top].end < spans[i].end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child_us[parent] = child_us[parent].saturating_add(spans[i].dur);
            }
            stack.push(i);
        }
    }
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    let mut out: Vec<PhaseStat> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let slot = *index.entry(&span.name).or_insert_with(|| {
            out.push(PhaseStat { name: span.name.clone(), count: 0, total_us: 0, self_us: 0 });
            out.len() - 1
        });
        out[slot].count += 1;
        out[slot].total_us += span.dur;
        out[slot].self_us += span.dur.saturating_sub(child_us[i]);
    }
    out
}

impl TraceAnalysis {
    /// The replayed `GET /serve/latency` body — byte-identical to the live
    /// server's when the trace covers the full run and the bucket count
    /// matches.
    pub fn latency_json(&self) -> String {
        latency_detail_json(LATENCY_BUCKETS, &self.latency.snapshots())
    }

    /// The replayed `GET /wear/attribution` body, or `"null"` when the
    /// trace carries no wear checkpoints. A fleet trace (replica-prefixed
    /// wear causes) renders the fleet form `{"replicas":[...]}` —
    /// byte-identical to the live fleet endpoint when the trace covers the
    /// full run.
    pub fn attribution_json(&self) -> String {
        if !self.replica_ledgers.is_empty() {
            let mut out = String::from("{\"replicas\":[");
            for (i, ledger) in self.replica_ledgers.values().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&ledger.to_json());
            }
            out.push_str("]}");
            return out;
        }
        match &self.ledger {
            Some(ledger) => ledger.to_json(),
            None => "null".into(),
        }
    }

    /// Max/mean ratio of per-replica attributed stress — the fleet wear
    /// imbalance the wear-balancing router minimizes (1.0 is perfectly
    /// balanced). `None` for non-fleet traces.
    pub fn fleet_imbalance(&self) -> Option<f64> {
        if self.replica_ledgers.is_empty() {
            return None;
        }
        let totals: Vec<f64> = self.replica_ledgers.values().map(WearLedger::total).collect();
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        if mean <= 0.0 {
            return Some(1.0);
        }
        Some(totals.iter().copied().fold(0.0f64, f64::max) / mean)
    }

    /// The replayed `GET /timeseries` body.
    pub fn series_json(&self) -> String {
        self.series.to_json()
    }

    /// Refits the per-tile lifetime forecast from the replayed
    /// `serve.window_fraction_ppb{tile=N}` series: every tile's trend plus
    /// the worst tile, exactly as the live engine computes them.
    pub fn forecast(&self) -> (Vec<TileFit>, Option<TileFit>) {
        let critical = to_fixed(WearThresholds::default().critical_window_fraction);
        let mut trends: Vec<TileFit> = Vec::new();
        for (name, snapshot) in self.series.snapshot_all() {
            let Some(("serve.window_fraction_ppb", tile)) = parse_label(&name, "tile") else {
                continue;
            };
            if let Some(fit) = trend(&snapshot.raw_points(), DEFAULT_FORECAST_WINDOW, critical) {
                trends.push((tile, fit));
            }
        }
        trends.sort_by_key(|(tile, _)| *tile);
        let worst = worst_tile(&trends);
        (trends, worst)
    }

    /// Total spans aggregated across all phases.
    pub fn span_count(&self) -> u64 {
        self.phases.iter().map(|p| p.count).sum()
    }

    /// The machine-readable analysis document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"source\":");
        push_json_str(&mut out, &self.source);
        let _ = write!(out, ",\"events\":{},\"alerts\":{},\"phases\":[", self.events, self.alerts);
        for (i, phase) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_str(&mut out, &phase.name);
            let _ = write!(
                out,
                ",\"count\":{},\"total_us\":{},\"self_us\":{}}}",
                phase.count, phase.total_us, phase.self_us
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (name, total)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(out, ":{total}");
        }
        out.push_str("},\"latency\":");
        out.push_str(&self.latency_json());
        out.push_str(",\"attribution\":");
        out.push_str(&self.attribution_json());
        out.push_str(",\"series\":");
        out.push_str(&self.series_json());
        let (trends, worst) = self.forecast();
        out.push_str(",\"forecast\":{\"tiles\":[");
        for (i, (tile, fit)) in trends.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"tile\":{tile},\"trend\":{}}}", fit.to_json());
        }
        out.push_str("],\"worst\":");
        match worst {
            Some((tile, fit)) => {
                let _ = write!(out, "{{\"tile\":{tile},\"trend\":{}}}", fit.to_json());
            }
            None => out.push_str("null"),
        }
        out.push_str("}}");
        out
    }

    /// The human-readable analysis report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} ({} events, {} spans, {} alerts)",
            self.source,
            self.events,
            self.span_count(),
            self.alerts
        );
        if !self.phases.is_empty() {
            let _ = writeln!(out, "phases:");
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>12} {:>12}",
                "name", "count", "total_us", "self_us"
            );
            for phase in &self.phases {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>8} {:>12} {:>12}",
                    phase.name, phase.count, phase.total_us, phase.self_us
                );
            }
        }
        let stages = self.latency.snapshots();
        if stages.iter().any(|(_, s)| s.count > 0) {
            let _ = writeln!(out, "latency (µs):");
            let _ = writeln!(
                out,
                "  {:<16} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "stage", "count", "p50", "p90", "p99", "max"
            );
            for (name, snap) in &stages {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    name,
                    snap.count,
                    snap.quantile(0.50),
                    snap.quantile(0.90),
                    snap.quantile(0.99),
                    snap.max
                );
            }
        }
        if let Some(ledger) = &self.ledger {
            let _ = writeln!(
                out,
                "wear attribution: {} tiles, total stress {:.3e}s",
                ledger.tiles(),
                ledger.total()
            );
            for (cause, events, stress) in ledger.cause_totals() {
                let _ = writeln!(out, "  {cause:<16} {events:>6} events  {stress:.3e}s");
            }
        }
        if !self.replica_ledgers.is_empty() {
            let _ = writeln!(
                out,
                "fleet attribution: {} replicas, wear imbalance (max/mean) {:.4}",
                self.replica_ledgers.len(),
                self.fleet_imbalance().unwrap_or(1.0)
            );
            for (replica, ledger) in &self.replica_ledgers {
                let _ = writeln!(
                    out,
                    "  replica {replica}: {} tiles, total stress {:.3e}s",
                    ledger.tiles(),
                    ledger.total()
                );
            }
        }
        let (trends, worst) = self.forecast();
        if !trends.is_empty() {
            let _ = writeln!(out, "forecast ({} tiles fitted):", trends.len());
            for (tile, fit) in &trends {
                match fit.sessions_to_critical {
                    // `trend` reports a tile already at or below critical
                    // as zero sessions away.
                    Some(k) if k <= 0.0 => {
                        let _ = writeln!(
                            out,
                            "  tile {tile}: window {:.4}, velocity {:+.3e}/session, \
                             already past critical",
                            fit.value as f64 / SERIES_SCALE,
                            fit.velocity / SERIES_SCALE
                        );
                    }
                    Some(k) => {
                        let _ = writeln!(
                            out,
                            "  tile {tile}: window {:.4}, velocity {:+.3e}/session, \
                             crosses critical in ~{k:.1} sessions",
                            fit.value as f64 / SERIES_SCALE,
                            fit.velocity / SERIES_SCALE
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "  tile {tile}: window {:.4}, velocity {:+.3e}/session, \
                             never crosses critical",
                            fit.value as f64 / SERIES_SCALE,
                            fit.velocity / SERIES_SCALE
                        );
                    }
                }
            }
            if let Some((tile, _)) = worst {
                let _ = writeln!(out, "  worst tile: {tile}");
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, total) in &self.counters {
                let _ = writeln!(out, "  {name} = {total}");
            }
        }
        out
    }
}

/// One compared metric of a two-run diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Metric label, e.g. `latency.e2e_us.p99`.
    pub metric: String,
    /// Value in the baseline run.
    pub a: f64,
    /// Value in the candidate run.
    pub b: f64,
    /// Whether larger values are worse for this metric (latency, stress).
    pub higher_is_worse: bool,
}

impl DiffRow {
    /// Relative change from `a` to `b` (0 when both are 0).
    pub fn relative_delta(&self) -> f64 {
        if self.a == 0.0 && self.b == 0.0 {
            return 0.0;
        }
        (self.b - self.a) / self.a.abs().max(f64::MIN_POSITIVE)
    }
}

/// A two-run regression table (see [`diff`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Relative tolerance a change must exceed to be flagged.
    pub tolerance: f64,
    /// Every compared metric, in table order.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Rows whose change exceeds the tolerance *in the worse direction*.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|row| {
                let delta = row.relative_delta();
                delta.abs() > self.tolerance && (delta > 0.0) == row.higher_is_worse
            })
            .collect()
    }

    /// The regression table as text; flagged rows carry `REGRESSED` or
    /// `improved` markers.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<32} {:>14} {:>14} {:>9}  flag",
            "metric", "baseline", "candidate", "delta"
        );
        for row in &self.rows {
            let delta = row.relative_delta();
            let flag = if delta.abs() <= self.tolerance {
                ""
            } else if (delta > 0.0) == row.higher_is_worse {
                "REGRESSED"
            } else {
                "improved"
            };
            let _ = writeln!(
                out,
                "{:<32} {:>14.3} {:>14.3} {:>+8.1}%  {flag}",
                row.metric,
                row.a,
                row.b,
                100.0 * delta
            );
        }
        let regressions = self.regressions().len();
        let _ = writeln!(
            out,
            "{regressions} regression(s) beyond {:.1}% tolerance",
            100.0 * self.tolerance
        );
        out
    }

    /// The regression table as JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"tolerance\":{},\"rows\":[", self.tolerance);
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"metric\":");
            push_json_str(&mut out, &row.metric);
            let delta = row.relative_delta();
            let flag = if delta.abs() <= self.tolerance {
                "ok"
            } else if (delta > 0.0) == row.higher_is_worse {
                "regressed"
            } else {
                "improved"
            };
            let _ = write!(
                out,
                ",\"baseline\":{},\"candidate\":{},\"delta\":{delta},\"flag\":\"{flag}\"}}",
                row.a, row.b
            );
        }
        let _ = write!(out, "],\"regressions\":{}}}", self.regressions().len());
        out
    }
}

/// Diffs two analyzed runs into a regression table: per-phase self/total
/// time, per-stage latency percentiles, counters, and attributed stress.
/// Metrics present in only one run are compared against 0.
pub fn diff(a: &TraceAnalysis, b: &TraceAnalysis, tolerance: f64) -> DiffReport {
    let mut rows = Vec::new();
    let phase_names: Vec<&str> = {
        let mut names: Vec<&str> = a.phases.iter().map(|p| p.name.as_str()).collect();
        for p in &b.phases {
            if !names.contains(&p.name.as_str()) {
                names.push(&p.name);
            }
        }
        names
    };
    let phase = |run: &TraceAnalysis, name: &str| -> (f64, f64) {
        run.phases
            .iter()
            .find(|p| p.name == name)
            .map_or((0.0, 0.0), |p| (p.total_us as f64, p.self_us as f64))
    };
    for name in phase_names {
        let (at, aself) = phase(a, name);
        let (bt, bself) = phase(b, name);
        rows.push(DiffRow {
            metric: format!("phase.{name}.total_us"),
            a: at,
            b: bt,
            higher_is_worse: true,
        });
        rows.push(DiffRow {
            metric: format!("phase.{name}.self_us"),
            a: aself,
            b: bself,
            higher_is_worse: true,
        });
    }
    for ((name, sa), (_, sb)) in a.latency.snapshots().iter().zip(b.latency.snapshots().iter()) {
        rows.push(DiffRow {
            metric: format!("latency.{name}.count"),
            a: sa.count as f64,
            b: sb.count as f64,
            higher_is_worse: false,
        });
        for (q, label) in [(0.50, "p50"), (0.99, "p99")] {
            rows.push(DiffRow {
                metric: format!("latency.{name}.{label}"),
                a: sa.quantile(q) as f64,
                b: sb.quantile(q) as f64,
                higher_is_worse: true,
            });
        }
    }
    let counter_names: Vec<&String> = {
        let mut names: Vec<&String> = a.counters.keys().collect();
        for name in b.counters.keys() {
            if !names.contains(&name) {
                names.push(name);
            }
        }
        names.sort();
        names
    };
    for name in counter_names {
        rows.push(DiffRow {
            metric: format!("counter.{name}"),
            a: a.counters.get(name).copied().unwrap_or(0) as f64,
            b: b.counters.get(name).copied().unwrap_or(0) as f64,
            // Work counters measure programming effort the delta-remap
            // path exists to avoid: a rise means fewer cells skipped,
            // i.e. an efficiency regression. Throughput-style counters
            // keep the usual lower-is-worse reading.
            higher_is_worse: matches!(name.as_str(), "mapping.cells_programmed" | "mapping.pulses"),
        });
    }
    let skipped_frac = |run: &TraceAnalysis| -> Option<f64> {
        let programmed = *run.counters.get("mapping.cells_programmed")?;
        let skipped = *run.counters.get("mapping.cells_skipped")?;
        let total = programmed + skipped;
        (total > 0).then(|| skipped as f64 / total as f64)
    };
    if let (Some(fa), Some(fb)) = (skipped_frac(a), skipped_frac(b)) {
        // Length-normalized view of the same signal: robust when the two
        // runs programmed different total cell counts.
        rows.push(DiffRow {
            metric: "remap.cells_skipped_frac".to_string(),
            a: fa,
            b: fb,
            higher_is_worse: false,
        });
    }
    if let (Some(ia), Some(ib)) = (a.fleet_imbalance(), b.fleet_imbalance()) {
        // The fleet router's gated signal: max/mean per-replica attributed
        // stress. A rise means the fleet is wearing its hottest replica
        // faster than the average — a lifetime regression even when total
        // stress is unchanged.
        rows.push(DiffRow {
            metric: "fleet.wear_imbalance".to_string(),
            a: ia,
            b: ib,
            higher_is_worse: true,
        });
    }
    let stress = |run: &TraceAnalysis| -> Vec<(String, f64)> {
        let Some(ledger) = &run.ledger else { return Vec::new() };
        let mut out = vec![("attribution.total_stress".to_string(), ledger.total())];
        for (cause, _, total) in ledger.cause_totals() {
            out.push((format!("attribution.{cause}.stress"), total));
        }
        out
    };
    let (sa, sb) = (stress(a), stress(b));
    let names: Vec<&String> =
        if sa.is_empty() { sb.iter() } else { sa.iter() }.map(|(n, _)| n).collect();
    for name in names {
        let find =
            |set: &[(String, f64)]| set.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
        rows.push(DiffRow {
            metric: name.clone(),
            a: find(&sa),
            b: find(&sb),
            higher_is_worse: true,
        });
    }
    DiffReport { tolerance, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_self_time_excludes_direct_children() {
        // parent [0, 100] with children [10, 30] and [40, 80]; the
        // grandchild [50, 60] charges the child, not the parent.
        let lines = [
            r#"{"type":"span","name":"child","trace":7,"start_us":10,"duration_us":20}"#,
            r#"{"type":"span","name":"grandchild","trace":7,"start_us":50,"duration_us":10}"#,
            r#"{"type":"span","name":"child","trace":7,"start_us":40,"duration_us":40}"#,
            r#"{"type":"span","name":"parent","trace":7,"start_us":0,"duration_us":100}"#,
        ];
        let analysis = analyze_lines("test", lines).unwrap();
        let by_name: BTreeMap<&str, &PhaseStat> =
            analysis.phases.iter().map(|p| (p.name.as_str(), p)).collect();
        assert_eq!(by_name["parent"].total_us, 100);
        assert_eq!(by_name["parent"].self_us, 40); // 100 - 20 - 40
        assert_eq!(by_name["child"].count, 2);
        assert_eq!(by_name["child"].total_us, 60);
        assert_eq!(by_name["child"].self_us, 50); // 60 - grandchild's 10
        assert_eq!(by_name["grandchild"].self_us, 10);
    }

    #[test]
    fn spans_on_different_workers_do_not_nest() {
        let lines = [
            r#"{"type":"span","name":"a","worker":0,"start_us":0,"duration_us":100}"#,
            r#"{"type":"span","name":"b","worker":1,"start_us":10,"duration_us":20}"#,
        ];
        let analysis = analyze_lines("test", lines).unwrap();
        let a = analysis.phases.iter().find(|p| p.name == "a").unwrap();
        assert_eq!(a.self_us, 100, "a worker boundary is a nesting boundary");
    }

    #[test]
    fn latency_replay_matches_the_live_renderer() {
        let lines = [
            r#"{"type":"histogram","name":"serve.queue_wait_us","value":300}"#,
            r#"{"type":"histogram","name":"serve.service_us","value":40}"#,
            r#"{"type":"histogram","name":"serve.e2e_us","value":350}"#,
            r#"{"type":"histogram","name":"serve.batch_size","value":2}"#,
        ];
        let analysis = analyze_lines("test", lines).unwrap();
        let json = analysis.latency_json();
        assert!(json.starts_with("{\"buckets\":40,\"histograms\":{\"queue_wait_us\":"), "{json}");
        assert!(json.contains("\"queue_wait_us\":{\"count\":1,\"sum_us\":300,"), "{json}");
        assert!(json.contains("\"forward_us\":{\"count\":1,\"sum_us\":40,"), "{json}");
        assert!(json.contains("\"e2e_us\":{\"count\":1,\"sum_us\":350,"), "{json}");
        // batch_size is a histogram observation, not a latency stage.
        assert!(!json.contains("batch_size"));
    }

    #[test]
    fn wear_replay_rebuilds_the_ledger() {
        let lines = [
            r#"{"type":"wear","cause":"remap","param":0,"tiles":[0.5,0.25]}"#,
            r#"{"type":"wear","cause":"inference_read","param":64,"tiles":[1,0.5]}"#,
            r#"{"type":"wear","cause":"tuning","tiles":[1,0.75]}"#,
        ];
        let analysis = analyze_lines("test", lines).unwrap();
        let ledger = analysis.ledger.as_ref().unwrap();
        assert_eq!(ledger.tiles(), 2);
        assert_eq!(ledger.entries().len(), 3);
        let json = analysis.attribution_json();
        assert!(json.contains("{\"cause\":\"inference_read\",\"batch_seq\":64,\"stress\":0.75}"));
        assert!(json.ends_with("\"per_tile\":[1,0.75]}"), "{json}");
    }

    #[test]
    fn fleet_wear_replay_folds_per_replica_ledgers() {
        let lines = [
            r#"{"type":"wear","cause":"replica0.remap","param":0,"tiles":[0.5,0.5]}"#,
            r#"{"type":"wear","cause":"replica1.remap","param":0,"tiles":[0.25,0.25]}"#,
            r#"{"type":"wear","cause":"replica0.inference_read","param":64,"tiles":[1.5,1.5]}"#,
        ];
        let analysis = analyze_lines("test", lines).unwrap();
        assert!(analysis.ledger.is_none(), "prefixed causes must not feed the flat ledger");
        assert_eq!(analysis.replica_ledgers.len(), 2);
        assert_eq!(analysis.replica_ledgers[&0].total(), 3.0);
        assert_eq!(analysis.replica_ledgers[&0].replica(), Some(0));
        assert_eq!(analysis.replica_ledgers[&1].total(), 0.5);
        // max/mean over (3.0, 0.5).
        let imbalance = analysis.fleet_imbalance().unwrap();
        assert!((imbalance - 3.0 / 1.75).abs() < 1e-12, "imbalance {imbalance}");
        let json = analysis.attribution_json();
        assert!(json.starts_with("{\"replicas\":[{\"replica\":0,\"tiles\":2,"), "{json}");
        assert!(json.contains("{\"replica\":1,\"tiles\":2,"), "{json}");
        assert!(analysis.report().contains("fleet attribution: 2 replicas"));
    }

    #[test]
    fn malformed_replica_prefixes_are_unknown_causes() {
        for bad in [
            r#"{"type":"wear","cause":"replicaX.remap","param":0,"tiles":[1.0]}"#,
            r#"{"type":"wear","cause":"replica0.mystery","param":0,"tiles":[1.0]}"#,
        ] {
            let err = analyze_lines("t.jsonl", [bad]).unwrap_err();
            assert!(err.contains("unknown wear cause"), "got: {err}");
        }
    }

    #[test]
    fn diff_flags_fleet_imbalance_drift() {
        let balanced = [
            r#"{"type":"wear","cause":"replica0.remap","param":0,"tiles":[1.0]}"#,
            r#"{"type":"wear","cause":"replica1.remap","param":0,"tiles":[1.0]}"#,
        ];
        let lopsided = [
            r#"{"type":"wear","cause":"replica0.remap","param":0,"tiles":[3.0]}"#,
            r#"{"type":"wear","cause":"replica1.remap","param":0,"tiles":[1.0]}"#,
        ];
        let a = analyze_lines("a", balanced).unwrap();
        let b = analyze_lines("b", lopsided).unwrap();
        let report = diff(&a, &b, 0.05);
        let regressed: Vec<&str> = report.regressions().iter().map(|r| r.metric.as_str()).collect();
        assert!(regressed.contains(&"fleet.wear_imbalance"), "{regressed:?}");
        // Tightening the imbalance is an improvement, not a regression.
        let better = diff(&b, &a, 0.05);
        assert!(
            !better.regressions().iter().any(|r| r.metric == "fleet.wear_imbalance"),
            "{}",
            better.report()
        );
        // Non-fleet traces don't grow the row at all.
        let flat =
            analyze_lines("c", [r#"{"type":"wear","cause":"tuning","tiles":[1.0]}"#]).unwrap();
        let none = diff(&flat, &flat, 0.05);
        assert!(none.rows.iter().all(|r| r.metric != "fleet.wear_imbalance"));
    }

    #[test]
    fn series_replay_feeds_the_forecast() {
        // Tile 0: a linearly shrinking window, 1.0, 0.99, 0.98, ... per
        // boundary. Tile 1: already below the 0.3 critical line (0.08 of
        // fresh, still shrinking).
        let mut lines = Vec::new();
        for k in 0..20u64 {
            for (tile, value) in
                [(0, 1_000_000_000 - 10_000_000 * k), (1, 80_000_000 - 100_000 * k)]
            {
                lines.push(format!(
                    "{{\"type\":\"series\",\"name\":\"serve.window_fraction_ppb{{tile={tile}}}\",\
                     \"seq\":{},\"value\":{value}}}",
                    k + 1,
                ));
            }
        }
        let analysis = analyze_lines("test", lines.iter().map(String::as_str)).unwrap();
        let (trends, worst) = analysis.forecast();
        assert_eq!(trends.len(), 2);
        let (tile, fit) = trends[0];
        assert_eq!(tile, 0);
        assert!((fit.velocity - -10_000_000.0).abs() < 1.0, "velocity {}", fit.velocity);
        // 810 ppb-millions left to the 0.3 critical at 10/session ≈ 51.
        let k = fit.sessions_to_critical.unwrap();
        assert!((k - 51.0).abs() < 0.5, "sessions_to_critical {k}");
        // The tile past critical is the worst, zero sessions away, and the
        // report says so instead of "crosses critical in ~0.0 sessions".
        let (tile, fit) = worst.unwrap();
        assert_eq!((tile, fit.sessions_to_critical), (1, Some(0.0)));
        let report = analysis.report();
        assert!(report.contains("tile 0: window 0.8100"), "{report}");
        assert!(report.contains("crosses critical in ~51"), "{report}");
        assert!(report.contains("tile 1: window 0.0781"), "{report}");
        assert!(report.contains("already past critical"), "{report}");
        assert!(!report.contains("~0.0 sessions"), "{report}");
    }

    #[test]
    fn malformed_lines_abort_with_the_line_number() {
        let lines = [r#"{"type":"message","text":"ok"}"#, "not json"];
        let err = analyze_lines("t.jsonl", lines).unwrap_err();
        assert!(err.starts_with("t.jsonl:2:"), "got: {err}");
        let lines = [r#"{"type":"wear","cause":"mystery","tiles":[1.0]}"#];
        let err = analyze_lines("t.jsonl", lines).unwrap_err();
        assert!(err.contains("unknown wear cause"), "got: {err}");
    }

    #[test]
    fn counters_keep_the_final_total() {
        let lines = [
            r#"{"type":"counter","name":"serve.remaps","delta":1,"total":1}"#,
            r#"{"type":"counter","name":"serve.remaps","delta":1,"total":2}"#,
        ];
        let analysis = analyze_lines("test", lines).unwrap();
        assert_eq!(analysis.counters["serve.remaps"], 2);
    }

    #[test]
    fn json_and_report_render() {
        let lines = [
            r#"{"type":"span","name":"serve.batch","trace":0,"start_us":5,"duration_us":50}"#,
            r#"{"type":"histogram","name":"serve.e2e_us","value":120}"#,
            r#"{"type":"counter","name":"serve.expired","delta":1,"total":1}"#,
            r#"{"type":"wear","cause":"remap","param":0,"tiles":[0.125]}"#,
            r#"{"type":"series","name":"serve.window_fraction_ppb{tile=0}","seq":1,"value":900000000}"#,
        ];
        let analysis = analyze_lines("run.jsonl", lines).unwrap();
        let json = analysis.to_json();
        assert!(json.starts_with("{\"source\":\"run.jsonl\",\"events\":5,\"alerts\":0,"), "{json}");
        assert!(json.contains("\"phases\":[{\"name\":\"serve.batch\",\"count\":1,\"total_us\":50,\"self_us\":50}]"), "{json}");
        assert!(json.contains("\"counters\":{\"serve.expired\":1}"), "{json}");
        assert!(json.contains("\"attribution\":{\"tiles\":1,"), "{json}");
        assert!(json.contains("\"forecast\":{\"tiles\":[{\"tile\":0,\"trend\":{"), "{json}");
        let report = analysis.report();
        assert!(report.contains("serve.batch"), "{report}");
        assert!(report.contains("wear attribution: 1 tiles"), "{report}");
    }

    #[test]
    fn diff_flags_regressions_in_the_worse_direction_only() {
        let base = [
            r#"{"type":"histogram","name":"serve.e2e_us","value":100}"#,
            r#"{"type":"counter","name":"serve.expired","delta":0,"total":0}"#,
        ];
        let slower = [
            r#"{"type":"histogram","name":"serve.e2e_us","value":400}"#,
            r#"{"type":"counter","name":"serve.expired","delta":0,"total":0}"#,
        ];
        let a = analyze_lines("a", base).unwrap();
        let b = analyze_lines("b", slower).unwrap();
        let report = diff(&a, &b, 0.05);
        let regressions = report.regressions();
        assert!(
            regressions.iter().any(|r| r.metric == "latency.e2e_us.p50"),
            "p50 climbed 127 -> 511: {:?}",
            regressions
        );
        // The reverse direction is an improvement, not a regression.
        let reverse = diff(&b, &a, 0.05);
        assert!(reverse.regressions().iter().all(|r| !r.metric.starts_with("latency.e2e_us.p")));
        assert!(report.report().contains("REGRESSED"));
        assert!(report.to_json().contains("\"flag\":\"regressed\""));
    }

    #[test]
    fn diff_flags_delta_remap_efficiency_drift() {
        // Same workload, but the candidate programmed cells the baseline
        // skipped: programming-work counters climbing is a REGRESSION
        // (delta-remap efficiency drift), not throughput growth.
        let base = [
            r#"{"type":"counter","name":"mapping.cells_programmed","delta":100,"total":100}"#,
            r#"{"type":"counter","name":"mapping.cells_skipped","delta":900,"total":900}"#,
            r#"{"type":"counter","name":"mapping.pulses","delta":500,"total":500}"#,
        ];
        let drifted = [
            r#"{"type":"counter","name":"mapping.cells_programmed","delta":600,"total":600}"#,
            r#"{"type":"counter","name":"mapping.cells_skipped","delta":400,"total":400}"#,
            r#"{"type":"counter","name":"mapping.pulses","delta":3000,"total":3000}"#,
        ];
        let a = analyze_lines("a", base).unwrap();
        let b = analyze_lines("b", drifted).unwrap();
        let report = diff(&a, &b, 0.05);
        let regressed: Vec<&str> = report.regressions().iter().map(|r| r.metric.as_str()).collect();
        assert!(regressed.contains(&"counter.mapping.cells_programmed"), "{regressed:?}");
        assert!(regressed.contains(&"counter.mapping.pulses"), "{regressed:?}");
        assert!(regressed.contains(&"remap.cells_skipped_frac"), "{regressed:?}");
        // The derived fraction row compares 0.9 against 0.4.
        let frac = report.rows.iter().find(|r| r.metric == "remap.cells_skipped_frac").unwrap();
        assert!((frac.a - 0.9).abs() < 1e-12 && (frac.b - 0.4).abs() < 1e-12);
        // Skipping *more* cells is an improvement in every direction.
        let better = diff(&b, &a, 0.05);
        assert!(
            better.regressions().is_empty(),
            "improvement misread as regression: {}",
            better.report()
        );
    }

    #[test]
    fn identical_runs_diff_clean() {
        let lines = [
            r#"{"type":"span","name":"serve.forward","worker":1,"trace":3,"start_us":10,"duration_us":25}"#,
            r#"{"type":"histogram","name":"serve.e2e_us","value":100}"#,
            r#"{"type":"wear","cause":"tuning","tiles":[0.5]}"#,
        ];
        let a = analyze_lines("a", lines).unwrap();
        let b = analyze_lines("b", lines).unwrap();
        let report = diff(&a, &b, 0.0);
        assert!(report.regressions().is_empty(), "{}", report.report());
        assert!(report.to_json().ends_with("\"regressions\":0}"));
    }
}
