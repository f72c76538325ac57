//! Live serving statistics: lock-free counters, small latency/batch
//! reservoirs, and the log-bucketed latency histograms — rendered as the
//! JSON bodies of `GET /serve/stats` and `GET /serve/latency`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use memaging_obs::{latency_detail_json, LatencySnapshot, ShardedHistogram};

/// Shard count for the latency histograms: comfortably above any worker
/// pool this workspace runs (shard index is `worker % shards`; correctness
/// does not depend on the count, only contention does).
const LATENCY_SHARDS: usize = 16;

/// Power-of-2 buckets per serving latency histogram (queue wait, linger,
/// forward, end-to-end). Bucket `i` spans `[2^(i-1), 2^i - 1]`
/// microseconds; 40 buckets cover up to ~12.7 days. The offline analyzer
/// replays traces into the same count, so its `GET /serve/latency` body
/// matches the live one byte for byte.
pub const LATENCY_BUCKETS: usize = 40;

/// Ring-buffer reservoir capacity: enough for stable tail percentiles,
/// small enough to stay off the serving hot path.
const RESERVOIR: usize = 4096;

/// A fixed-capacity ring of recent observations with percentile queries.
#[derive(Debug)]
struct Reservoir {
    values: Mutex<(Vec<u64>, usize)>,
}

impl Reservoir {
    fn new() -> Self {
        Reservoir { values: Mutex::new((Vec::with_capacity(RESERVOIR), 0)) }
    }

    fn record(&self, value: u64) {
        let mut guard = self.values.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (values, next) = &mut *guard;
        if values.len() < RESERVOIR {
            values.push(value);
        } else {
            values[*next] = value;
            *next = (*next + 1) % RESERVOIR;
        }
    }

    /// `(p50, p99, max)` over the retained window, zeros when empty.
    fn percentiles(&self) -> (u64, u64, u64) {
        let guard = self.values.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if guard.0.is_empty() {
            return (0, 0, 0);
        }
        let mut sorted = guard.0.clone();
        drop(guard);
        sorted.sort_unstable();
        // Nearest-rank percentile: the smallest value with at least q·N
        // observations at or below it.
        let at = |q: f64| {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        (at(0.50), at(0.99), *sorted.last().expect("nonempty"))
    }
}

/// One replica's serving counters and latency windows. All writers are the
/// service's own threads; readers are `GET /serve/stats` and the bench.
/// Admission counters are fleet-wide (one admission queue) and live on
/// [`crate::fleet::FleetService`], not here.
#[derive(Debug)]
pub struct ServeStats {
    /// Requests whose deadline expired before dispatch.
    pub expired: AtomicU64,
    /// Requests served to completion.
    pub served: AtomicU64,
    /// Batches dispatched.
    pub batches: AtomicU64,
    /// Maintenance boundaries processed.
    pub boundaries: AtomicU64,
    /// Aging-triggered live remaps performed.
    pub remaps: AtomicU64,
    /// Requests the fleet router sent to this replica (written by the
    /// dispatcher only; rendered by `GET /fleet`).
    pub routed: AtomicU64,
    queue_wait_us: Reservoir,
    service_us: Reservoir,
    batch_sizes: Reservoir,
    latency: LatencyStats,
    /// Worst-tile lifetime forecast, refreshed by the maintenance engine at
    /// every boundary (absent until the first fit, or when series
    /// retention is off).
    forecast: Mutex<Option<WorstTileForecast>>,
}

/// The worst tile's fitted wear trajectory, as surfaced in
/// `GET /serve/stats` and `GET /health` — "how long does this deployment
/// live" in one object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstTileForecast {
    /// Tile index crossing the critical window soonest.
    pub tile: usize,
    /// Its current mean window fraction (of fresh).
    pub window_fraction: f64,
    /// Fitted window-fraction change per maintenance session (negative
    /// while shrinking).
    pub velocity_per_session: f64,
    /// Forecast sessions until the critical window fraction is crossed
    /// (`None` when flat or improving).
    pub sessions_to_critical: Option<f64>,
}

impl WorstTileForecast {
    /// Renders the forecast as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"tile\":{},\"window_fraction\":{},\"velocity_per_session\":{},\
             \"sessions_to_critical\":",
            self.tile, self.window_fraction, self.velocity_per_session
        );
        match self.sessions_to_critical {
            Some(k) => {
                let _ = write!(out, "{k}");
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// The tier's log-bucketed latency histograms (power-of-2 buckets,
/// lock-free per-worker shards — see [`ShardedHistogram`]): one per stage
/// of a request's life, all in microseconds.
#[derive(Debug)]
pub struct LatencyStats {
    /// Admission → dispatch (recorded by the dispatcher, shard 0).
    pub queue_wait: ShardedHistogram,
    /// Batch-formation linger per dispatched batch (dispatcher, shard 0).
    pub linger: ShardedHistogram,
    /// Per-request forward pass (recorded by its worker's shard).
    pub forward: ShardedHistogram,
    /// Admission → delivery (recorded by the worker's shard).
    pub e2e: ShardedHistogram,
}

impl LatencyStats {
    fn new() -> Self {
        LatencyStats {
            queue_wait: ShardedHistogram::new(LATENCY_SHARDS, LATENCY_BUCKETS),
            linger: ShardedHistogram::new(LATENCY_SHARDS, LATENCY_BUCKETS),
            forward: ShardedHistogram::new(LATENCY_SHARDS, LATENCY_BUCKETS),
            e2e: ShardedHistogram::new(LATENCY_SHARDS, LATENCY_BUCKETS),
        }
    }

    /// `(name, snapshot)` for every stage, in request-life order.
    fn snapshots(&self) -> [(&'static str, LatencySnapshot); 4] {
        [
            ("queue_wait_us", self.queue_wait.snapshot()),
            ("linger_us", self.linger.snapshot()),
            ("forward_us", self.forward.snapshot()),
            ("e2e_us", self.e2e.snapshot()),
        ]
    }
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            expired: AtomicU64::new(0),
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            boundaries: AtomicU64::new(0),
            remaps: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            queue_wait_us: Reservoir::new(),
            service_us: Reservoir::new(),
            batch_sizes: Reservoir::new(),
            latency: LatencyStats::new(),
            forecast: Mutex::new(None),
        }
    }
}

impl ServeStats {
    /// The latency histograms (record side: the service's own threads).
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// Publishes the worst-tile forecast (the maintenance engine, at each
    /// boundary).
    pub fn set_forecast(&self, forecast: WorstTileForecast) {
        *self.forecast.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(forecast);
    }

    /// The latest worst-tile forecast, if one has been fitted.
    pub fn forecast(&self) -> Option<WorstTileForecast> {
        *self.forecast.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one served request's queue wait and service time.
    pub fn record_latency(&self, queue_us: u64, service_us: u64) {
        self.queue_wait_us.record(queue_us);
        self.service_us.record(service_us);
    }

    /// Records one dispatched batch's size.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_sizes.record(size as u64);
    }

    /// Renders the stats snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        let (queue_p50, queue_p99, queue_max) = self.queue_wait_us.percentiles();
        let (service_p50, service_p99, service_max) = self.service_us.percentiles();
        let (batch_p50, batch_p99, batch_max) = self.batch_sizes.percentiles();
        let mut out = format!(
            "{{\"expired\":{},\"served\":{},\
             \"batches\":{},\"boundaries\":{},\"remaps\":{},\
             \"queue_wait_us\":{{\"p50\":{queue_p50},\"p99\":{queue_p99},\"max\":{queue_max}}},\
             \"service_us\":{{\"p50\":{service_p50},\"p99\":{service_p99},\"max\":{service_max}}},\
             \"batch_size\":{{\"p50\":{batch_p50},\"p99\":{batch_p99},\"max\":{batch_max}}}",
            self.expired.load(Ordering::Relaxed),
            self.served.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
            self.boundaries.load(Ordering::Relaxed),
            self.remaps.load(Ordering::Relaxed),
        );
        // Histogram-backed percentiles (nearest-rank over the power-of-2
        // buckets, capped at the exact observed max).
        out.push_str(",\"latency\":{");
        for (i, (name, snap)) in self.latency.snapshots().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                snap.quantile(0.50),
                snap.quantile(0.90),
                snap.quantile(0.99),
                snap.max,
            );
        }
        out.push_str("},\"forecast\":");
        match self.forecast() {
            Some(forecast) => out.push_str(&forecast.to_json()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// The full histogram detail — the JSON body of `GET /serve/latency`:
    /// per stage the count/sum/min/max, p50/p90/p99, mean, and every
    /// non-empty bucket as `{"le": <inclusive upper bound µs>, "count"}`.
    /// Rendered by the shared [`latency_detail_json`] so the offline
    /// analyzer reproduces this body byte-for-byte from a trace.
    pub fn latency_json(&self) -> String {
        latency_detail_json(self.latency.e2e.buckets(), &self.latency.snapshots())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_a_known_window() {
        let stats = ServeStats::default();
        for v in 1..=100u64 {
            stats.record_latency(v, 10 * v);
        }
        let json = stats.to_json();
        assert!(json.contains("\"queue_wait_us\":{\"p50\":50,\"p99\":99,\"max\":100}"), "{json}");
        assert!(json.contains("\"service_us\":{\"p50\":500,\"p99\":990,\"max\":1000}"), "{json}");
    }

    #[test]
    fn reservoir_wraps_at_capacity() {
        let r = Reservoir::new();
        for v in 0..(RESERVOIR as u64 + 10) {
            r.record(v);
        }
        let (_, _, max) = r.percentiles();
        assert_eq!(max, RESERVOIR as u64 + 9);
        let guard = r.values.lock().unwrap();
        assert_eq!(guard.0.len(), RESERVOIR);
    }

    #[test]
    fn json_shape_is_stable_when_empty() {
        let json = ServeStats::default().to_json();
        assert!(json.starts_with("{\"expired\":0,"), "{json}");
        assert!(json.contains("\"batch_size\":{\"p50\":0,\"p99\":0,\"max\":0}"), "{json}");
        assert!(
            json.ends_with(
                "\"e2e_us\":{\"p50\":0,\"p90\":0,\"p99\":0,\"max\":0}},\"forecast\":null}"
            ),
            "{json}"
        );
    }

    #[test]
    fn forecast_surfaces_in_stats_json() {
        let stats = ServeStats::default();
        assert_eq!(stats.forecast(), None);
        stats.set_forecast(WorstTileForecast {
            tile: 3,
            window_fraction: 0.5,
            velocity_per_session: -0.00625,
            sessions_to_critical: Some(32.0),
        });
        let json = stats.to_json();
        assert!(
            json.ends_with(
                "\"forecast\":{\"tile\":3,\"window_fraction\":0.5,\
                 \"velocity_per_session\":-0.00625,\"sessions_to_critical\":32}}"
            ),
            "{json}"
        );
        stats.set_forecast(WorstTileForecast {
            tile: 0,
            window_fraction: 0.9,
            velocity_per_session: 0.0,
            sessions_to_critical: None,
        });
        assert!(stats.to_json().ends_with("\"sessions_to_critical\":null}}"));
    }

    #[test]
    fn histogram_percentiles_surface_in_both_json_bodies() {
        let stats = ServeStats::default();
        // 1000 end-to-end observations spread over 4 worker shards; the
        // merged snapshot must not depend on the sharding.
        for v in 1..=1000u64 {
            stats.latency().e2e.record((v % 4) as usize, v);
        }
        stats.latency().queue_wait.record(0, 300);
        let json = stats.to_json();
        // p50 rank 500 lands in bucket [256, 511]; p90/p99 in [512, 1023];
        // max is exact.
        assert!(
            json.contains("\"e2e_us\":{\"p50\":511,\"p90\":1000,\"p99\":1000,\"max\":1000}"),
            "{json}"
        );
        let detail = stats.latency_json();
        assert!(
            detail.starts_with("{\"buckets\":40,\"histograms\":{\"queue_wait_us\":"),
            "{detail}"
        );
        assert!(detail.contains("\"e2e_us\":{\"count\":1000,\"sum_us\":500500,"), "{detail}");
        assert!(detail.contains("{\"le\":511,\"count\":256}"), "{detail}");
        // The lone queue-wait observation: value 300 in bucket [256, 511].
        assert!(detail.contains("\"queue_wait_us\":{\"count\":1,\"sum_us\":300,"), "{detail}");
        assert!(detail.contains("\"buckets\":[{\"le\":511,\"count\":1}]"), "{detail}");
    }
}
