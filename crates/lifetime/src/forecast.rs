//! Per-tile wear-trajectory forecasting: velocity and acceleration by
//! windowed regression over a deterministic series, and the
//! sessions-to-critical extrapolation behind the serve tier's predictive
//! burn-rate alerts ("tile 3 crosses critical in ~k sessions").
//!
//! This upgrades the global linear shrinkage fit in [`crate::HealthMonitor`]
//! to *per-tile* trajectories: the input is the raw tail of a
//! `memaging-obs` `SeriesStore` series (integer fixed-point values keyed by
//! maintenance-boundary sequence, e.g. window fraction in parts-per-billion),
//! and the math is a plain ordinary-least-squares fit over at most the
//! newest 16 points.
//!
//! ## Determinism
//!
//! The fit is sequential over an already bit-deterministic input (the
//! series store's raw tail), iterating in ascending-sequence order with no
//! reductions whose order could vary — so the forecast for the same trace
//! is bit-identical at any worker/thread count, which `exp_serve` and the
//! analyzer integration test assert.

use std::fmt::Write as _;

/// Regression window (points of the series raw tail).
const FORECAST_WINDOW: usize = 16;

/// One tile's fitted wear trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileTrend {
    /// Points the fit used (at most 16).
    pub samples: usize,
    /// Sequence key of the newest point.
    pub latest_seq: u64,
    /// Newest raw value (the caller's fixed-point scale, e.g. ppb).
    pub value: u64,
    /// Fitted first derivative: value units per sequence step. Negative
    /// while the window shrinks.
    pub velocity: f64,
    /// Fitted second derivative: change of velocity per sequence step
    /// (difference of half-window slopes over the gap between their mean
    /// sequence keys; 0 when either half has fewer than 2 points).
    pub acceleration: f64,
    /// Sequence steps until the trajectory crosses `critical`:
    /// `Some(0.0)` when already at or below it, `Some(k)` from the linear
    /// extrapolation when the velocity is negative, `None` when flat or
    /// improving (no crossing forecast).
    pub sessions_to_critical: Option<f64>,
}

impl TileTrend {
    /// Renders the trend as a JSON object (floats via the shortest
    /// round-trip formatter, `null` for an absent crossing).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"samples\":{},\"latest_seq\":{},\"value\":{},\"velocity\":{},\
             \"acceleration\":{},\"sessions_to_critical\":",
            self.samples, self.latest_seq, self.value, self.velocity, self.acceleration
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

/// Ordinary-least-squares slope of `points` (`None` when fewer than 2
/// points or all sequence keys coincide), plus the mean sequence key.
fn slope(points: &[(u64, u64)]) -> Option<(f64, f64)> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|&(x, _)| x as f64).sum::<f64>() / n;
    let mean_y = points.iter().map(|&(_, y)| y as f64).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for &(x, y) in points {
        let dx = x as f64 - mean_x;
        sxx += dx * dx;
        sxy += dx * (y as f64 - mean_y);
    }
    (sxx > 0.0).then(|| (sxy / sxx, mean_x))
}

/// Fits the newest 16 points of a series raw tail (ascending `(seq, value)`
/// pairs, as returned by `SeriesSnapshot::raw_points`) and extrapolates to
/// the `critical` threshold. Returns `None` for an empty series.
pub fn trend(points: &[(u64, u64)], critical: u64) -> Option<TileTrend> {
    let tail = &points[points.len().saturating_sub(FORECAST_WINDOW)..];
    let &(latest_seq, value) = tail.last()?;
    let velocity = slope(tail).map_or(0.0, |(v, _)| v);
    // Second derivative from the two half-window slopes, spaced by the gap
    // between their mean sequence keys.
    let acceleration = match (slope(&tail[..tail.len() / 2]), slope(&tail[tail.len() / 2..])) {
        (Some((v1, x1)), Some((v2, x2))) if x2 > x1 => (v2 - v1) / (x2 - x1),
        _ => 0.0,
    };
    let sessions_to_critical = if value <= critical {
        Some(0.0)
    } else if velocity < 0.0 {
        Some((value - critical) as f64 / -velocity)
    } else {
        None
    };
    Some(TileTrend {
        samples: tail.len(),
        latest_seq,
        value,
        velocity,
        acceleration,
        sessions_to_critical,
    })
}

/// Picks the worst tile from `(tile, trend)` pairs: the one crossing
/// critical soonest (an absent crossing counts as never), ties broken by
/// the lower current value, then the lower tile index. `None` for an empty
/// list.
pub fn worst_tile(trends: &[(usize, TileTrend)]) -> Option<(usize, TileTrend)> {
    trends
        .iter()
        .min_by(|(ta, a), (tb, b)| {
            let ka = a.sessions_to_critical.unwrap_or(f64::INFINITY);
            let kb = b.sessions_to_critical.unwrap_or(f64::INFINITY);
            ka.total_cmp(&kb).then(a.value.cmp(&b.value)).then(ta.cmp(tb))
        })
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_has_no_trend() {
        assert_eq!(trend(&[], 0), None);
    }

    #[test]
    fn single_point_is_flat() {
        let t = trend(&[(5, 100)], 30).unwrap();
        assert_eq!((t.samples, t.latest_seq, t.value), (1, 5, 100));
        assert_eq!((t.velocity, t.acceleration), (0.0, 0.0));
        assert_eq!(t.sessions_to_critical, None, "flat trajectory never crosses");
        // ...unless it already has.
        assert_eq!(trend(&[(5, 20)], 30).unwrap().sessions_to_critical, Some(0.0));
    }

    #[test]
    fn linear_decline_extrapolates_exactly() {
        // value = 1000 - 10·seq: velocity −10, crossing 700 from value 900
        // (seq 10) in exactly 20 steps.
        let points: Vec<(u64, u64)> = (1..=10).map(|s| (s, 1000 - 10 * s)).collect();
        let t = trend(&points, 700).unwrap();
        assert_eq!(t.samples, 10);
        assert!((t.velocity + 10.0).abs() < 1e-9, "{t:?}");
        assert!(t.acceleration.abs() < 1e-9, "linear data: no acceleration {t:?}");
        let k = t.sessions_to_critical.unwrap();
        assert!((k - 20.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn quadratic_decline_shows_negative_acceleration() {
        // value = 10000 - seq²: slope steepens, so the late-half slope is
        // more negative than the early-half slope.
        let points: Vec<(u64, u64)> = (1..=12).map(|s| (s, 10_000 - s * s)).collect();
        let t = trend(&points, 0).unwrap();
        assert!(t.velocity < 0.0);
        assert!(t.acceleration < 0.0, "{t:?}");
        // d²(−s²)/ds² = −2.
        assert!((t.acceleration + 2.0).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn window_limits_the_fit() {
        // Old history rises, the newest window falls: only the tail counts.
        let mut points: Vec<(u64, u64)> = (0..20).map(|s| (s, 100 + s)).collect();
        points.extend((20..20 + FORECAST_WINDOW as u64).map(|s| (s, 200 - 5 * (s - 19))));
        let t = trend(&points, 0).unwrap();
        assert_eq!(t.samples, FORECAST_WINDOW);
        assert!((t.velocity + 5.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn improving_trajectory_never_crosses() {
        let points: Vec<(u64, u64)> = (1..=8).map(|s| (s, 100 + s)).collect();
        let t = trend(&points, 50).unwrap();
        assert!(t.velocity > 0.0);
        assert_eq!(t.sessions_to_critical, None);
    }

    #[test]
    fn worst_tile_orders_by_crossing_then_value_then_index() {
        let mk = |value, k: Option<f64>| TileTrend {
            samples: 2,
            latest_seq: 9,
            value,
            velocity: -1.0,
            acceleration: 0.0,
            sessions_to_critical: k,
        };
        assert_eq!(worst_tile(&[]), None);
        let trends = vec![(0, mk(500, None)), (1, mk(400, Some(7.0))), (2, mk(300, Some(3.0)))];
        assert_eq!(worst_tile(&trends).unwrap().0, 2, "soonest crossing wins");
        let ties = vec![(0, mk(500, Some(3.0))), (1, mk(400, Some(3.0)))];
        assert_eq!(worst_tile(&ties).unwrap().0, 1, "lower value breaks the tie");
        let exact = vec![(3, mk(400, Some(3.0))), (5, mk(400, Some(3.0)))];
        assert_eq!(worst_tile(&exact).unwrap().0, 3, "lower tile index breaks the tie");
    }

    #[test]
    fn trend_json_shape() {
        let t = trend(&[(1, 100), (2, 90)], 50).unwrap();
        assert_eq!(
            t.to_json(),
            "{\"samples\":2,\"latest_seq\":2,\"value\":90,\"velocity\":-10,\
             \"acceleration\":0,\"sessions_to_critical\":4}"
        );
        let flat = trend(&[(1, 100)], 50).unwrap();
        assert!(flat.to_json().ends_with("\"sessions_to_critical\":null}"), "{}", flat.to_json());
    }
}
