//! HTTP surface of the serving tier, plugged into the monitor server via
//! [`memaging_obs::monitor::HttpHandler`]:
//!
//! * `POST /infer` — body `{"input": [f32, ...]}` (or a bare JSON array);
//!   blocks until the request is served and answers
//!   `{"seq":..,"generation":..,"prediction":..,"output":[..],..}`.
//!   Admission-control outcomes map to HTTP statuses: 429 queue full,
//!   504 deadline expired, 503 shutting down, 400 bad payload. The router
//!   decides which replica serves the request.
//! * `GET /fleet` — the router's per-replica view: lifecycle state,
//!   routed share, wear snapshot, and live boundary/remap counters.
//! * `GET /serve/stats` — fleet admission counters plus one full
//!   [`crate::ServeStats`] row per replica (including p50/p90/p99/max per
//!   latency stage).
//! * `GET /serve/latency` — per-replica log-bucketed latency histograms
//!   (count/sum/min/max, percentiles, every non-empty bucket).
//! * `GET /wear/attribution` — per-replica wear-attribution ledgers:
//!   per-cause and per-tile accrued stress.
//!
//! Every body has the fleet shape `{..,"replicas":[..]}`, one row per
//! replica, at any replica count.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use memaging_obs::monitor::{HttpHandler, HttpRequest, HttpResponse};
use memaging_obs::push_json_str;

use crate::error::ServeError;
use crate::fleet::FleetService;
use crate::request::InferRequest;

/// The serving tier's [`HttpHandler`]; register with
/// [`memaging_obs::monitor::MonitorServer::bind_with_handlers`].
pub struct FleetHandler {
    service: Arc<FleetService>,
    /// Deadline attached to HTTP-submitted requests (`None`: no
    /// deadline).
    default_deadline: Option<Duration>,
}

impl FleetHandler {
    /// A handler serving `service`, attaching `default_deadline` to each
    /// HTTP request.
    pub fn new(service: Arc<FleetService>, default_deadline: Option<Duration>) -> Self {
        FleetHandler { service, default_deadline }
    }

    fn infer(&self, body: &[u8]) -> HttpResponse {
        let input = match parse_infer_input(body) {
            Ok(input) => input,
            Err(reason) => {
                return HttpResponse::json(400, infer_error_json(&format!("bad input: {reason}")))
            }
        };
        let request = InferRequest { input, deadline: self.default_deadline };
        match self.service.infer(request) {
            Ok(response) => HttpResponse::json(200, infer_response_json(&response)),
            Err(e) => HttpResponse::json(e.http_status(), infer_error_json(&e.to_string())),
        }
    }
}

impl HttpHandler for FleetHandler {
    fn handle(&self, request: &HttpRequest) -> Option<HttpResponse> {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/infer") => Some(self.infer(&request.body)),
            ("GET", "/fleet") => Some(HttpResponse::json(200, self.service.fleet_json())),
            ("GET", "/serve/stats") => Some(HttpResponse::json(200, self.service.stats_json())),
            ("GET", "/serve/latency") => Some(HttpResponse::json(200, self.service.latency_json())),
            ("GET", "/wear/attribution") => {
                Some(HttpResponse::json(200, self.service.wear_attribution_json()))
            }
            _ => None,
        }
    }
}

/// The `POST /infer` 200 body for a served response.
pub(crate) fn infer_response_json(response: &crate::request::InferResponse) -> String {
    let mut out = String::with_capacity(64 + 16 * response.output.len());
    let _ = write!(
        out,
        "{{\"seq\":{},\"generation\":{},\"prediction\":{},\"queue_us\":{},\
         \"service_us\":{},\"output\":[",
        response.seq,
        response.generation,
        response.prediction,
        response.queue_us,
        response.service_us,
    );
    for (i, v) in response.output.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f32(&mut out, *v);
    }
    out.push_str("]}");
    out
}

/// An `{"error": "..."}` body with JSON string escaping.
pub(crate) fn infer_error_json(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 12);
    out.push_str("{\"error\":");
    push_json_str(&mut out, message);
    out.push('}');
    out
}

/// RFC 8259 number formatting for f32 (finite by construction: inputs are
/// validated, logits of a finite network are finite).
fn push_f32(out: &mut String, value: f32) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// Accepts `{"input": [..]}` or a bare `[..]` array of JSON numbers.
/// Deliberately minimal: this is the only JSON the endpoint consumes, and
/// the workspace is dependency-free.
///
/// # Errors
///
/// [`ServeError::BadInput`] with the offending token.
pub(crate) fn parse_infer_input(body: &[u8]) -> Result<Vec<f32>, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadInput { reason: "body is not UTF-8".into() })?
        .trim();
    let array = if let Some(rest) = text.strip_prefix('{') {
        // Find the "input" key and take its array value.
        let rest = rest.trim_start();
        let Some(after_key) =
            rest.strip_prefix("\"input\"").map(str::trim_start).and_then(|r| r.strip_prefix(':'))
        else {
            return Err(ServeError::BadInput {
                reason: "expected {\"input\": [..]} or a bare array".into(),
            });
        };
        let after_key = after_key.trim_start();
        let Some(end) = after_key.find(']') else {
            return Err(ServeError::BadInput { reason: "unterminated input array".into() });
        };
        // Nothing but whitespace and the closing brace may follow the
        // array: no second key, no trailing bytes.
        if after_key[end + 1..].trim_start() != "}" {
            return Err(ServeError::BadInput {
                reason: "expected `}` right after the input array".into(),
            });
        }
        &after_key[..=end]
    } else {
        text
    };
    let inner = array
        .strip_prefix('[')
        .and_then(|a| a.strip_suffix(']'))
        .ok_or_else(|| ServeError::BadInput { reason: "expected a JSON array".into() })?
        .trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|token| {
            token.trim().parse::<f32>().map_err(|_| ServeError::BadInput {
                reason: format!("not a number: {:?}", token.trim()),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_arrays_and_wrapped_objects() {
        assert_eq!(parse_infer_input(b"[1, 2.5, -3e-1]").unwrap(), vec![1.0, 2.5, -0.3]);
        assert_eq!(parse_infer_input(b"{\"input\": [0.5, 1]}").unwrap(), vec![0.5, 1.0]);
        assert_eq!(parse_infer_input(b"  [ ]  ").unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn rejects_malformed_payloads() {
        for bad in [
            &b"not json"[..],
            b"{\"x\": [1]}",
            b"[1, two]",
            b"[1, 2",
            b"\xff\xfe",
            b"{\"input\": [1, 2]",
            b"{\"input\": [1, 2]} trailing",
            b"{\"input\": [1, 2], \"input\": [\"x\"]}",
        ] {
            assert!(parse_infer_input(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn error_json_escapes_quotes() {
        assert_eq!(infer_error_json("a \"b\"\n"), "{\"error\":\"a \\\"b\\\"\\n\"}");
    }
}
