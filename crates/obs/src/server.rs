//! The monitoring/serving HTTP endpoint: a minimal HTTP/1.1 server on
//! [`std::net::TcpListener`] — dependency-free, like everything in the
//! observability stack.
//!
//! Built-in routes:
//!
//! * `GET /metrics` — Prometheus text exposition of the recorder's registry;
//! * `GET /health`  — compact JSON liveness summary (`503` once the
//!   monitored run has failed — scrapers and load balancers alike read it);
//! * `GET /wear`    — the per-tile wear heatmap JSON of
//!   [`crate::monitor::WearState::to_json`];
//! * `GET /forecast` — per-tile lifetime trajectories (wear velocity,
//!   acceleration, sessions-to-critical) folded from the serve engine's
//!   `forecast.*` gauges ([`crate::monitor::WearState::to_forecast_json`]);
//! * `GET /timeseries` — the recorder's deterministic wear time-series
//!   store ([`crate::SeriesStore::to_json`]), `404` when no store
//!   is attached.
//!
//! Additional routes (the serving tier's `POST /infer` and
//! `GET /serve/stats`) plug in through [`HttpHandler`]: handlers are
//! consulted in registration order before the built-ins, each sees the full
//! parsed [`HttpRequest`] (method, path, body), and the first to return a
//! response wins.
//!
//! Each accepted connection is served on its own short-lived thread, so a
//! long-running `POST /infer` cannot starve `/metrics` scrapes. The accept
//! loop tracks those threads and [`MonitorServer::shutdown`] joins the
//! accept thread *and* drains every in-flight connection before returning —
//! a request accepted before shutdown always receives its response.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::prometheus;
use crate::state::{MonitorState, RunStatus};

/// Per-connection socket timeout: a stalled client cannot hold a
/// connection thread for longer than this per read/write.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Maximum accepted request body, bytes. Inference payloads are a few KiB;
/// anything near this is a misbehaving client.
const MAX_BODY: usize = 1 << 20;

/// One parsed HTTP request as seen by an [`HttpHandler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, upper-case as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any query string stripped.
    pub path: String,
    /// Raw request body (empty for bodyless requests).
    pub body: Vec<u8>,
}

/// The response an [`HttpHandler`] produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        HttpResponse { status, content_type: "application/json", body: body.into() }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        HttpResponse { status, content_type: "text/plain; charset=utf-8", body: body.into() }
    }
}

/// A pluggable route handler consulted before the built-in monitor routes.
///
/// Return `None` to decline the request (the next handler, then the
/// built-ins, get their turn); return `Some` to answer it. Handlers run on
/// the per-connection thread and may block for the duration of the work
/// they represent (the serving tier blocks `POST /infer` until the batch
/// that carries the request completes).
pub trait HttpHandler: Send + Sync {
    /// Answers `request`, or declines it with `None`.
    fn handle(&self, request: &HttpRequest) -> Option<HttpResponse>;
}

/// The monitoring HTTP server. Shuts down when dropped (or explicitly via
/// [`MonitorServer::shutdown`]).
pub struct MonitorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    /// In-flight connection threads, shared with the accept loop; drained
    /// on shutdown.
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl MonitorServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, port 0 for ephemeral) and
    /// starts serving `state` on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port in use, permission, bad address).
    pub fn bind(addr: impl ToSocketAddrs, state: MonitorState) -> io::Result<MonitorServer> {
        MonitorServer::bind_with_handlers(addr, state, Vec::new())
    }

    /// Like [`MonitorServer::bind`], with extra [`HttpHandler`] routes
    /// consulted (in order) before the built-in monitor endpoints.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port in use, permission, bad address).
    pub fn bind_with_handlers(
        addr: impl ToSocketAddrs,
        state: MonitorState,
        handlers: Vec<Arc<dyn HttpHandler>>,
    ) -> io::Result<MonitorServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Mutex::new(Vec::new()));
        let thread_stop = Arc::clone(&stop);
        let thread_connections = Arc::clone(&connections);
        let handle = std::thread::Builder::new().name("monitor".into()).spawn(move || {
            accept_loop(&listener, &state, &handlers, &thread_stop, &thread_connections)
        })?;
        Ok(MonitorServer { addr, stop, handle: Some(handle), connections })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins the accept thread, and drains every
    /// in-flight connection: requests already accepted still get their
    /// response before this returns.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        // The accept thread is gone; whatever connections it spawned are
        // all in the vec. Join them so in-flight requests finish cleanly.
        let drained = match self.connections.lock() {
            Ok(mut conns) => std::mem::take(&mut *conns),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for conn in drained {
            let _ = conn.join();
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &MonitorState,
    handlers: &[Arc<dyn HttpHandler>],
    stop: &AtomicBool,
    connections: &Mutex<Vec<JoinHandle<()>>>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = state.clone();
        let handlers: Vec<Arc<dyn HttpHandler>> = handlers.to_vec();
        // Best-effort per connection: a broken request must not kill the
        // server.
        let conn = std::thread::Builder::new().name("monitor-conn".into()).spawn(move || {
            let _ = handle_connection(stream, &state, &handlers);
        });
        let Ok(conn) = conn else { continue };
        let Ok(mut conns) = connections.lock() else { continue };
        // Reap finished threads as we go so the vec tracks only live
        // connections (plus a few just-finished stragglers).
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                let _ = conns.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        conns.push(conn);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    state: &MonitorState,
    handlers: &[Arc<dyn HttpHandler>],
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let Some(request) = read_request(&mut stream)? else {
        return respond(&mut stream, 400, "text/plain; charset=utf-8", "bad request\n");
    };
    for handler in handlers {
        if let Some(response) = handler.handle(&request) {
            return respond(&mut stream, response.status, response.content_type, &response.body);
        }
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => {
            let snapshot = state.recorder.snapshot().unwrap_or_default();
            respond(&mut stream, 200, prometheus::CONTENT_TYPE, &prometheus::render(&snapshot))
        }
        ("GET", "/health") => {
            let wear = state.wear();
            let status = if wear.status == RunStatus::Failed { 503 } else { 200 };
            respond(&mut stream, status, "application/json", &wear.to_health_json())
        }
        ("GET", "/wear") => respond(&mut stream, 200, "application/json", &state.wear().to_json()),
        ("GET", "/forecast") => {
            respond(&mut stream, 200, "application/json", &state.wear().to_forecast_json())
        }
        ("GET", "/timeseries") => match state.recorder.series() {
            Some(store) => respond(&mut stream, 200, "application/json", &store.to_json()),
            None => respond(
                &mut stream,
                404,
                "application/json",
                "{\"error\":\"no series store attached\"}",
            ),
        },
        ("GET", _) => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
        _ => respond(&mut stream, 405, "text/plain; charset=utf-8", "method not allowed\n"),
    }
}

/// Reads and parses one request: head (request line + headers), then as
/// many body bytes as `Content-Length` announces. Returns `None` for
/// anything unparsable (the caller answers 400).
fn read_request(stream: &mut TcpStream) -> io::Result<Option<HttpRequest>> {
    // 8 KiB is plenty for a request head; anything longer is cut off and
    // will fail to parse.
    let mut buf = vec![0u8; 8192];
    let mut len = 0;
    let mut head_end = None;
    while len < buf.len() {
        let n = match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        };
        len += n;
        if let Some(pos) = buf[..len].windows(4).position(|w| w == b"\r\n\r\n") {
            head_end = Some(pos + 4);
            break;
        }
    }
    let Some(head_end) = head_end else { return Ok(None) };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(raw_path)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    if !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Ok(None);
    }
    let path = raw_path.split('?').next().unwrap_or(raw_path).to_string();
    let content_length = head
        .lines()
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Ok(None);
    }
    let mut body = buf[head_end..len].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 8192];
        let want = (content_length - body.len()).min(chunk.len());
        let n = match stream.read(&mut chunk[..want]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        };
        body.extend_from_slice(&chunk[..n]);
    }
    if body.len() < content_length {
        return Ok(None); // Client hung up / timed out mid-body.
    }
    body.truncate(content_length);
    Ok(Some(HttpRequest { method: method.to_string(), path, body }))
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    /// Minimal test-side HTTP GET; returns (status, body).
    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 =
            response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    /// Minimal test-side HTTP POST; returns (status, body).
    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!(
                    "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 =
            response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    fn serving_state() -> (MonitorState, Recorder) {
        let (sink, wear) = crate::state::MonitorSink::new();
        // A recorder that feeds the monitor sink *and* owns a registry.
        let recorder = Recorder::new(vec![Box::new(sink)]);
        (MonitorState::new(recorder.clone(), wear), recorder)
    }

    #[test]
    fn serves_metrics_health_wear_and_404() {
        let (state, recorder) = serving_state();
        recorder.counter("tuner.iterations", 42);
        recorder.gauge_labeled("aging.r_max_ohms", "layer", 0usize, 91_000.0);
        let server = MonitorServer::bind("127.0.0.1:0", state.clone()).unwrap();
        let addr = server.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("tuner_iterations_total 42\n"), "got: {body}");
        assert!(body.contains("aging_r_max_ohms{layer=\"0\"} 91000\n"));

        let (status, body) = get(addr, "/health");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"running\""));

        let (status, body) = get(addr, "/wear");
        assert_eq!(status, 200);
        assert!(body.contains("\"layers\":[{\"layer\":0,\"r_max_ohms\":91000.0,"));

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn serves_forecast_and_timeseries() {
        use crate::SeriesStore;

        let (sink, wear) = crate::state::MonitorSink::new();
        let series = Arc::new(SeriesStore::with_capacity(8));
        let recorder = Recorder::with_series(vec![Box::new(sink)], Arc::clone(&series));
        let state = MonitorState::new(recorder.clone(), wear);
        let server = MonitorServer::bind("127.0.0.1:0", state).unwrap();
        let addr = server.local_addr();

        recorder.series_record("serve.window_fraction_ppb{tile=0}", 1, 900_000_000);
        recorder.gauge_labeled("forecast.window_fraction", "tile", 0usize, 0.9);
        recorder.gauge("forecast.worst_tile", 0.0);
        recorder.gauge("forecast.worst_velocity_per_session", -0.05);

        let (status, body) = get(addr, "/timeseries");
        assert_eq!(status, 200);
        assert!(body.contains("\"serve.window_fraction_ppb{tile=0}\""), "got: {body}");
        assert!(body.contains("\"seq\":1"), "got: {body}");

        let (status, body) = get(addr, "/forecast");
        assert_eq!(status, 200);
        assert!(body.contains("\"tiles\":[{\"tile\":0,\"window_fraction\":0.9,"), "got: {body}");
        assert!(body.contains("\"worst\":{\"tile\":0,"), "got: {body}");

        // The worst-tile forecast is folded into /health too.
        let (status, body) = get(addr, "/health");
        assert_eq!(status, 200);
        assert!(body.contains("\"forecast\":{\"tile\":0,"), "got: {body}");
        server.shutdown();
    }

    #[test]
    fn timeseries_is_404_without_a_store() {
        let (state, _recorder) = serving_state();
        let server = MonitorServer::bind("127.0.0.1:0", state).unwrap();
        let (status, body) = get(server.local_addr(), "/timeseries");
        assert_eq!(status, 404);
        assert_eq!(body, "{\"error\":\"no series store attached\"}");
        server.shutdown();
    }

    #[test]
    fn health_goes_503_when_the_run_fails() {
        let (state, _recorder) = serving_state();
        let server = MonitorServer::bind("127.0.0.1:0", state.clone()).unwrap();
        state.set_status(RunStatus::Failed);
        let (status, body) = get(server.local_addr(), "/health");
        assert_eq!(status, 503);
        assert!(body.contains("\"status\":\"failed\""));
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_and_do_not_kill_the_server() {
        let (state, _recorder) = serving_state();
        let server = MonitorServer::bind("127.0.0.1:0", state).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"bogus\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400 "), "got: {response}");
        // Server still answers afterwards.
        let (status, _) = get(addr, "/health");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn post_to_builtin_routes_is_405() {
        let (state, _recorder) = serving_state();
        let server = MonitorServer::bind("127.0.0.1:0", state).unwrap();
        let (status, _) = post(server.local_addr(), "/metrics", "{}");
        assert_eq!(status, 405);
        server.shutdown();
    }

    /// Echo handler: answers `POST /echo` with the request body.
    struct Echo;
    impl HttpHandler for Echo {
        fn handle(&self, request: &HttpRequest) -> Option<HttpResponse> {
            (request.method == "POST" && request.path == "/echo").then(|| {
                HttpResponse::text(200, String::from_utf8_lossy(&request.body).into_owned())
            })
        }
    }

    #[test]
    fn custom_handlers_see_method_path_and_body() {
        let (state, _recorder) = serving_state();
        let server =
            MonitorServer::bind_with_handlers("127.0.0.1:0", state, vec![Arc::new(Echo)]).unwrap();
        let addr = server.local_addr();
        let payload = "x".repeat(20_000); // Forces the body-continuation read path.
        let (status, body) = post(addr, "/echo", &payload);
        assert_eq!(status, 200);
        assert_eq!(body, payload);
        // Built-ins still answer behind the handler.
        let (status, _) = get(addr, "/health");
        assert_eq!(status, 200);
        server.shutdown();
    }

    /// Slow handler used by the shutdown-under-load regression test: parks
    /// each request long enough that shutdown provably overlaps in-flight
    /// work, then answers. `entered` counts requests inside the handler so
    /// the test can start shutdown only once all of them are in flight.
    struct Slow {
        entered: Arc<std::sync::atomic::AtomicUsize>,
    }
    impl HttpHandler for Slow {
        fn handle(&self, request: &HttpRequest) -> Option<HttpResponse> {
            (request.path == "/slow").then(|| {
                self.entered.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(300));
                HttpResponse::text(200, "slept\n")
            })
        }
    }

    #[test]
    fn shutdown_drains_in_flight_connections() {
        let (state, _recorder) = serving_state();
        let entered = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let slow = Slow { entered: Arc::clone(&entered) };
        let server =
            MonitorServer::bind_with_handlers("127.0.0.1:0", state, vec![Arc::new(slow)]).unwrap();
        let addr = server.local_addr();

        // Launch a wave of slow requests and wait until every one is
        // provably inside its handler, then shut the server down under
        // that load.
        let clients: Vec<_> =
            (0..4).map(|_| std::thread::spawn(move || get(addr, "/slow"))).collect();
        let waiting = std::time::Instant::now();
        while entered.load(Ordering::SeqCst) < 4 {
            assert!(waiting.elapsed() < Duration::from_secs(10), "requests never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        let shutdown_started = std::time::Instant::now();
        server.shutdown();
        assert!(
            shutdown_started.elapsed() <= Duration::from_secs(5),
            "shutdown must not hang on in-flight connections"
        );
        // Every accepted request got its full response despite the
        // concurrent shutdown.
        for client in clients {
            let (status, body) = client.join().unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, "slept\n");
        }
    }
}
