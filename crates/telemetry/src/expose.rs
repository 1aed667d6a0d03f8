//! Metrics and health exposition: Prometheus text rendering plus a
//! minimal GET-only HTTP server over `std::net::TcpListener`.
//!
//! Everything renders from [`Monitor::snapshot`], so the offline path
//! (tests, CI, bench bins) and the live endpoints share one schema:
//!
//! * `GET /metrics` — Prometheus text format 0.0.4 (`# HELP` + `# TYPE`
//!   per family)
//! * `GET /health`  — the [`crate::drift::HealthReport`] as JSON
//! * `GET /flight`  — the flights in the record ring as JSON
//! * `GET /traces`  — the sampled request traces in that ring as JSON
//! * `GET /profile/cpu`   — the process CPU profile as folded stacks
//!   (`?format=json` for the nested call tree)
//! * `GET /profile/alloc` — the attributed allocation profile, same
//!   two formats
//!
//! Every response carries a `Content-Length`; unknown paths get a JSON
//! error body, and neither unknown paths nor non-GET methods disturb
//! subsequent requests.
//!
//! The server is opt-in via [`serve_from_env`] reading
//! `MANDIPASS_MONITOR_ADDR`; nothing in the crate binds a socket unless
//! asked to.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mandipass_util::json::Value;

use crate::monitor::Monitor;

/// Environment variable naming the exposition bind address
/// (e.g. `127.0.0.1:9464`).
pub const MONITOR_ADDR_ENV: &str = "MANDIPASS_MONITOR_ADDR";

/// Maps a health-status label to its exported gauge value.
fn status_code(label: &str) -> f64 {
    match label {
        "degrading" => 1.0,
        "alarm" => 2.0,
        _ => 0.0,
    }
}

/// Rewrites `name` into a valid Prometheus metric name under the
/// `mandipass_` namespace.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    if !name.starts_with("mandipass") {
        out.push_str("mandipass_");
    }
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() && out.is_empty() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Help text for the exposed metric families, keyed by the *sanitised*
/// family name. Curated entries cover the fixed monitor families;
/// dynamically named families (user counters/gauges/histograms) fall
/// through to a generated line, so every family always carries a
/// `# HELP` (the CI exposition lint enforces this).
fn help_text(name: &str) -> Option<&'static str> {
    Some(match name {
        "mandipass_health_status" => "Fused health status: 0 healthy, 1 degrading, 2 alarm.",
        "mandipass_health_sufficient" => {
            "1 when the drift window holds enough decisions to judge health."
        }
        "mandipass_window_decisions" => "Verify decisions in the current sliding window.",
        "mandipass_health_signal" => "Raw drift-signal value (PSI, KS, ...) per signal.",
        "mandipass_health_signal_status" => {
            "Per-signal health status: 0 healthy, 1 degrading, 2 alarm."
        }
        "mandipass_window_distance_count" => "Distance observations in the sliding window.",
        "mandipass_window_distance_mean" => "Mean verify distance in the sliding window.",
        "mandipass_window_distance_p50" => "Median verify distance in the sliding window.",
        "mandipass_window_distance_p90" => "90th-percentile verify distance in the window.",
        "mandipass_window_distance_psi" => {
            "Population stability index of window distances vs the frozen baseline."
        }
        "mandipass_window_distance_ks" => {
            "Kolmogorov-Smirnov statistic of window distances vs the frozen baseline."
        }
        "mandipass_window_quality_rejects" => "Quality-gate rejects in the window, by reason.",
        "mandipass_window_audit_events" => "Enclave audit events in the window, by kind.",
        "mandipass_flights_retained" => "Failed-verification flight records currently retained.",
        "mandipass_template_memo_hits_total" => {
            "Template transforms that reused a memoized Gaussian matrix."
        }
        "mandipass_template_memo_misses_total" => {
            "Memo-eligible template transforms that drew their Gaussian matrix."
        }
        "mandipass_template_memo_bytes" => {
            "Bytes the live matrix memos charge against their budgets."
        }
        _ => return None,
    })
}

/// The `# HELP` line body for `name`: curated text when registered,
/// otherwise a generated description (never empty).
fn help_line(name: &str) -> String {
    match help_text(name) {
        Some(text) => text.to_string(),
        None => format!("Value of {name} from the mandipass monitor snapshot."),
    }
}

/// Escapes a label value per the text format.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One metric family: `# HELP` + `# TYPE` headers plus its samples,
/// emitted only once per name so the output always passes the
/// duplicate-name lint.
struct Families {
    out: String,
    seen: BTreeSet<String>,
}

impl Families {
    fn new() -> Self {
        Families {
            out: String::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Emits one family; `samples` are `(labels, value)` pairs where
    /// `labels` is either empty or a rendered `{k="v",...}` block.
    fn family(&mut self, name: &str, kind: &str, samples: &[(String, f64)]) {
        let name = metric_name(name);
        if !self.seen.insert(name.clone()) {
            return;
        }
        let _ = writeln!(self.out, "# HELP {name} {}", help_line(&name));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
        for (labels, value) in samples {
            if value.is_finite() {
                let _ = writeln!(self.out, "{name}{labels} {value}");
            }
        }
    }

    /// A summary family: quantile samples plus `_sum` and `_count`.
    fn summary(&mut self, name: &str, hist: &Value) {
        let name = metric_name(name);
        if !self.seen.insert(name.clone()) {
            return;
        }
        let _ = writeln!(self.out, "# HELP {name} {}", help_line(&name));
        let _ = writeln!(self.out, "# TYPE {name} summary");
        for (q, key) in [("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")] {
            if let Some(v) = hist.get(key).and_then(Value::as_f64) {
                let _ = writeln!(self.out, "{name}{{quantile=\"{q}\"}} {v}");
            }
        }
        let sum = hist.get("sum").and_then(Value::as_f64).unwrap_or(0.0);
        let count = hist.get("count").and_then(Value::as_f64).unwrap_or(0.0);
        let _ = writeln!(self.out, "{name}_sum {sum}");
        let _ = writeln!(self.out, "{name}_count {count}");
    }
}

fn labelled(key: &str, value: &str) -> String {
    format!("{{{key}=\"{}\"}}", escape_label(value))
}

/// Renders a [`Monitor::snapshot`] document as Prometheus text format.
pub fn render_prometheus(snapshot: &Value) -> String {
    let mut fam = Families::new();

    if let Some(health) = snapshot.get("health") {
        let status = health.get("status").and_then(Value::as_str).unwrap_or("");
        fam.family(
            "health_status",
            "gauge",
            &[(String::new(), status_code(status))],
        );
        let sufficient = health
            .get("sufficient")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        fam.family(
            "health_sufficient",
            "gauge",
            &[(String::new(), if sufficient { 1.0 } else { 0.0 })],
        );
        let decisions = health
            .get("decisions")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        fam.family("window_decisions", "gauge", &[(String::new(), decisions)]);
        if let Some(signals) = health.get("signals").and_then(Value::as_array) {
            let mut values = Vec::new();
            let mut statuses = Vec::new();
            for s in signals {
                if let Some(label) = s.get("signal").and_then(Value::as_str) {
                    if let Some(v) = s.get("value").and_then(Value::as_f64) {
                        values.push((labelled("signal", label), v));
                    }
                    let code = status_code(s.get("status").and_then(Value::as_str).unwrap_or(""));
                    statuses.push((labelled("signal", label), code));
                }
            }
            fam.family("health_signal", "gauge", &values);
            fam.family("health_signal_status", "gauge", &statuses);
        }
    }

    if let Some(window) = snapshot.get("window") {
        if let Some(distance) = window.get("distance") {
            for (suffix, key) in [
                ("count", "count"),
                ("mean", "mean"),
                ("p50", "p50"),
                ("p90", "p90"),
                ("psi", "psi"),
                ("ks", "ks"),
            ] {
                if let Some(v) = distance.get(key).and_then(Value::as_f64) {
                    let name = format!("window_distance_{suffix}");
                    fam.family(&name, "gauge", &[(String::new(), v)]);
                }
            }
        }
        for (family, label_key, key) in [
            ("window_quality_rejects", "reason", "quality_rejects"),
            ("window_audit_events", "kind", "audit"),
        ] {
            if let Some(Value::Object(entries)) = window.get(key) {
                let samples: Vec<(String, f64)> = entries
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|n| (labelled(label_key, k), n)))
                    .collect();
                fam.family(family, "gauge", &samples);
            }
        }
    }

    if let Some(flights) = snapshot.get("flights").and_then(Value::as_array) {
        fam.family(
            "flights_retained",
            "gauge",
            &[(String::new(), flights.len() as f64)],
        );
    }

    if let Some(metrics) = snapshot.get("metrics") {
        if let Some(Value::Object(counters)) = metrics.get("counters") {
            for (name, v) in counters {
                if let Some(n) = v.as_f64() {
                    let name = format!("{name}_total");
                    fam.family(&name, "counter", &[(String::new(), n)]);
                }
            }
        }
        if let Some(Value::Object(gauges)) = metrics.get("gauges") {
            for (name, v) in gauges {
                if let Some(n) = v.as_f64() {
                    fam.family(name, "gauge", &[(String::new(), n)]);
                }
            }
        }
        if let Some(Value::Object(histograms)) = metrics.get("histograms") {
            for (name, hist) in histograms {
                fam.summary(name, hist);
            }
        }
    }

    fam.out
}

fn http_response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Answers one request on `stream` from `monitor`'s current state.
///
/// `budget` bounds the whole read phase, not just one `read` call: the
/// per-read socket timeout (set in the accept loop) only fires on full
/// silence, so a half-open client trickling one byte per almost-timeout
/// would otherwise hold the single server thread indefinitely.
fn handle(monitor: &Monitor, stream: &mut TcpStream, budget: Duration) {
    let deadline = Instant::now() + budget;
    let mut buf = [0u8; 1024];
    let mut request = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                request.extend_from_slice(&buf[..n]);
                if request.windows(2).any(|w| w == b"\r\n")
                    || request.len() >= 8192
                    || Instant::now() >= deadline
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let line = String::from_utf8_lossy(&request);
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    // Profile endpoints take `?format=json`; other routes ignore any
    // query string rather than 404ing on it.
    let (route, query) = path.split_once('?').unwrap_or((path, ""));
    let json_wanted = query.split('&').any(|kv| kv == "format=json");
    let response = if method != "GET" {
        http_response("405 Method Not Allowed", "text/plain", "GET only\n")
    } else if route == "/profile/cpu" {
        // The profilers are process-global (like the metrics registry),
        // so these routes do not go through the monitor snapshot.
        let profile = crate::profile::snapshot();
        if json_wanted {
            http_response("200 OK", "application/json", &profile.to_json().to_json())
        } else {
            http_response("200 OK", "text/plain", &profile.folded())
        }
    } else if route == "/profile/alloc" {
        let profile = crate::alloc::snapshot();
        if json_wanted {
            http_response("200 OK", "application/json", &profile.to_json().to_json())
        } else {
            http_response("200 OK", "text/plain", &profile.folded())
        }
    } else {
        let snapshot = monitor.snapshot();
        match route {
            "/metrics" => http_response(
                "200 OK",
                "text/plain; version=0.0.4",
                &render_prometheus(&snapshot),
            ),
            "/health" => {
                let body = snapshot
                    .get("health")
                    .cloned()
                    .unwrap_or(Value::Null)
                    .to_json();
                http_response("200 OK", "application/json", &body)
            }
            "/flight" => {
                let body = snapshot
                    .get("flights")
                    .cloned()
                    .unwrap_or(Value::Array(Vec::new()))
                    .to_json();
                http_response("200 OK", "application/json", &body)
            }
            "/traces" => {
                let body = snapshot
                    .get("traces")
                    .cloned()
                    .unwrap_or(Value::Object(Vec::new()))
                    .to_json();
                http_response("200 OK", "application/json", &body)
            }
            _ => {
                // A JSON body (with the path escaped by the JSON
                // layer, not string-glued) so scripted clients can
                // tell a missing route from an empty document.
                let body = Value::Object(vec![
                    (
                        "error".to_string(),
                        Value::String("unknown path".to_string()),
                    ),
                    ("path".to_string(), Value::String(path.to_string())),
                ])
                .to_json();
                http_response("404 Not Found", "application/json", &body)
            }
        }
    };
    let _ = stream.write_all(&response);
    let _ = stream.flush();
}

/// The background exposition server. Dropping it shuts the listener
/// down.
pub struct MonitorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MonitorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl MonitorServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `monitor` on a background thread with the default 2 s read
    /// budget per connection.
    pub fn bind(monitor: &'static Monitor, addr: &str) -> std::io::Result<Self> {
        Self::bind_with_timeout(monitor, addr, Duration::from_secs(2))
    }

    /// [`MonitorServer::bind`] with an explicit per-connection read
    /// budget — a stalled or half-open client costs the server thread
    /// at most roughly one budget before the connection is shed.
    pub fn bind_with_timeout(
        monitor: &'static Monitor,
        addr: &str,
        read_timeout: Duration,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mandipass-monitor".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(mut stream) = stream {
                        // Responses are one small write: Nagle would
                        // only delay them. The socket timeout breaks
                        // full silence; `handle`'s deadline breaks
                        // trickle feeds.
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(read_timeout));
                        handle(monitor, &mut stream, read_timeout);
                    }
                }
            })?;
        Ok(MonitorServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call; the loop re-checks the flag first.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the exposition server for the global monitor when
/// `MANDIPASS_MONITOR_ADDR` is set; `None` otherwise (the normal,
/// socket-free mode).
pub fn serve_from_env() -> Option<MonitorServer> {
    let addr = std::env::var(MONITOR_ADDR_ENV).ok()?;
    if addr.is_empty() {
        return None;
    }
    MonitorServer::bind(crate::monitor::global(), &addr).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightOutcome, VerifyFlight};
    use crate::monitor::{Monitor, MonitorConfig};
    use crate::test_sync::global_state_lock;

    fn fed_monitor() -> Monitor {
        let m = Monitor::new(MonitorConfig::default());
        let calibration = [0.45, 0.47, 0.49, 0.51];
        m.extend_baseline(&calibration);
        m.freeze_baseline();
        // Live traffic with the same distribution as the baseline keeps
        // the drift signal at zero.
        for i in 0..12 {
            m.observe_decision(calibration[i % calibration.len()], true, false);
        }
        m.observe_reject("dead_axis");
        let mut flight = VerifyFlight::new(2, FlightOutcome::Rejected);
        flight.distance = Some(0.9);
        m.record_flight(flight, None);
        let mut trace = crate::trace::RequestTrace::new(0xabc, "verify", "rejected");
        trace.total_nanos = 1200;
        trace.stage("decode", 200);
        trace.stage("verify", 900);
        m.record_trace(trace);
        m
    }

    fn lint(text: &str) {
        // No duplicate family names across `# TYPE` lines, and every
        // family carries a non-empty `# HELP` line before its `# TYPE`.
        let mut seen = BTreeSet::new();
        let mut typed = BTreeSet::new();
        let mut helped = BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                let text = parts.next().unwrap_or("").trim();
                assert!(!text.is_empty(), "empty HELP for {name}");
                helped.insert(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                assert!(seen.insert(name.to_string()), "duplicate family {name}");
                assert!(helped.contains(name), "family {name} has no # HELP line");
                typed.insert(name.to_string());
            } else if !line.is_empty() {
                // Every sample's family must have been typed first
                // (summary samples carry _sum/_count suffixes).
                let sample = line.split(['{', ' ']).next().unwrap_or("");
                let known = typed.contains(sample)
                    || typed.contains(sample.trim_end_matches("_sum"))
                    || typed.contains(sample.trim_end_matches("_count"));
                assert!(known, "sample {sample} before its # TYPE line");
            }
        }
    }

    #[test]
    fn prometheus_output_passes_lint_and_carries_signals() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let m = fed_monitor();
        let text = render_prometheus(&m.snapshot());
        crate::set_deterministic(false);
        lint(&text);
        assert!(text.contains("# HELP mandipass_health_status "));
        assert!(text.contains("# TYPE mandipass_health_status gauge"));
        assert!(text.contains("mandipass_health_status 0"));
        assert!(text.contains("mandipass_health_signal{signal=\"distance_drift\"}"));
        assert!(text.contains("mandipass_window_quality_rejects{reason=\"dead_axis\"} 1"));
        assert!(text.contains("mandipass_flights_retained 1"));
    }

    #[test]
    fn metric_names_are_sanitised_and_namespaced() {
        assert_eq!(metric_name("verify.total"), "mandipass_verify_total");
        assert_eq!(metric_name("mandipass_x"), "mandipass_x");
        assert_eq!(metric_name("9lives"), "mandipass_9lives");
        assert_eq!(metric_name("a b/c"), "mandipass_a_b_c");
    }

    #[test]
    fn server_answers_all_routes() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        static SERVED: std::sync::OnceLock<Monitor> = std::sync::OnceLock::new();
        let monitor = SERVED.get_or_init(fed_monitor);
        let mut server =
            MonitorServer::bind(monitor, "127.0.0.1:0").unwrap_or_else(|e| panic!("bind: {e}"));
        let addr = server.local_addr();
        let fetch = |path: &str| {
            let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect: {e}"));
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap_or_else(|e| panic!("write: {e}"));
            let mut body = String::new();
            let _ = stream.read_to_string(&mut body);
            body
        };
        let metrics = fetch("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("# TYPE mandipass_health_status gauge"));
        let health = fetch("/health");
        assert!(health.contains("application/json"));
        assert!(health.contains("\"status\":\"healthy\""));
        let flight = fetch("/flight");
        assert!(flight.contains("\"outcome\":\"rejected\""));
        let traces = fetch("/traces");
        assert!(traces.contains("application/json"));
        assert!(
            traces.contains("\"trace_id\":\"0000000000000abc\""),
            "{traces}"
        );
        // Profile routes are served from the process-global profilers.
        crate::profile::reset();
        crate::profile::set_enabled(true);
        {
            let _probe = crate::span("probe_route");
        }
        crate::profile::set_enabled(false);
        let cpu = fetch("/profile/cpu");
        assert!(cpu.starts_with("HTTP/1.1 200"), "{cpu}");
        assert!(cpu.contains("text/plain"), "{cpu}");
        assert!(cpu.contains("probe_route "), "{cpu}");
        let cpu_json = fetch("/profile/cpu?format=json");
        assert!(cpu_json.contains("application/json"), "{cpu_json}");
        assert!(cpu_json.contains("\"name\":\"probe_route\""), "{cpu_json}");
        let alloc = fetch("/profile/alloc");
        assert!(alloc.starts_with("HTTP/1.1 200"), "{alloc}");
        crate::profile::reset();
        let missing = fetch("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        assert!(missing.contains("application/json"));
        assert!(missing.contains("\"error\":\"unknown path\""));
        server.shutdown();
        crate::set_deterministic(false);
    }

    #[test]
    fn unknown_paths_and_methods_leave_the_server_serving() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        static SERVED: std::sync::OnceLock<Monitor> = std::sync::OnceLock::new();
        let monitor = SERVED.get_or_init(fed_monitor);
        let mut server =
            MonitorServer::bind(monitor, "127.0.0.1:0").unwrap_or_else(|e| panic!("bind: {e}"));
        let addr = server.local_addr();
        let exchange = |request: &str| {
            let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect: {e}"));
            stream
                .write_all(request.as_bytes())
                .unwrap_or_else(|e| panic!("write: {e}"));
            let mut body = String::new();
            let _ = stream.read_to_string(&mut body);
            body
        };
        // Every response — including errors — must carry Content-Length
        // matching its body, and the server must keep answering.
        let content_length_matches = |response: &str| {
            let header = response
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or_else(|| panic!("no Content-Length in {response}"));
            let body = response
                .split_once("\r\n\r\n")
                .map(|(_, b)| b)
                .unwrap_or("");
            assert_eq!(header, body.len(), "Content-Length mismatch: {response}");
        };
        let missing = exchange("GET /definitely/not/here HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        content_length_matches(&missing);
        let post = exchange("POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        content_length_matches(&post);
        // Still serving after both error paths.
        let health = exchange("GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        content_length_matches(&health);
        server.shutdown();
        crate::set_deterministic(false);
    }

    #[test]
    fn half_open_client_cannot_wedge_the_exposition_server() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        static SERVED: std::sync::OnceLock<Monitor> = std::sync::OnceLock::new();
        let monitor = SERVED.get_or_init(fed_monitor);
        let mut server =
            MonitorServer::bind_with_timeout(monitor, "127.0.0.1:0", Duration::from_millis(100))
                .unwrap_or_else(|e| panic!("bind: {e}"));
        let addr = server.local_addr();
        // A half-open client: connects, sends a partial request line
        // (no CR LF), then stalls with the connection open — the server
        // is mid-read when the bytes stop.
        let mut stalled = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect: {e}"));
        stalled
            .write_all(b"GET /met")
            .unwrap_or_else(|e| panic!("write: {e}"));
        // The single server thread must shed the stalled connection at
        // its read budget and answer the next client promptly.
        let start = Instant::now();
        let mut client = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect: {e}"));
        client
            .write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap_or_else(|e| panic!("write: {e}"));
        let mut body = String::new();
        let _ = client.read_to_string(&mut body);
        assert!(body.starts_with("HTTP/1.1 200"), "{body}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stalled client wedged the server for {:?}",
            start.elapsed()
        );
        drop(stalled);
        server.shutdown();
        crate::set_deterministic(false);
    }

    #[test]
    fn serve_from_env_is_off_by_default() {
        let _lock = global_state_lock();
        std::env::remove_var(MONITOR_ADDR_ENV);
        assert!(serve_from_env().is_none());
    }
}
