//! The threaded HTTP server: a bounded accept queue, a fixed worker
//! pool, and the request handlers over the compile → pass → tune
//! pipeline.
//!
//! ## Concurrency model
//!
//! One acceptor thread owns the listening socket. Accepted connections go
//! into a bounded queue; when the queue is full the acceptor answers
//! `429 Too Many Requests` (with `Retry-After`) itself without blocking —
//! backpressure is explicit, not a growing backlog. `--threads` workers
//! pop connections and run the full request lifecycle: parse, route,
//! handle (panics isolated per request via `catch_unwind`), respond.
//! Every connection carries per-request socket read *and* write timeouts,
//! so a stalled client costs one worker at most `--io-timeout-ms`.
//!
//! ## Cache discipline
//!
//! `/v1/tune` looks up the [`grover_core::tune_key`] fingerprint in the
//! in-memory LRU first. A hit is served without *any* measurement — a
//! fresh [`Tuner`] is only constructed on a miss, and
//! [`Tuner::races_run`] is accumulated into the
//! `grover_serve_tune_races_total` metric so "hits never re-measure" is
//! an observable invariant, not a comment. Concurrent misses on the same
//! fingerprint are coalesced through a [`Singleflight`] table: one leader
//! races, followers wait for its published outcome, so N identical misses
//! cost exactly one race. Misses are appended to the persistent journal
//! *before* the response is sent, so a decision the client saw survives
//! a crash of the server process (the append is flushed to the operating
//! system, not fsynced; only compaction fsyncs, so power loss can drop
//! it); if the append fails the client gets a `persist_failed` 500 and
//! nothing is cached.
//!
//! ## Degradation
//!
//! A [`CircuitBreaker`] guards the tuner: consecutive infrastructure
//! failures trip it open, after which misses are answered with a
//! conservative `degraded: true` original-kernel decision (never cached,
//! never persisted) instead of 500s, while cache hits keep being served
//! normally. A cooldown later, one half-open probe decides whether to
//! close the circuit again.
//!
//! ## Prediction
//!
//! With `--model`, `POST /v1/predict` answers from a trained
//! [`grover_predict::Model`] using only static features of the compiled
//! kernel — zero launches, proven by `grover_serve_launches_total`
//! staying flat. Below the confidence threshold the request falls back
//! to the measured flow (cache → singleflight → race), and the measured
//! decision is journalled *with its feature vector*, so every fallback
//! becomes a training row for the next `grover train` — a closed loop.
//! A model whose feature schema or pass-fingerprint epoch does not match
//! this binary is rejected at startup (observably: an event plus a
//! stderr line) and the server degrades to always-abstain.

use std::cell::Cell;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grover_core::{
    pass_fingerprint, tune_key_with_sequences, Grover, GroverOptions, GroverReport, Sequence,
};
use grover_frontend::{compile, BuildOptions};
use grover_ir::printer::function_to_string;
use grover_ir::{Function, Scalar, Type};
use grover_obs::json::{self, array, Json, Obj};
use grover_obs::{Recorder, SpanId, TraceId, Value};
use grover_predict::{schema_hash, FeatureVector, Model as PredictModel};
use grover_runtime::fault::{Faults, IoFaults};
use grover_runtime::{ArgValue, Context, ExecPolicy, Limits, NdRange};
use grover_tuner::{Choice, FallbackReason, TuneError, Tuner, Workload};

use crate::breaker::{Admit, CircuitBreaker};
use crate::cache::{DecisionCache, DecisionRecord, DecisionStore};
use crate::flight::{FlightRecorder, RequestEntry, RequestLog};
use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::metrics::Metrics;
use crate::singleflight::{FlightOutcome, Join, Singleflight};

/// The header a client sets to propagate its trace into the server, and
/// the header every response echoes the request's trace id back on.
pub const TRACE_HEADER: &str = "x-grover-trace-id";

/// Server configuration (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Directory for the persistent decision store.
    pub cache_dir: PathBuf,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accepted-connection queue bound; beyond it the acceptor answers 429.
    pub queue_depth: usize,
    /// In-memory LRU capacity (entries).
    pub cache_capacity: usize,
    /// Server-side ceiling on per-request tune deadlines. A request may
    /// ask for less, never for more.
    pub max_deadline: Option<Duration>,
    /// Test hook: sleep this long at the start of every handled request,
    /// making queue-overflow (429) tests deterministic.
    pub handler_delay: Option<Duration>,
    /// Test hook: requests to this exact path panic inside the handler
    /// isolation boundary, making the panic → flight-dump path
    /// deterministic to test.
    pub panic_path: Option<String>,
    /// Consecutive tuner failures that trip the circuit breaker open.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    pub breaker_cooldown: Duration,
    /// Per-request socket read/write timeout (slow-client protection);
    /// `None` disables it.
    pub io_timeout: Option<Duration>,
    /// Journal dead-record count that triggers an atomic compaction.
    pub compact_threshold: usize,
    /// Capacity of the flight-recorder ring and the `/debug/requests`
    /// log (entries each).
    pub flight_capacity: usize,
    /// Attach per-opcode profiles (`profile` events) to the launch spans
    /// of cache-miss tunes. Off by default.
    pub profile_ops: bool,
    /// Path to a trained `model.json` serving `POST /v1/predict`. `None`
    /// (and a stale or unreadable model) means every predict abstains
    /// into the measured fallback.
    pub model_path: Option<PathBuf>,
    /// Confidence below which `/v1/predict` falls back to the measured
    /// race. Requests may override per-call via a `threshold` field.
    pub predict_threshold: f64,
    /// Test hook: the launch fault plan every cache-miss tune's launches
    /// carry. Empty by default, and always empty and zero-sized without
    /// the runtime's `fault-injection` feature.
    pub faults: Faults,
    /// Test hook: the I/O fault plan the decision journal's appends and
    /// compactions consult. Empty by default, and always empty and
    /// zero-sized without the runtime's `fault-injection` feature.
    pub io_faults: IoFaults,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: PathBuf::from("grover-cache"),
            workers: 2,
            queue_depth: 64,
            cache_capacity: 4096,
            max_deadline: Some(Duration::from_secs(30)),
            handler_delay: None,
            panic_path: None,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(2),
            io_timeout: Some(Duration::from_secs(10)),
            compact_threshold: 512,
            flight_capacity: 512,
            profile_ops: false,
            model_path: None,
            predict_threshold: 0.7,
            faults: Faults::default(),
            io_faults: IoFaults::default(),
        }
    }
}

struct Shared {
    addr: SocketAddr,
    config: ServeConfig,
    epoch: String,
    metrics: Arc<Metrics>,
    /// The request-facing recorder: always the [`FlightRecorder`] (so the
    /// crash ring sees everything), wrapping whatever the caller passed.
    recorder: Arc<dyn Recorder>,
    /// The same object as `recorder`, concretely typed for ring access.
    flight: Arc<FlightRecorder>,
    /// Recent finished requests for `GET /debug/requests`.
    requests: RequestLog,
    cache: Mutex<DecisionCache>,
    store: Mutex<DecisionStore>,
    /// The trained predict model, when one loaded cleanly. `None` makes
    /// every `/v1/predict` abstain into the measured fallback.
    predictor: Option<Arc<PredictModel>>,
    singleflight: Arc<Singleflight>,
    breaker: CircuitBreaker,
    stop: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
}

impl Shared {
    /// Idempotent shutdown trigger: raises the stop flag, wakes the
    /// acceptor (blocked in `accept`) with a throwaway self-connection,
    /// and wakes every idle worker.
    fn request_shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        self.available.notify_all();
    }

    /// Mirror the breaker's state into the `/metrics` gauges.
    fn sync_breaker_metrics(&self) {
        self.metrics.breaker_state.set(self.breaker.state_code());
        self.metrics.breaker_opens.set(self.breaker.opens());
    }

    /// Dump the flight ring to the cache directory (crash / shutdown
    /// artifact). Best-effort: failures are swallowed — the dump must
    /// never turn a survivable panic into an abort.
    fn dump_flight(&self) {
        let _ = self.flight.ring().dump_to(&self.config.cache_dir);
    }
}

/// A running server instance.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, warm-start the cache from the persistent journal (salvaging
    /// every intact record around damage), and spawn the acceptor and
    /// worker threads.
    pub fn start(config: ServeConfig, recorder: Arc<dyn Recorder>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let epoch = pass_fingerprint();

        // Every span the server records goes through the flight recorder,
        // which tees into the crash ring and forwards to the caller's
        // recorder (possibly the no-op one).
        let flight = Arc::new(FlightRecorder::new(recorder, config.flight_capacity));
        let recorder: Arc<dyn Recorder> = flight.clone();

        let recovery = recorder.span_start("serve.recovery", None);
        let (mut store, stats) =
            DecisionStore::open(&config.cache_dir, &epoch, config.compact_threshold)?;
        store.set_io_faults(config.io_faults.clone());
        let mut cache = DecisionCache::new(config.cache_capacity);
        for rec in store.live_records() {
            cache.insert(rec.clone());
        }
        let metrics = Arc::new(Metrics::new());
        metrics.journal_recovered.set(stats.loaded as u64);
        metrics.journal_stale_epoch.set(stats.stale_epoch as u64);
        metrics.journal_corrupt.set(stats.corrupt as u64);
        metrics.journal_torn.set(stats.torn as u64);
        if recorder.enabled() {
            recorder.span_attr(recovery, "loaded", Value::from(stats.loaded));
            recorder.span_attr(recovery, "stale_epoch", Value::from(stats.stale_epoch));
            recorder.span_attr(recovery, "corrupt", Value::from(stats.corrupt));
            recorder.span_attr(recovery, "torn", Value::from(stats.torn));
            recorder.span_attr(recovery, "superseded", Value::from(stats.superseded));
            recorder.event(
                "serve.warm_start",
                Some(recovery),
                &[
                    ("loaded", Value::from(stats.loaded)),
                    ("stale_epoch", Value::from(stats.stale_epoch)),
                    ("corrupt", Value::from(stats.corrupt)),
                    ("torn", Value::from(stats.torn)),
                    ("epoch", Value::from(epoch.as_str())),
                ],
            );
        }
        recorder.span_end(recovery);

        // Model loading is observable in both directions: a clean load
        // records the model's epoch, a rejection (stale schema, stale
        // transform revision, unreadable file) records why and degrades
        // to always-abstain rather than serving mispredictions.
        let predictor = config.model_path.as_ref().and_then(|path| {
            let outcome = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| PredictModel::load(&text, &epoch).map_err(|e| e.to_string()));
            match outcome {
                Ok(model) => {
                    recorder.event(
                        "predict.model_loaded",
                        None,
                        &[
                            ("path", Value::from(path.display().to_string())),
                            ("devices", Value::from(model.devices.len())),
                            ("epoch", Value::from(epoch.as_str())),
                        ],
                    );
                    Some(Arc::new(model))
                }
                Err(e) => {
                    recorder.event(
                        "predict.model_rejected",
                        None,
                        &[
                            ("path", Value::from(path.display().to_string())),
                            ("error", Value::from(e.as_str())),
                        ],
                    );
                    eprintln!(
                        "grover-serve: predict model {} rejected ({e}); \
                         /v1/predict will abstain into the measured fallback",
                        path.display()
                    );
                    None
                }
            }
        });

        let shared = Arc::new(Shared {
            addr,
            epoch,
            metrics,
            recorder,
            requests: RequestLog::new(config.flight_capacity),
            flight,
            cache: Mutex::new(cache),
            store: Mutex::new(store),
            predictor,
            singleflight: Arc::new(Singleflight::default()),
            breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
            stop: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            config,
        });

        let mut workers = Vec::with_capacity(shared.config.workers.max(1));
        for i in 0..shared.config.workers.max(1) {
            let shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))?;
            workers.push(handle);
        }
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || acceptor_loop(&listener, &shared))?
        };

        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The actual bound address (resolves `:0` bindings).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The live metrics counters.
    pub fn metrics(&self) -> Arc<Metrics> {
        self.shared.metrics.clone()
    }

    /// Trigger a graceful shutdown without waiting for it.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until the server has stopped (via [`Server::request_shutdown`]
    /// or `POST /admin/shutdown`), then flush the decision store and the
    /// recorder. Queued requests are drained before workers exit.
    pub fn wait(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Ok(mut store) = self.shared.store.lock() {
            let _ = store.flush();
        }
        // The graceful-shutdown flight dump: the last `flight_capacity`
        // spans/events land next to the journal as `flight-<ts>.jsonl`.
        self.shared.dump_flight();
        self.shared.recorder.flush();
    }

    /// [`Server::request_shutdown`] followed by [`Server::wait`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.wait();
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(shared.config.io_timeout);
        let _ = stream.set_write_timeout(shared.config.io_timeout);
        let mut q = shared.queue.lock().expect("queue poisoned");
        if q.len() >= shared.config.queue_depth {
            drop(q);
            shared.metrics.rejected_busy.inc();
            // Answer on a detached thread: the request must be drained
            // before responding (closing with unread bytes RSTs the
            // socket and the client never sees the 429), and the
            // acceptor must not block on a slow client.
            let shared = shared.clone();
            let _ = std::thread::Builder::new()
                .name("serve-reject".to_string())
                .spawn(move || {
                    let start = Instant::now();
                    // Even a rejected request keeps its trace: the 429
                    // carries (and echoes) the caller's trace id so the
                    // retry can be correlated with the rejection.
                    let req = read_request(&mut stream);
                    let trace = req.as_ref().ok().map(trace_of_request);
                    let mut resp = error_response(429, "backpressure", "request queue is full")
                        .with_header("Retry-After", "1");
                    if let Some(t) = trace {
                        resp = stamp_trace(resp, t);
                    }
                    shared.requests.push(RequestEntry {
                        trace,
                        method: req.as_ref().map(|r| r.method.clone()).unwrap_or_default(),
                        path: req.as_ref().map(|r| r.path.clone()).unwrap_or_default(),
                        status: 429,
                        latency_us: elapsed_us(start),
                        disposition: "rejected",
                    });
                    let _ = write_response(&mut stream, &resp);
                });
        } else {
            q.push_back(stream);
            drop(q);
            shared.available.notify_one();
        }
    }
}

/// The request's trace id: the client's `x-grover-trace-id` header when
/// it parses as 32 hex digits, a freshly minted id otherwise.
fn trace_of_request(req: &Request) -> TraceId {
    req.header(TRACE_HEADER)
        .and_then(TraceId::parse)
        .unwrap_or_else(TraceId::mint)
}

/// Stamp the request's trace onto a response: every response echoes the
/// id in the `x-grover-trace-id` header, and structured 4xx/5xx JSON
/// bodies additionally carry it as a `trace_id` field so an error report
/// pasted into a bug can be joined against the trace without the
/// transport headers.
fn stamp_trace(mut resp: Response, trace: TraceId) -> Response {
    let hex = trace.to_hex();
    if resp.status >= 400 && resp.content_type == "application/json" {
        if let Ok(text) = std::str::from_utf8(&resp.body) {
            if let Some(rest) = text.strip_prefix('{') {
                if !rest.trim_start().starts_with('}') {
                    resp.body = format!("{{\"trace_id\":\"{hex}\",{rest}").into_bytes();
                }
            }
        }
    }
    resp.with_header(TRACE_HEADER, hex)
}

fn elapsed_us(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                // Drain queued work even after stop: clients already
                // accepted get answers.
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.available.wait(q).expect("queue poisoned");
            }
        };
        match conn {
            Some(stream) => {
                if handle_connection(shared, stream) {
                    shared.request_shutdown();
                }
            }
            None => return,
        }
    }
}

/// Full lifecycle of one connection. Returns `true` when the request was
/// a successful `POST /admin/shutdown` and the caller must stop the
/// server.
fn handle_connection(shared: &Shared, mut stream: TcpStream) -> bool {
    if let Some(d) = shared.config.handler_delay {
        std::thread::sleep(d);
    }
    let start = Instant::now();
    let m = &shared.metrics;
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::Io(e)) => {
            // A stalled client tripping the per-request socket timeout is
            // deliberately dropped without a response — writing to a dead
            // peer would just block another worker.
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                m.slow_client_drops.inc();
            }
            return false;
        }
        Err(e) => {
            let (status, kind) = match e {
                HttpError::TooLarge => (413, "too_large"),
                _ => (400, "bad_request"),
            };
            m.requests_total.inc();
            m.errors_total.inc();
            m.observe_latency(start.elapsed());
            // The request never parsed, so no trace header was read: the
            // request-log entry has a null trace id.
            shared.requests.push(RequestEntry {
                trace: None,
                method: String::new(),
                path: String::new(),
                status,
                latency_us: elapsed_us(start),
                disposition: "error",
            });
            let _ = write_response(&mut stream, &error_response(status, kind, e.to_string()));
            return false;
        }
    };

    m.in_flight.inc();
    // Mint (or adopt) the request's trace id before any child span
    // starts: trace inheritance is parent → child at span_start, so
    // setting it on the root covers the whole request tree.
    let trace = trace_of_request(&req);
    let rec = &*shared.recorder;
    let span = rec.span_start("serve.request", None);
    rec.set_trace(span, trace);
    rec.span_attr(span, "method", Value::from(req.method.as_str()));
    rec.span_attr(span, "path", Value::from(req.path.as_str()));

    let disposition = Cell::new("-");
    let mut panicked = false;
    let resp = match catch_unwind(AssertUnwindSafe(|| route(shared, &req, span, &disposition))) {
        Ok(r) => r,
        Err(_) => {
            m.panics_total.inc();
            panicked = true;
            disposition.set("error");
            error_response(500, "panic", "handler panicked; request isolated")
        }
    };
    let resp = stamp_trace(resp, trace);

    rec.span_attr(span, "status", Value::from(resp.status as u64));
    if resp.status >= 400 && disposition.get() == "-" {
        disposition.set("error");
    }
    rec.span_attr(span, "disposition", Value::from(disposition.get()));
    rec.span_end(span);
    if panicked {
        // A handler panic is exactly what the flight recorder exists
        // for: persist the ring (which now includes this request's
        // span) before answering.
        shared.dump_flight();
    }
    m.requests_total.inc();
    if resp.status >= 400 {
        m.errors_total.inc();
    }
    m.observe_latency(start.elapsed());
    m.in_flight.dec();
    shared.requests.push(RequestEntry {
        trace: Some(trace),
        method: req.method.clone(),
        path: req.path.clone(),
        status: resp.status,
        latency_us: elapsed_us(start),
        disposition: disposition.get(),
    });
    if write_response(&mut stream, &resp).is_err() {
        // The peer stopped reading (or the write timeout fired) — the
        // response is lost, but the worker is free again.
        m.slow_client_drops.inc();
    }
    req.method == "POST" && req.path == "/admin/shutdown" && resp.status == 200
}

const ROUTES: [&str; 8] = [
    "/healthz",
    "/metrics",
    "/debug/flight",
    "/debug/requests",
    "/admin/shutdown",
    "/v1/compile",
    "/v1/tune",
    "/v1/predict",
];

fn route(shared: &Shared, req: &Request, span: SpanId, disp: &Cell<&'static str>) -> Response {
    if shared.config.panic_path.as_deref() == Some(req.path.as_str()) {
        panic!("test-induced handler panic at {}", req.path);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => Response::text(200, shared.metrics.render()),
        ("GET", "/debug/flight") => Response::text(200, shared.flight.ring().render()),
        ("GET", "/debug/requests") => Response::json(200, shared.requests.render_json()),
        ("POST", "/admin/shutdown") => {
            Response::json(200, Obj::new().bool("shutting_down", true).finish())
        }
        ("POST", "/v1/compile") => handle_compile(shared, req, span),
        ("POST", "/v1/tune") => handle_tune(shared, req, span, disp),
        ("POST", "/v1/predict") => handle_predict(shared, req, span, disp),
        (_, path) if ROUTES.contains(&path) => {
            error_response(405, "method_not_allowed", "method not allowed")
        }
        _ => error_response(404, "not_found", "no such endpoint"),
    }
}

/// The one JSON error shape every 4xx/5xx response uses:
/// `{"error": <message>, "kind": <machine tag>, "status": <code>}`.
fn error_response(status: u16, kind: &str, msg: impl std::fmt::Display) -> Response {
    Response::json(
        status,
        Obj::new()
            .str("error", &msg.to_string())
            .str("kind", kind)
            .u64("status", u64::from(status))
            .finish(),
    )
}

fn bad_request(msg: impl std::fmt::Display) -> Response {
    error_response(400, "bad_request", msg)
}

/// Parse the request body as a JSON object.
fn parse_body(req: &Request) -> Result<Json, Response> {
    let text = req.body_str().map_err(|e| bad_request(e.to_string()))?;
    match json::parse(text) {
        Ok(v @ Json::Obj(_)) => Ok(v),
        Ok(_) => Err(bad_request("request body must be a JSON object")),
        Err(e) => Err(bad_request(format!("invalid JSON body: {e}"))),
    }
}

fn build_options(body: &Json) -> Result<BuildOptions, Response> {
    let mut opts = BuildOptions::new();
    match body.get("defines") {
        None => {}
        Some(Json::Obj(pairs)) => {
            for (name, v) in pairs {
                let value = match v {
                    Json::Str(s) => s.clone(),
                    Json::Num(n) => json::number(*n),
                    other => {
                        return Err(bad_request(format!(
                            "define `{name}` must be a string or number, got {other:?}"
                        )))
                    }
                };
                opts = opts.define(name, &value);
            }
        }
        Some(_) => return Err(bad_request("`defines` must be an object")),
    }
    Ok(opts)
}

/// Compile the body's `source` and select the requested kernel.
fn compiled_kernel(body: &Json) -> Result<(Function, String), Response> {
    let source = body
        .str_of("source")
        .ok_or_else(|| bad_request("missing required field `source`"))?;
    let opts = build_options(body)?;
    let module = compile(source, &opts).map_err(|e| bad_request(format!("compile error: {e}")))?;
    let kernel = match body.str_of("kernel") {
        Some(name) => module
            .kernel(name)
            .ok_or_else(|| bad_request(format!("no kernel named `{name}` in source")))?
            .clone(),
        None => module
            .kernels
            .first()
            .ok_or_else(|| bad_request("source contains no kernels"))?
            .clone(),
    };
    let name = kernel.name.clone();
    Ok((kernel, name))
}

fn report_json(report: &GroverReport) -> String {
    let buffers = array(report.buffers.iter().map(|b| {
        let obj = Obj::new()
            .str("buffer", &b.buffer)
            .str("outcome", b.outcome.kind());
        let obj = match b.outcome.reason() {
            Some(r) => obj.str("reason", &r),
            None => obj.null("reason"),
        };
        let obj = match &b.outcome {
            grover_core::BufferOutcome::NotCandidate(e) => obj.str("candidate_kind", e.kind()),
            _ => obj.null("candidate_kind"),
        };
        obj.raw(
            "solutions",
            &array(b.solutions.iter().map(|s| json::escape(s))),
        )
        .finish()
    }));
    Obj::new()
        .u64("barriers_removed", report.barriers_removed as u64)
        .u64("insts_removed", report.insts_removed as u64)
        .bool("all_removed", report.all_removed())
        .raw("buffers", &buffers)
        .finish()
}

fn handle_compile(shared: &Shared, req: &Request, span: SpanId) -> Response {
    shared.metrics.compile_requests.inc();
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let (kernel, name) = match compiled_kernel(&body) {
        Ok(k) => k,
        Err(resp) => return resp,
    };
    let keep_barriers = body.bool_of("keep_barriers").unwrap_or(false);
    let source = body.str_of("source").unwrap_or_default();
    let fingerprint = grover_core::source_fingerprint(source).to_hex();
    let rec = &*shared.recorder;
    rec.span_attr(span, "kernel", Value::from(name.as_str()));
    rec.span_attr(span, "fingerprint", Value::from(fingerprint.as_str()));

    let mut transformed = kernel.clone();
    let grover = Grover::with_options(GroverOptions {
        buffers: None,
        keep_barriers,
    });
    let report = grover.run_on_observed(&mut transformed, rec, Some(span));

    Response::json(
        200,
        Obj::new()
            .str("kernel", &name)
            .str("fingerprint", &fingerprint)
            .str("pass_fingerprint", &shared.epoch)
            .raw("report", &report_json(&report))
            .str("original_ir", &function_to_string(&kernel))
            .str("transformed_ir", &function_to_string(&transformed))
            .finish(),
    )
}

/// One synthesised (or explicitly requested) kernel argument.
#[derive(Clone, Debug)]
enum SynthArg {
    BufF32(usize),
    BufI32(usize),
    I32(i32),
    I64(i64),
    F32(f32),
}

/// Deterministic fill shared with the fuzzer's oracle: varied, non-zero,
/// identical on every instantiation.
fn ramp_f32(len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i * 13 + 7) % 61) as f32).collect()
}

fn ramp_i32(len: usize) -> Vec<i32> {
    (0..len).map(|i| ((i * 13 + 7) % 61) as i32).collect()
}

/// Parse an explicit `args` array: `{"i32": N}`, `{"i64": N}`,
/// `{"f32": X}`, `{"buffer_f32": LEN}`, `{"buffer_i32": LEN}`.
fn parse_args(v: &Json) -> Result<Vec<SynthArg>, String> {
    let arr = v.as_arr().ok_or("`args` must be an array")?;
    let mut out = Vec::with_capacity(arr.len());
    for (i, a) in arr.iter().enumerate() {
        let arg = if let Some(n) = a.f64_of("i32") {
            SynthArg::I32(n as i32)
        } else if let Some(n) = a.f64_of("i64") {
            SynthArg::I64(n as i64)
        } else if let Some(n) = a.f64_of("f32") {
            SynthArg::F32(n as f32)
        } else if let Some(n) = a.u64_of("buffer_f32") {
            SynthArg::BufF32(n as usize)
        } else if let Some(n) = a.u64_of("buffer_i32") {
            SynthArg::BufI32(n as usize)
        } else {
            return Err(format!(
                "args[{i}] must be one of {{\"i32\"|\"i64\"|\"f32\"|\"buffer_f32\"|\"buffer_i32\": value}}"
            ));
        };
        out.push(arg);
    }
    Ok(out)
}

/// Derive an argument list from the kernel signature: pointer parameters
/// become deterministic ramp buffers sized for the launch, integer
/// scalars default to the global width (the dominant "n" convention in
/// the bundled kernels), floats to 1.0.
fn synthesise_args(kernel: &Function, global_elems: u64) -> Result<Vec<SynthArg>, String> {
    let len = (global_elems as usize) * 2 + 64;
    kernel
        .params()
        .iter()
        .map(|p| match p.ty {
            Type::Ptr {
                elem: Scalar::F32,
                lanes,
                ..
            } => Ok(SynthArg::BufF32(len * lanes as usize)),
            Type::Ptr {
                elem: Scalar::I32 | Scalar::Bool,
                lanes,
                ..
            } => Ok(SynthArg::BufI32(len * lanes as usize)),
            Type::Scalar(Scalar::I32) => Ok(SynthArg::I32(global_elems as i32)),
            Type::Scalar(Scalar::I64) => Ok(SynthArg::I64(global_elems as i64)),
            Type::Scalar(Scalar::F32) => Ok(SynthArg::F32(1.0)),
            _ => Err(format!(
                "cannot synthesise a workload for parameter `{}`; pass an explicit `args` array",
                p.name
            )),
        })
        .collect()
}

fn make_workload(specs: Vec<SynthArg>, nd: NdRange) -> Workload {
    Workload::new(move || {
        let mut ctx = Context::new();
        let mut vals = Vec::with_capacity(specs.len());
        for s in &specs {
            let v = match *s {
                SynthArg::BufF32(len) => ArgValue::Buffer(ctx.buffer_f32(&ramp_f32(len))),
                SynthArg::BufI32(len) => ArgValue::Buffer(ctx.buffer_i32(&ramp_i32(len))),
                SynthArg::I32(n) => ArgValue::I32(n),
                SynthArg::I64(n) => ArgValue::I64(n),
                SynthArg::F32(x) => ArgValue::F32(x),
            };
            vals.push(v);
        }
        (ctx, vals, nd)
    })
}

/// Parse a launch-dimension array (1–3 entries, all non-zero).
fn parse_dims(v: Option<&Json>, field: &str) -> Result<Vec<u64>, String> {
    let arr = v
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array field `{field}`"))?;
    if arr.is_empty() || arr.len() > 3 {
        return Err(format!("`{field}` must have 1 to 3 dimensions"));
    }
    let dims: Option<Vec<u64>> = arr.iter().map(Json::as_u64).collect();
    let dims = dims.ok_or_else(|| format!("`{field}` entries must be unsigned integers"))?;
    if dims.contains(&0) {
        return Err(format!("`{field}` dimensions must be non-zero"));
    }
    Ok(dims)
}

fn pad3(dims: &[u64]) -> [u64; 3] {
    let mut out = [1u64; 3];
    out[..dims.len()].copy_from_slice(dims);
    out
}

fn tune_error_response(shared: &Shared, e: &TuneError) -> Response {
    let (status, kind) = match e {
        TuneError::UnknownDevice(_) => (400, "unknown_device"),
        TuneError::InvalidSequence(_) => (400, "invalid_sequence"),
        TuneError::NothingToDisable(_) => (422, "pass_refusal"),
        TuneError::Deadline => {
            shared.metrics.deadline_timeouts.inc();
            (504, "deadline")
        }
        TuneError::Execution(_) => (500, "execution"),
        TuneError::Panicked(_) => (500, "panic"),
        TuneError::Internal(_) => (500, "internal"),
    };
    error_response(status, kind, e)
}

/// How the decision reached this response — reported as the `cached`
/// field (`false` only for the request that actually raced).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Served {
    /// This request ran the tuner.
    Fresh,
    /// Answered from the in-memory LRU / warm-started journal.
    Hit,
    /// Answered by joining another request's in-flight race.
    Coalesced,
}

fn decision_response(rec: &DecisionRecord, served: Served) -> Response {
    let mut obj = Obj::new()
        .str("fingerprint", &rec.fingerprint)
        .str("pass_fingerprint", &rec.epoch)
        .bool("cached", served != Served::Fresh)
        .bool("coalesced", served == Served::Coalesced)
        .bool("degraded", false)
        .str("device", &rec.device)
        .str("kernel", &rec.kernel)
        .str("choice", &rec.choice)
        .str("sequence", &rec.sequence)
        .f64("np", rec.np)
        .u64("cycles_with", rec.cycles_with)
        .u64("cycles_without", rec.cycles_without);
    obj = match (&rec.fallback_kind, &rec.fallback_detail) {
        (Some(k), Some(d)) => obj.raw(
            "fallback",
            &Obj::new().str("kind", k).str("detail", d).finish(),
        ),
        _ => obj.null("fallback"),
    };
    Response::json(200, obj.finish())
}

/// The conservative answer served while the tuner circuit is open: keep
/// the original kernel, tagged `degraded` + `circuit_open`. Never cached,
/// never persisted — once the breaker closes, the same request tunes for
/// real.
fn degraded_response(shared: &Shared, fingerprint: &str, device: &str, kernel: &str) -> Response {
    let reason = FallbackReason::CircuitOpen(
        "tuner unavailable; serving the conservative original-kernel decision".to_string(),
    );
    Response::json(
        200,
        Obj::new()
            .str("fingerprint", fingerprint)
            .str("pass_fingerprint", &shared.epoch)
            .bool("cached", false)
            .bool("coalesced", false)
            .bool("degraded", true)
            .str("device", device)
            .str("kernel", kernel)
            .str("choice", Choice::WithLocalMemory.kind())
            .null("sequence")
            .null("np")
            .null("cycles_with")
            .null("cycles_without")
            .raw(
                "fallback",
                &Obj::new()
                    .str("kind", reason.kind())
                    .str("detail", &reason.to_string())
                    .finish(),
            )
            .finish(),
    )
}

/// The request fields `/v1/tune` and `/v1/predict` share, validated and
/// resolved down to the content-addressed tune fingerprint.
struct TuneParams {
    device: String,
    g3: [u64; 3],
    l3: [u64; 3],
    passes: Option<Sequence>,
    fingerprint: String,
    key_kernel: String,
}

/// Validate the common tune/predict request shape and compute the tune
/// key. Stamps the fingerprint/device/kernel attrs onto the request span
/// so both endpoints trace identically.
fn parse_tune_params(shared: &Shared, body: &Json, span: SpanId) -> Result<TuneParams, Response> {
    let Some(source) = body.str_of("source") else {
        return Err(bad_request("missing required field `source`"));
    };
    let Some(device) = body.str_of("device") else {
        return Err(bad_request("missing required field `device`"));
    };
    if !grover_devsim::is_device(device) {
        return Err(bad_request(format!(
            "unknown device `{device}` (known: {})",
            grover_devsim::ALL_DEVICES.join(", ")
        )));
    }
    let global = parse_dims(body.get("global"), "global").map_err(bad_request)?;
    let local = parse_dims(body.get("local"), "local").map_err(bad_request)?;
    if local.len() != global.len() {
        return Err(bad_request(
            "`global` and `local` must have the same dimensionality",
        ));
    }
    let (g3, l3) = (pad3(&global), pad3(&local));
    if g3.iter().zip(&l3).any(|(g, l)| g % l != 0) {
        return Err(bad_request(
            "each `local` dimension must divide its `global` dimension",
        ));
    }

    // Optional `passes`: one explicit pass-sequence spec that replaces the
    // device-seeded candidate race. Validated here so an illegal sequence
    // is a 400 before any cache or tuner work.
    let passes = match body.str_of("passes") {
        Some(raw) => match Sequence::parse(raw) {
            Ok(seq) => Some(seq),
            Err(e) => {
                return Err(error_response(
                    400,
                    "invalid_sequence",
                    format!("invalid `passes`: {e}"),
                ))
            }
        },
        None => None,
    };
    // The sequence-set identity is part of the tune key: an explicit
    // sequence keys by its revision-carrying token, the default search
    // keys by the device's seeded candidate set — so decisions for
    // different sequence sets can never collide, and reseeding the
    // candidates invalidates exactly the affected device's entries.
    let sequences_id = match &passes {
        Some(seq) => seq.token(),
        None => {
            let tokens: Vec<String> = grover_devsim::candidate_sequences(device)
                .iter()
                .map(|s| {
                    Sequence::parse(s)
                        .expect("seeded candidate sequences are legal")
                        .token()
                })
                .collect();
            format!("auto:{}", tokens.join(";"))
        }
    };

    // Resolve the kernel name for the fingerprint: explicit, or the
    // first kernel of the (not yet compiled) source. Compilation is
    // deferred to the miss path, but the name must be part of the key —
    // so a missing `kernel` field costs a cheap parse on hits too.
    let rec = &*shared.recorder;
    let kernel_field = body.str_of("kernel").map(str::to_string);
    let fingerprint;
    let key_kernel;
    if let Some(name) = &kernel_field {
        key_kernel = name.clone();
        fingerprint =
            tune_key_with_sequences(source, name, device, &g3, &l3, &sequences_id).to_hex();
    } else {
        let (_, name) = compiled_kernel(body)?;
        key_kernel = name;
        fingerprint =
            tune_key_with_sequences(source, &key_kernel, device, &g3, &l3, &sequences_id).to_hex();
    }
    rec.span_attr(span, "fingerprint", Value::from(fingerprint.as_str()));
    rec.span_attr(span, "device", Value::from(device));
    rec.span_attr(span, "kernel", Value::from(key_kernel.as_str()));
    Ok(TuneParams {
        device: device.to_string(),
        g3,
        l3,
        passes,
        fingerprint,
        key_kernel,
    })
}

fn handle_tune(
    shared: &Shared,
    req: &Request,
    span: SpanId,
    disp: &Cell<&'static str>,
) -> Response {
    shared.metrics.tune_requests.inc();
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let params = match parse_tune_params(shared, &body, span) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    measured_flow(shared, &body, span, disp, &params)
}

/// The measured decision flow: LRU → breaker → singleflight → race.
/// `/v1/tune` always lands here; `/v1/predict` lands here when the model
/// abstains (its fallback path).
fn measured_flow(
    shared: &Shared,
    body: &Json,
    span: SpanId,
    disp: &Cell<&'static str>,
    p: &TuneParams,
) -> Response {
    let m = &shared.metrics;
    let rec = &*shared.recorder;
    let (fingerprint, device, key_kernel) = (&p.fingerprint, &p.device, &p.key_kernel);
    let (g3, l3) = (p.g3, p.l3);
    let passes = p.passes.as_ref();

    // Cache hit: answer without constructing a tuner at all.
    if let Some(hit) = shared
        .cache
        .lock()
        .expect("cache poisoned")
        .get(fingerprint)
    {
        m.cache_hits.inc();
        disp.set("hit");
        rec.span_attr(span, "cache", Value::from("hit"));
        return decision_response(&hit, Served::Hit);
    }
    m.cache_misses.inc();

    // The effective deadline is needed up front: it bounds the tuner on
    // the leader path and the wait on the follower path.
    let requested = body.u64_of("deadline_ms").map(Duration::from_millis);
    let effective_deadline = match (requested, shared.config.max_deadline) {
        (Some(r), Some(cap)) => Some(r.min(cap)),
        (Some(r), None) => Some(r),
        (None, cap) => cap,
    };

    // Circuit breaker: while the tuner is known-broken, misses get the
    // conservative degraded answer instead of a 500 (hits were already
    // served above — degradation never touches them).
    let admit = shared.breaker.admit();
    shared.sync_breaker_metrics();
    if admit == Admit::Degrade {
        m.degraded.inc();
        disp.set("degraded");
        rec.span_attr(span, "cache", Value::from("degraded"));
        return degraded_response(shared, fingerprint, device, key_kernel);
    }

    // Singleflight: identical concurrent misses share one race. The
    // joiner's trace id rides along so followers can link to the trace
    // that actually did the work.
    match shared.singleflight.join(fingerprint, rec.trace_of(span)) {
        Join::Follower(follower) => {
            m.tune_coalesced.inc();
            disp.set("coalesced");
            rec.span_attr(span, "cache", Value::from("coalesced"));
            // Cross-trace link: this request's answer was computed under
            // the leader's trace, not its own.
            if let Some(leader_trace) = follower.leader_trace() {
                let hex = leader_trace.to_hex();
                rec.event(
                    "coalesce.link",
                    Some(span),
                    &[("leader_trace_id", Value::from(hex.as_str()))],
                );
            }
            // The leader is bounded by the tune deadline; the margin
            // covers its compile + persist overhead.
            let wait =
                effective_deadline.unwrap_or(Duration::from_secs(60)) + Duration::from_secs(10);
            match follower.wait(wait) {
                Some(FlightOutcome::Decision(record)) => {
                    decision_response(&record, Served::Coalesced)
                }
                Some(FlightOutcome::Fail { status, body }) => Response::json(status, body),
                None => {
                    m.coalesce_timeouts.inc();
                    error_response(
                        504,
                        "coalesce_timeout",
                        "timed out waiting for the in-flight tune of this kernel",
                    )
                }
            }
        }
        Join::Leader(leader) => {
            // Double-check the cache with leadership held: the previous
            // leader may have published between our miss and our join —
            // without this, back-to-back misses would re-race the key.
            if let Some(hit) = shared
                .cache
                .lock()
                .expect("cache poisoned")
                .get(fingerprint)
            {
                // This request still shared another's race — count it as
                // coalesced so hits + misses stays one-per-request.
                m.tune_coalesced.inc();
                disp.set("coalesced");
                rec.span_attr(span, "cache", Value::from("coalesced"));
                let resp = decision_response(&hit, Served::Coalesced);
                leader.publish(FlightOutcome::Decision(Box::new(hit)));
                return resp;
            }
            disp.set("miss");
            rec.span_attr(span, "cache", Value::from("miss"));
            let (resp, record) = run_miss(
                shared,
                body,
                span,
                fingerprint,
                key_kernel,
                device,
                g3,
                l3,
                effective_deadline,
                passes,
            );
            match record {
                Some(r) => leader.publish(FlightOutcome::Decision(Box::new(r))),
                None => leader.publish(FlightOutcome::Fail {
                    status: resp.status,
                    body: String::from_utf8_lossy(&resp.body).into_owned(),
                }),
            }
            resp
        }
    }
}

/// Inject `predicted:false` plus the abstained confidence into a
/// measured fallback's 200 decision body, the same prefix trick
/// `stamp_trace` uses — the fallback response stays byte-compatible with
/// `/v1/tune` apart from the two leading fields.
fn annotate_abstain(mut resp: Response, confidence: Option<f64>) -> Response {
    if resp.status == 200 && resp.content_type == "application/json" {
        if let Ok(text) = std::str::from_utf8(&resp.body) {
            if let Some(rest) = text.strip_prefix('{') {
                if !rest.trim_start().starts_with('}') {
                    let conf = match confidence {
                        Some(c) => json::number(c),
                        None => "null".to_string(),
                    };
                    resp.body =
                        format!("{{\"predicted\":false,\"confidence\":{conf},{rest}").into_bytes();
                }
            }
        }
    }
    resp
}

/// `POST /v1/predict`: answer the tuning question from the trained model
/// with zero launches, or abstain below the confidence threshold and
/// fall back to the measured flow. Either way the request's `predict`
/// span carries the feature vector, the confidence and the outcome.
fn handle_predict(
    shared: &Shared,
    req: &Request,
    span: SpanId,
    disp: &Cell<&'static str>,
) -> Response {
    let m = &shared.metrics;
    m.predict_requests.inc();
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let p = match parse_tune_params(shared, &body, span) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    // The model scores static features of the *original* kernel, so the
    // compile happens up front on both the hit and the abstain path.
    // Compilation is host work — still zero launches.
    let (kernel, _) = match compiled_kernel(&body) {
        Ok(k) => k,
        Err(resp) => return resp,
    };
    if kernel.name != p.key_kernel {
        return bad_request(format!("no kernel named `{}` in source", p.key_kernel));
    }
    let features = FeatureVector::extract(&kernel, p.g3, p.l3);
    let threshold = body
        .f64_of("threshold")
        .map(|t| t.clamp(0.0, 1.0))
        .unwrap_or(shared.config.predict_threshold);

    let rec = &*shared.recorder;
    let pspan = rec.span_start("predict", Some(span));
    if rec.enabled() {
        rec.span_attr(pspan, "kernel", Value::from(p.key_kernel.as_str()));
        rec.span_attr(pspan, "device", Value::from(p.device.as_str()));
        rec.span_attr(pspan, "threshold", Value::from(threshold));
        rec.span_attr(pspan, "features", Value::from(features.values_json()));
    }
    let prediction = shared
        .predictor
        .as_deref()
        .and_then(|mdl| mdl.predict(&p.device, &features));

    match prediction {
        Some(pred) if pred.confidence >= threshold => {
            m.predict_hits.inc();
            disp.set("predicted");
            rec.event(
                "outcome",
                Some(pspan),
                &[
                    ("outcome", Value::from("hit")),
                    ("verdict", Value::from(pred.verdict.kind())),
                    ("confidence", Value::from(pred.confidence)),
                    ("np_est", Value::from(pred.np_est)),
                    ("exact_match", Value::from(pred.exact_match)),
                ],
            );
            // Grade against a measured decision when the cache already
            // holds one for this exact fingerprint: a disagreement is an
            // observable misprediction even though the hit is served.
            if let Some(measured) = shared
                .cache
                .lock()
                .expect("cache poisoned")
                .get(&p.fingerprint)
            {
                if measured.choice != pred.verdict.kind() {
                    m.predict_wrong.inc();
                    rec.event(
                        "predict.wrong",
                        Some(pspan),
                        &[
                            ("predicted", Value::from(pred.verdict.kind())),
                            ("measured", Value::from(measured.choice.as_str())),
                            ("confidence", Value::from(pred.confidence)),
                        ],
                    );
                }
            }
            rec.span_end(pspan);
            Response::json(
                200,
                Obj::new()
                    .bool("predicted", true)
                    .f64("confidence", pred.confidence)
                    .str("fingerprint", &p.fingerprint)
                    .str("pass_fingerprint", &shared.epoch)
                    .str("device", &p.device)
                    .str("kernel", &p.key_kernel)
                    .str("choice", pred.verdict.kind())
                    .f64("np_est", pred.np_est)
                    .bool("exact_match", pred.exact_match)
                    .str("neighbor", &pred.neighbor_kernel)
                    .u64("launches", 0)
                    .finish(),
            )
        }
        other => {
            m.predict_abstains.inc();
            let confidence = other.as_ref().map(|pr| pr.confidence);
            let mut attrs: Vec<(&str, Value)> = vec![("outcome", Value::from("abstain"))];
            match &other {
                Some(pr) => {
                    attrs.push(("verdict", Value::from(pr.verdict.kind())));
                    attrs.push(("confidence", Value::from(pr.confidence)));
                }
                None => attrs.push(("reason", Value::from("no model for device"))),
            }
            rec.event("outcome", Some(pspan), &attrs);
            rec.span_end(pspan);
            // Fallback: the measured flow. Its journal row carries the
            // feature vector, feeding the next training round — the
            // closed loop that makes abstains self-correcting.
            let resp = measured_flow(shared, &body, span, disp, &p);
            if let (Some(pr), 200) = (&other, resp.status) {
                if let Ok(Ok(decided)) = std::str::from_utf8(&resp.body).map(json::parse) {
                    if let Some(choice) = decided.str_of("choice") {
                        if choice != pr.verdict.kind() {
                            m.predict_wrong.inc();
                            rec.event(
                                "predict.wrong",
                                Some(span),
                                &[
                                    ("predicted", Value::from(pr.verdict.kind())),
                                    ("measured", Value::from(choice)),
                                    ("confidence", Value::from(pr.confidence)),
                                ],
                            );
                        }
                    }
                }
            }
            annotate_abstain(resp, confidence)
        }
    }
}

/// The leader's miss path: compile, transform, race, persist, cache.
/// Returns the response plus the decision record when one was produced
/// *and appended to the journal* (flushed, so it survives a process
/// crash but not power loss) — that record is what followers are served.
#[allow(clippy::too_many_arguments)]
fn run_miss(
    shared: &Shared,
    body: &Json,
    span: SpanId,
    fingerprint: &str,
    key_kernel: &str,
    device: &str,
    g3: [u64; 3],
    l3: [u64; 3],
    effective_deadline: Option<Duration>,
    passes: Option<&Sequence>,
) -> (Response, Option<DecisionRecord>) {
    let m = &shared.metrics;
    let rec = &*shared.recorder;
    let (kernel, _) = match compiled_kernel(body) {
        Ok(k) => k,
        Err(resp) => return (resp, None),
    };
    if kernel.name != *key_kernel {
        return (
            bad_request(format!("no kernel named `{key_kernel}` in source")),
            None,
        );
    }
    // Refusal pre-check: local removal is the root of every legal
    // sequence, so if it declines here it declines for all candidates —
    // answer 422 with the full report before spinning up a race.
    let mut probe = kernel.clone();
    let grover = Grover::with_options(GroverOptions {
        buffers: None,
        keep_barriers: false,
    });
    let tune_span = rec.span_start("serve.tune", Some(span));
    let report = grover.run_on_observed(&mut probe, rec, Some(tune_span));
    if !report.buffers.iter().any(|b| b.outcome.is_removed()) {
        rec.span_end(tune_span);
        let resp = Response::json(
            422,
            Obj::new()
                .str(
                    "error",
                    "the pass removed no __local buffer; nothing to tune",
                )
                .str("kind", "pass_refusal")
                .u64("status", 422)
                .raw("report", &report_json(&report))
                .finish(),
        );
        return (resp, None);
    }

    let global_elems: u64 = g3.iter().product();
    let specs = match body.get("args") {
        Some(v) => match parse_args(v) {
            Ok(s) => s,
            Err(e) => {
                rec.span_end(tune_span);
                return (bad_request(e), None);
            }
        },
        None => match synthesise_args(&kernel, global_elems) {
            Ok(s) => s,
            Err(e) => {
                rec.span_end(tune_span);
                return (bad_request(e), None);
            }
        },
    };
    let workload = make_workload(specs, NdRange::d3(g3, l3));

    let mut tuner = Tuner::new();
    tuner.recorder = shared.recorder.clone();
    // Nest the tuner's spans under this request's tune span so every
    // span down to the launches carries the request's trace id.
    tuner.parent = Some(tune_span);
    tuner.profile_ops = shared.config.profile_ops;
    tuner.faults = shared.config.faults.clone();
    if let Some(threads) = body.u64_of("threads") {
        tuner.policy = ExecPolicy::Parallel {
            threads: threads as usize,
        };
    }
    tuner.limits = Limits {
        deadline: effective_deadline,
        ..Limits::default()
    };
    // An explicit `passes` spec collapses the race to that one candidate;
    // otherwise the tuner draws the device-seeded set from devsim.
    if let Some(seq) = passes {
        tuner.sequences = Some(vec![seq.spec()]);
    }

    let outcome = tuner.tune(&kernel, device, &workload);
    m.tune_races.add(tuner.races_run());
    m.launches.add(tuner.launches_run());
    rec.span_end(tune_span);
    let decision = match outcome {
        Ok(d) => {
            shared.breaker.record_success();
            shared.sync_breaker_metrics();
            d
        }
        Err(e) => {
            // Infrastructure failures feed the breaker; client errors
            // (unknown device, nothing to disable) do not.
            if matches!(
                e,
                TuneError::Execution(_)
                    | TuneError::Panicked(_)
                    | TuneError::Internal(_)
                    | TuneError::Deadline
            ) {
                shared.breaker.record_failure();
            }
            shared.sync_breaker_metrics();
            return (tune_error_response(shared, &e), None);
        }
    };

    // Journal the decision *with* the original kernel's static features:
    // every measured row is then a ready-made training example, and
    // `grover corpus export` is a join-free dump. This is the closed
    // loop — predict fallbacks land here and improve the next model.
    let features = FeatureVector::extract(&kernel, g3, l3);
    let record = DecisionRecord::from_decision(fingerprint, &shared.epoch, key_kernel, &decision)
        .with_features(&schema_hash(), features.values());
    // Persist before publishing: a decision a client saw is in the
    // journal and survives a crash of this process (flushed, not fsynced:
    // power loss can still drop it). A failed append means the client
    // gets a 500 and nothing is cached — better a retryable error than an
    // acknowledged-then-lost decision.
    let persisted = {
        let mut store = shared.store.lock().expect("store poisoned");
        let r = store.append(&record);
        m.journal_compactions.set(store.compactions());
        r
    };
    if let Err(e) = persisted {
        m.persist_failures.inc();
        return (
            error_response(
                500,
                "persist_failed",
                format!("decision could not be made durable: {e}"),
            ),
            None,
        );
    }
    {
        let mut cache = shared.cache.lock().expect("cache poisoned");
        cache.insert(record.clone());
        let evictions = cache.evictions();
        drop(cache);
        m.cache_evictions.set(evictions);
    }
    (decision_response(&record, Served::Fresh), Some(record))
}
