//! The serve workloads: an in-process `grover-serve` warmed with the
//! workload's keys, an open-loop read generator, a closed-loop miss writer,
//! and the traced stage that joins client and server time by trace id.
//!
//! All load comes from this process over at most two connections at a
//! time (the host has two cores); each request is one connection, as the
//! server speaks `Connection: close` only.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grover_core::{pass_fingerprint, tune_key_with_sequences, Sequence};
use grover_frontend::compile;
use grover_ir::Scalar;
use grover_obs::json::{self, Json, Obj};
use grover_obs::NoopRecorder;
use grover_predict::{FeatureVector, Model, TrainConfig, TrainRow, Verdict};
use grover_runtime::ArgValue;
use grover_serve::{request_full, ClientConfig, DecisionStore, ServeConfig, Server, TRACE_HEADER};

use crate::cases::{Case, Expected, Outcome, Path, Rng, DEVICES};
use crate::clock::{self, burst, measure, process_cpu, scaled, REFERENCE_MS};
use crate::report::Report;
use crate::stats::{geomean, median, percentile, supported_percentile};
use crate::trace::Tracer;

/// How often set-up is repeated; `setup_s` is the median. A set-up warms
/// every key with a miss, trains a model and restarts, about 1.5 s.
const SETUPS: usize = 3;

/// Latency limit of a ladder stage: read p99 from the due time.
const LIMIT_P99_MS: f64 = 50.0;
/// A chunk whose last request went out later than this has a backlog.
const LIMIT_LATE_MS: f64 = 50.0;
/// Repetitions of each function timed on the workload's request bodies.
const CALLS_PER_BODY: usize = 50;
/// Sequential `GET /healthz` calls that time the bare transport.
const TRANSPORT_CALLS: usize = 200;
/// Length of the traced stage. The server's request log keeps the last
/// 512 requests, and the stage must fit in it.
const TRACED_STAGE_S: f64 = 4.0;
/// Read rate of `serve-mix` and of every traced stage. A MIC hit takes
/// 10-20 ms while misses hold both cores, so at 100 rps the one reader
/// connection was itself ~90 % busy and its queue, not the server, set
/// the latency.
const MIX_READ_RPS: f64 = 40.0;
/// Timed load runs in chunks of at most this long, each on a freshly
/// started service, the idle host probed between them ([`Phase`]).
const CHUNK_S: f64 = 0.5;
/// The rate ladder of `serve-read`; the first stage gives its latencies.
const LADDER_RPS: [f64; 6] = [200.0, 300.0, 400.0, 600.0, 800.0, 1000.0];

/// What a request asks the service.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `/v1/tune` cache hit naming the kernel.
    Named,
    /// `/v1/tune` cache hit without `kernel`: the server compiles the
    /// source to learn the name the key needs.
    Unnamed,
    /// `/v1/predict` answered from the model (an exact corpus match).
    Predict,
    /// `/v1/tune` on a fresh key: a full race, journalled.
    Miss,
    /// `/v1/tune` on a key not cached yet (set-up warms every key so).
    Cold,
}

const READ_KINDS: [Kind; 3] = [Kind::Named, Kind::Unnamed, Kind::Predict];

/// One serve key: a case rendered as request bodies.
pub struct Key {
    case: Case,
    fields: String,
    global: [u64; 3],
    local: [u64; 3],
}

impl Key {
    fn new(case: Case) -> Result<Key, String> {
        let p = (case.app.prepare)(case.scale);
        let mut args = Vec::with_capacity(p.args.len());
        for a in &p.args {
            args.push(match *a {
                ArgValue::Buffer(b) => {
                    let data = p.ctx.data(b);
                    let kind = match data.scalar() {
                        Scalar::F32 => "buffer_f32",
                        Scalar::I32 => "buffer_i32",
                        other => return Err(format!("{}: {other:?} buffer", case.label())),
                    };
                    Obj::new().u64(kind, data.len() as u64).finish()
                }
                ArgValue::I32(v) => Obj::new().i64("i32", v.into()).finish(),
                ArgValue::I64(v) => Obj::new().i64("i64", v).finish(),
                ArgValue::F32(v) => Obj::new().f64("f32", v.into()).finish(),
            });
        }
        let defines = (case.app.options)(case.scale)
            .defines()
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.str(k, v))
            .finish();
        let dims = |d: [u64; 3]| json::array(d.iter().map(u64::to_string));
        let fields = Obj::new()
            .str("device", case.device)
            .raw("global", &dims(p.nd.global))
            .raw("local", &dims(p.nd.local))
            .raw("defines", &defines)
            .raw("args", &json::array(args))
            .finish();
        Ok(Key {
            case,
            fields,
            global: p.nd.global,
            local: p.nd.local,
        })
    }

    /// The request body. `miss` prepends `#define BENCH_MISS_<n> 1`,
    /// which changes the source text, and so the tune key, without
    /// changing the kernel. (The key ignores `defines` and `args`.)
    fn body(&self, named: bool, miss: Option<u64>) -> String {
        let source = match miss {
            Some(n) => format!("#define BENCH_MISS_{n} 1\n{}", self.case.app.source),
            None => self.case.app.source.to_string(),
        };
        let mut head = Obj::new().str("source", &source);
        if named {
            head = head.str("kernel", self.case.app.kernel);
        }
        let head = head.finish();
        format!("{},{}", &head[..head.len() - 1], &self.fields[1..])
    }
}

fn keys_for(cases: &[Case]) -> Result<Vec<Key>, String> {
    cases.iter().map(|&c| Key::new(c)).collect()
}

/// The read mix: 40 % `/v1/tune` hits naming the kernel, 40 % omitting
/// it, 20 % `/v1/predict`. The composition is exact over every
/// `10 × keys` reads and every key is read equally often within each
/// kind; the seed sets the order.
pub fn read_mix(seed: u64, keys: usize) -> Vec<(Kind, usize)> {
    const BLOCK: [Kind; 10] = [
        Kind::Named,
        Kind::Named,
        Kind::Named,
        Kind::Named,
        Kind::Unnamed,
        Kind::Unnamed,
        Kind::Unnamed,
        Kind::Unnamed,
        Kind::Predict,
        Kind::Predict,
    ];
    let mut rng = Rng::new(seed);
    let mut kinds = BLOCK.repeat(keys);
    rng.shuffle(&mut kinds);
    let mut perms: Vec<Vec<usize>> = READ_KINDS
        .iter()
        .map(|_| {
            let mut p: Vec<usize> = (0..keys).collect();
            rng.shuffle(&mut p);
            p
        })
        .collect();
    let mut cursor = [0usize; 3];
    kinds
        .into_iter()
        .map(|k| {
            let slot = READ_KINDS
                .iter()
                .position(|r| *r == k)
                .expect("a read kind");
            let key = perms[slot][cursor[slot] % keys];
            cursor[slot] += 1;
            if cursor[slot] % keys == 0 {
                rng.shuffle(&mut perms[slot]);
            }
            (k, key)
        })
        .collect()
}

/// A running in-process service. Dropping it shuts the server down and
/// joins its threads.
struct Service {
    server: Option<Server>,
    addr: SocketAddr,
}

impl Service {
    fn start(dir: &FsPath, model_path: Option<PathBuf>) -> Result<Service, String> {
        let config = ServeConfig {
            cache_dir: dir.to_path_buf(),
            model_path,
            ..Default::default()
        };
        let server = Server::start(config, Arc::new(NoopRecorder))
            .map_err(|e| format!("server start in {}: {e}", dir.display()))?;
        Ok(Service {
            addr: server.addr(),
            server: Some(server),
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Mints the `x-grover-trace-id` of every request, so client and server
/// records of one request can be joined.
struct TraceIds {
    base: u128,
    next: AtomicU64,
}

impl TraceIds {
    fn new(seed: u64) -> TraceIds {
        TraceIds {
            base: u128::from(seed) << 64,
            next: AtomicU64::new(1),
        }
    }

    fn mint(&self) -> String {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        format!("{:032x}", self.base | u128::from(n))
    }
}

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    trace: &str,
) -> Result<(u16, String), String> {
    request_full(
        addr,
        method,
        path,
        body,
        &[(TRACE_HEADER, trace)],
        &ClientConfig::default(),
    )
    .map(|(status, _, body)| (status, body))
    .map_err(|e| format!("{method} {path}: {e}"))
}

fn served_outcome(v: &Json) -> Option<Outcome> {
    let fallback = v.get("fallback").and_then(|f| f.str_of("kind"));
    Some(Outcome::new(
        v.str_of("device")?,
        v.str_of("choice")?,
        v.str_of("sequence")?,
        fallback,
        (v.u64_of("cycles_with")?, v.u64_of("cycles_without")?),
    ))
}

/// Check one response: hits must come from the cache with the expected
/// decision, predictions from the model, misses from a fresh race with
/// the expected decision.
fn check_response(
    kind: Kind,
    key: &Key,
    status: u16,
    body: &str,
    expected: &Expected,
) -> Result<(), String> {
    let label = key.case.label();
    if status != 200 {
        return Err(format!("{label} {kind:?}: HTTP {status}: {body:.200}"));
    }
    let v = json::parse(body).map_err(|e| format!("{label} {kind:?}: {e}"))?;
    let flag = |name| v.bool_of(name);
    match kind {
        Kind::Predict if flag("predicted") == Some(true) => Ok(()),
        Kind::Predict => Err(format!("{label}: prediction abstained: {body:.200}")),
        Kind::Named | Kind::Unnamed | Kind::Miss | Kind::Cold => {
            let want_cached = matches!(kind, Kind::Named | Kind::Unnamed);
            if flag("cached") != Some(want_cached) {
                return Err(format!("{label} {kind:?}: cached != {want_cached}"));
            }
            let got = served_outcome(&v).ok_or_else(|| format!("{label}: incomplete decision"))?;
            expected.check(Path::Serve, &key.case, &got)
        }
    }
}

/// What every request of a run shares: the keys, the expected
/// decisions, and the counters that make trace ids and fresh keys.
struct Load<'a> {
    keys: &'a [Key],
    expected: &'a Expected,
    traces: TraceIds,
    /// Numbers the `BENCH_MISS_<n>` defines of fresh keys.
    misses: AtomicU64,
}

impl<'a> Load<'a> {
    fn new(keys: &'a [Key], expected: &'a Expected, seed: u64) -> Load<'a> {
        Load {
            keys,
            expected,
            traces: TraceIds::new(seed),
            misses: AtomicU64::new(Rng::new(seed).next_u64() >> 20),
        }
    }

    fn client(&self, addr: SocketAddr) -> Client<'_> {
        Client { addr, load: self }
    }
}

/// Sends requests to one service.
#[derive(Clone, Copy)]
struct Client<'a> {
    addr: SocketAddr,
    load: &'a Load<'a>,
}

/// One finished request. Times are seconds from the start of its stage.
#[derive(Clone, Debug)]
pub struct Done {
    pub kind: Kind,
    pub key: usize,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub trace: String,
    pub result: Result<(), String>,
    /// Probe ms of the host around the request ([`Phase::run`]).
    pub speed: f64,
}

impl Done {
    /// Latency as the caller sees it: from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }

    /// [`Done::latency_ms`] scaled to the reference host speed.
    fn scaled_ms(&self) -> f64 {
        scaled(self.latency_ms(), self.speed)
    }
}

impl Client<'_> {
    fn send(&self, kind: Kind, key: usize) -> (String, Result<(), String>) {
        let k = &self.load.keys[key];
        let trace = self.load.traces.mint();
        let (path, body) = match kind {
            Kind::Named | Kind::Cold => ("/v1/tune", k.body(true, None)),
            Kind::Unnamed => ("/v1/tune", k.body(false, None)),
            Kind::Predict => ("/v1/predict", k.body(true, None)),
            Kind::Miss => {
                let n = self.load.misses.fetch_add(1, Ordering::Relaxed);
                ("/v1/tune", k.body(true, Some(n)))
            }
        };
        let result = http(self.addr, "POST", path, Some(&body), &trace)
            .and_then(|(status, text)| check_response(kind, k, status, &text, self.load.expected));
        (trace, result)
    }
}

/// The request a generator sends `i`-th.
type PickFn<'a> = &'a (dyn Fn(usize) -> (Kind, usize) + Sync);
/// Sends one request; returns its trace id and check result.
type SendFn<'a> = &'a (dyn Fn(Kind, usize) -> (String, Result<(), String>) + Sync);

/// Open loop: the stage's `i`-th request, `pick(first + i)`, is due
/// `i / rate` seconds after the stage starts and is sent then, or as soon
/// as one of `conns` connections is free. Latency counts from the due
/// time, so a stall also delays the requests queued behind it.
pub fn open_loop(
    rate: f64,
    seconds: f64,
    conns: usize,
    first: usize,
    pick: PickFn,
    send: SendFn,
) -> Vec<Done> {
    let n = (rate * seconds).round() as usize;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let mut done: Vec<Done> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        let due = i as f64 / rate;
                        let wait = due - now();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        let sent = now();
                        let (kind, key) = pick(first + i);
                        let (trace, result) = send(kind, key);
                        let done = now();
                        mine.push(Done {
                            kind,
                            key,
                            due,
                            sent,
                            done,
                            trace,
                            result,
                            speed: REFERENCE_MS,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread panicked"))
            .collect()
    });
    done.sort_by(|a, b| a.due.total_cmp(&b.due));
    done
}

/// Closed loop: each of `conns` connections sends its next request, from
/// `pick(first)` on, as soon as the previous one is answered, until
/// `seconds` have passed.
fn closed_loop(seconds: f64, conns: usize, first: usize, pick: PickFn, send: SendFn) -> Vec<Done> {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let mut done: Vec<Done> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while now() < seconds {
                        let (kind, key) = pick(next.fetch_add(1, Ordering::Relaxed));
                        let sent = now();
                        let (trace, result) = send(kind, key);
                        let done = now();
                        mine.push(Done {
                            kind,
                            key,
                            due: sent,
                            sent,
                            done,
                            trace,
                            result,
                            speed: REFERENCE_MS,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread panicked"))
            .collect()
    });
    done.sort_by(|a, b| a.due.total_cmp(&b.due));
    done
}

/// Requests per second a closed loop on `conns` connections completes:
/// connections over the mean `latency`.
fn closed_rate(done: &[Done], conns: usize, latency: impl Fn(&Done) -> f64) -> Option<f64> {
    let busy_ms: f64 = done.iter().map(latency).sum();
    (busy_ms > 0.0).then(|| 1e3 * conns as f64 * done.len() as f64 / busy_ms)
}

/// Where a warmed service keeps the model it was restarted with.
const MODEL_FILE: &str = "model.json";

/// A timed phase of load. It runs in chunks of at most [`CHUNK_S`], each
/// against a freshly started service, warm from the set-up's journal and
/// model: how fast one server instance answers varies by up to 20 % with
/// state its threads settle into (six restarts in one run spanned 10.1 to
/// 12.4 ms for MIC hits), so each run samples many instances. After each
/// chunk, with the service shut down, the idle host is probed, and the
/// chunk's requests and CPU are scaled by the mean of the bursts either
/// side of it. Probing between chunks, not beside the load, keeps the
/// load's own contention out of the probe.
struct Phase<'a> {
    load: &'a Load<'a>,
    dir: PathBuf,
    start: Instant,
    faults: u64,
    /// The last burst's median probe ms.
    speed: f64,
    /// Process CPU ms of the chunks, raw and scaled.
    cpu_ms: f64,
    scaled_cpu_ms: f64,
    /// Launches the service instances ran.
    launches: u64,
}

impl<'a> Phase<'a> {
    fn start(load: &'a Load<'a>, warm: Warm) -> Phase<'a> {
        let dir = warm.dir.clone();
        // The warm-up service makes way for the per-chunk instances.
        drop(warm);
        let (start, faults) = (Instant::now(), clock::minor_faults());
        Phase {
            load,
            dir,
            start,
            faults,
            speed: burst(),
            cpu_ms: 0.0,
            scaled_cpu_ms: 0.0,
            launches: 0,
        }
    }

    /// Run `chunk(client, chunk_seconds)` until `seconds` are covered;
    /// returns the chunks' requests.
    fn run(
        &mut self,
        seconds: f64,
        mut chunk: impl FnMut(&Client, f64) -> Vec<Done>,
    ) -> Result<Vec<Vec<Done>>, String> {
        let mut chunks = Vec::new();
        let mut left = seconds;
        while left > 1e-6 {
            let len = left.min(CHUNK_S);
            let service = Service::start(&self.dir, Some(self.dir.join(MODEL_FILE)))?;
            let client = self.load.client(service.addr);
            let cpu0 = process_cpu();
            let mut done = chunk(&client, len);
            let cpu_ms = process_cpu().saturating_sub(cpu0).as_secs_f64() * 1e3;
            self.launches += scrape(service.addr, LAUNCHES)?;
            drop(service);
            let after = burst();
            let speed = (self.speed + after) / 2.0;
            for d in &mut done {
                d.speed = speed;
            }
            self.cpu_ms += cpu_ms;
            self.scaled_cpu_ms += scaled(cpu_ms, speed);
            self.speed = after;
            chunks.push(done);
            left -= len;
        }
        Ok(chunks)
    }

    /// Record the phase's length and its process CPU per request.
    fn finish(&self, requests: usize, report: &mut Report) {
        let per_request = |ms: f64| Some(ms / requests as f64);
        report.set_scaled(
            "cpu_ms",
            per_request(self.scaled_cpu_ms),
            per_request(self.cpu_ms),
        );
        let faults = clock::minor_faults().saturating_sub(self.faults);
        report.note(format!(
            "  {:.1} page faults per request",
            faults as f64 / requests as f64
        ));
        report.samples.insert("requests".into(), requests as u64);
        report
            .durations
            .insert("timed_s".into(), self.start.elapsed().as_secs_f64());
    }
}

/// The limit a ladder stage must meet: no failed request, read p99 (from
/// the due time) within `LIMIT_P99_MS`, and the last request of every
/// chunk sent no more than `LIMIT_LATE_MS` late, i.e. no growing backlog.
pub fn meets_limit(chunks: &[Vec<Done>]) -> bool {
    let lat: Vec<f64> = chunks.iter().flatten().map(Done::latency_ms).collect();
    chunks.iter().flatten().all(|d| d.result.is_ok())
        && percentile(&lat, 99.0).is_some_and(|p| p <= LIMIT_P99_MS)
        && chunks
            .iter()
            .all(|c| c.last().map_or(0.0, Done::late_ms) <= LIMIT_LATE_MS)
}

/// The highest rate whose stage, and every slower stage, met the limit;
/// 0 when the first stage missed it.
pub fn max_rate(stages: &[(f64, bool)]) -> f64 {
    stages
        .iter()
        .take_while(|(_, ok)| *ok)
        .map(|(rate, _)| *rate)
        .fold(0.0, f64::max)
}

fn tally(report: &mut Report, done: &[Done]) {
    for d in done {
        report.check(d.result.clone());
    }
}

/// The reads of each (kind, device) stratum of the read mix.
fn strata<'a>(done: &'a [Done], keys: &[Key]) -> Vec<((Kind, &'static str), Vec<&'a Done>)> {
    READ_KINDS
        .iter()
        .flat_map(|&kind| DEVICES.iter().map(move |&dev| (kind, dev)))
        .map(|(kind, dev)| {
            let reads = done
                .iter()
                .filter(|d| d.kind == kind && keys[d.key].case.device == dev)
                .collect();
            ((kind, dev), reads)
        })
        .collect()
}

/// `latency_ms` and `tail_latency_ms` of a read stage, scaled, with their
/// raw values. The latency is the geometric mean, over the (kind, device)
/// strata, of each stratum's median: a MIC hit costs twenty Fermi hits,
/// so a median over all reads would sit on the edge between clusters and
/// jump with small shifts in the mix. The tail is the highest percentile
/// with ten reads beyond it.
fn set_read_metrics(report: &mut Report, done: &[Done], keys: &[Key]) {
    let strata = strata(done, keys);
    let stratified = |latency: fn(&Done) -> f64| {
        let medians: Vec<f64> = strata
            .iter()
            .filter_map(|(_, reads)| median(&reads.iter().map(|d| latency(d)).collect::<Vec<_>>()))
            .collect();
        geomean(&medians)
    };
    report.set_scaled(
        "latency_ms",
        stratified(Done::scaled_ms),
        stratified(Done::latency_ms),
    );
    let reads: Vec<&Done> = done
        .iter()
        .filter(|d| READ_KINDS.contains(&d.kind))
        .collect();
    let lat: Vec<f64> = reads.iter().map(|d| d.scaled_ms()).collect();
    let raw: Vec<f64> = reads.iter().map(|d| d.latency_ms()).collect();
    match supported_percentile(lat.len()) {
        Some(p) => {
            report.set_scaled("tail_latency_ms", percentile(&lat, p), percentile(&raw, p));
            report.note(format!(
                "  tail_latency_ms is read p{p} over {} reads",
                lat.len()
            ));
        }
        None => report.fail(format!(
            "{} reads are too few for a tail percentile",
            lat.len()
        )),
    }
    for ((kind, dev), reads) in &strata {
        let v: Vec<f64> = reads.iter().map(|d| d.scaled_ms()).collect();
        if let Some(m) = median(&v) {
            report.note(format!(
                "  {kind:?} reads on {dev}: p50 {m:.3} ms over {} (scaled)",
                v.len()
            ));
        }
    }
    report
        .samples
        .insert("stage_reads".into(), reads.len() as u64);
}

/// The server's counter of kernel launches.
const LAUNCHES: &str = "grover_serve_launches_total";

fn scrape(addr: SocketAddr, metric: &str) -> Result<u64, String> {
    let (status, text) = http(addr, "GET", "/metrics", None, &format!("{:032x}", 1))?;
    if status != 200 {
        return Err(format!("/metrics: HTTP {status}"));
    }
    text.lines()
        .find_map(|l| {
            l.strip_prefix(metric)?
                .strip_prefix(' ')?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|v| v as u64)
        .ok_or_else(|| format!("/metrics has no {metric}"))
}

/// Launches one miss must run: the original, each seeded candidate, and
/// the two verify launches.
fn launches_per_miss(device: &str) -> u64 {
    1 + grover_devsim::candidate_sequences(device).len() as u64 + 2
}

fn train_row(rec: &grover_serve::DecisionRecord) -> Option<TrainRow> {
    Some(TrainRow {
        device: rec.device.clone(),
        kernel: rec.kernel.clone(),
        features: FeatureVector::from_values(rec.features.clone()?).ok()?,
        choice: Verdict::parse(&rec.choice)?,
        np: rec.np,
    })
}

/// A warmed service: every key tuned once through HTTP, a model trained
/// from the journal (as `grover corpus export` + `grover train` would),
/// and the server restarted with it, warm-starting from the journal.
struct Warm {
    service: Service,
    /// The cache directory: journal and model.
    dir: PathBuf,
    model: Model,
    /// The trace id of every warm-up miss.
    misses: Vec<String>,
    /// The warm-up server's request log.
    log: String,
    launches: u64,
}

fn warm_up(load: &Load, dir: &FsPath, report: &mut Report) -> Result<Warm, String> {
    let warm = Service::start(dir, None)?;
    let c = load.client(warm.addr);
    let mut misses = Vec::new();
    for i in 0..load.keys.len() {
        let (trace, result) = c.send(Kind::Cold, i);
        report.check(result);
        misses.push(trace);
    }
    let launches = scrape(warm.addr, LAUNCHES)?;
    let expect: u64 = load
        .keys
        .iter()
        .map(|k| launches_per_miss(k.case.device))
        .sum();
    report.check(if launches == expect {
        Ok(())
    } else {
        Err(format!(
            "warm-up ran {launches} launches, expected {expect}"
        ))
    });
    let (_, log) = http(
        warm.addr,
        "GET",
        "/debug/requests",
        None,
        &load.traces.mint(),
    )?;
    drop(warm);

    let epoch = pass_fingerprint();
    let (store, _) = DecisionStore::open(dir, &epoch, usize::MAX)
        .map_err(|e| format!("journal {}: {e}", dir.display()))?;
    let rows: Vec<TrainRow> = store.live_records().filter_map(train_row).collect();
    drop(store);
    if rows.len() != load.keys.len() {
        return Err(format!(
            "journal holds {} training rows, expected {}",
            rows.len(),
            load.keys.len()
        ));
    }
    let model = Model::train(&rows, &epoch, &TrainConfig::default());
    let model_path = dir.join(MODEL_FILE);
    std::fs::write(&model_path, model.to_json() + "\n").map_err(|e| e.to_string())?;
    let service = Service::start(dir, Some(model_path))?;
    Ok(Warm {
        service,
        dir: dir.to_path_buf(),
        model,
        misses,
        log,
        launches,
    })
}

/// Set up `SETUPS` times in fresh directories, probing the idle host
/// around each, and report the median scaled time as `setup_s`; the last
/// service is the one measured. The high-water mark restarts after
/// set-up, so `peak_rss_mb` covers the timed phase.
fn setup(load: &Load, work: &FsPath, report: &mut Report) -> Result<Warm, String> {
    let (mut times, mut raw) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut last = None;
    let mut before = burst();
    for i in 0..SETUPS {
        // Only one service runs at a time.
        drop(last.take());
        let (warm, cost) = measure(|| warm_up(load, &work.join(format!("setup-{i}")), report));
        let after = burst();
        raw.push(cost.wall.as_secs_f64());
        times.push(scaled(cost.wall.as_secs_f64(), (before + after) / 2.0));
        before = after;
        last = Some(warm?);
    }
    report.set_scaled("setup_s", median(&times), median(&raw));
    if let Err(e) = clock::reset_peak_rss() {
        report.note(format!("  peak_rss_mb includes set-up: {e}"));
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Fresh-key misses cycle through the keys in a seeded order.
fn miss_order(seed: u64, keys: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys).collect();
    Rng::new(seed.wrapping_add(1)).shuffle(&mut order);
    order
}

/// `serve-read`: reads only. A 200 rps stage gives the latency metrics,
/// a rate ladder the highest rate meeting the limit, and a closed-loop
/// stage on both connections the read capacity.
pub fn read(
    keys: &[Case],
    seed: u64,
    seconds: f64,
    work: &FsPath,
    report: &mut Report,
) -> Result<(), String> {
    let expected = Expected::committed();
    let keys = keys_for(keys)?;
    let load = Load::new(&keys, &expected, seed);
    let warm = setup(&load, work, report)?;
    let mix = read_mix(seed, keys.len());
    let pick = |i: usize| mix[i % mix.len()];

    let mut phase = Phase::start(&load, warm);
    let mut next = 0;
    let mut stages = Vec::new();
    let mut base_stage = Vec::new();
    for (n, rate) in LADDER_RPS.into_iter().enumerate() {
        // Half the run at the base rate, 6 % at each faster stage.
        let stage_s = seconds * if n == 0 { 0.5 } else { 0.06 };
        let chunks = phase.run(stage_s, |c, len| {
            let done = open_loop(rate, len, 2, next, &pick, &|k, key| c.send(k, key));
            next += done.len();
            done
        })?;
        let ok = meets_limit(&chunks);
        let done = chunks.concat();
        tally(report, &done);
        let lat: Vec<f64> = done.iter().map(Done::latency_ms).collect();
        report.note(format!(
            "  {rate:>6} rps: {} reads, p50 {:.3} ms, p99 {:.3} ms, limit {}",
            done.len(),
            median(&lat).unwrap_or(f64::NAN),
            percentile(&lat, 99.0).unwrap_or(f64::NAN),
            if ok { "met" } else { "missed" }
        ));
        stages.push((rate, ok));
        if n == 0 {
            base_stage = done;
        }
        // A faster stage cannot meet the limit a slower one missed.
        if !ok {
            break;
        }
    }
    // The capacity stage takes the rest of the run, and what the ladder
    // left unused when a stage missed the limit.
    let capacity_s = (seconds - phase.start.elapsed().as_secs_f64()).max(seconds * 0.2);
    let capacity = phase
        .run(capacity_s, |c, len| {
            let done = closed_loop(len, 2, next, &pick, &|k, key| c.send(k, key));
            next += done.len();
            done
        })?
        .concat();
    tally(report, &capacity);
    phase.finish(next, report);
    report.check(if phase.launches == 0 {
        Ok(())
    } else {
        Err(format!("reads ran {} launches", phase.launches))
    });

    set_read_metrics(report, &base_stage, &keys);
    report.set_scaled(
        "throughput_per_s",
        closed_rate(&capacity, 2, Done::scaled_ms),
        closed_rate(&capacity, 2, Done::latency_ms),
    );
    report.note(format!(
        "  read_max_rps {} (ladder limit: p99 <= {LIMIT_P99_MS} ms, no failure, no chunk's last request > {LIMIT_LATE_MS} ms late)",
        max_rate(&stages)
    ));
    report.note(format!(
        "  closed-loop capacity: {} reads on 2 connections",
        capacity.len()
    ));
    report
        .samples
        .insert("capacity_reads".into(), capacity.len() as u64);
    Ok(())
}

/// The reader on one connection and, on the other, a closed-loop writer
/// of back-to-back fresh-key misses, from the `first` read and miss of
/// their sequences. Returns `(reads, misses)`.
fn mixed_stage(
    c: &Client,
    mix: &[(Kind, usize)],
    misses: &[usize],
    seconds: f64,
    first: (usize, usize),
) -> (Vec<Done>, Vec<Done>) {
    let pick = |i: usize| mix[i % mix.len()];
    let pick_miss = |i: usize| (Kind::Miss, misses[i % misses.len()]);
    let send = |k: Kind, key: usize| c.send(k, key);
    std::thread::scope(|s| {
        let writer = s.spawn(|| closed_loop(seconds, 1, first.1, &pick_miss, &send));
        let reads = open_loop(MIX_READ_RPS, seconds, 1, first.0, &pick, &send);
        (reads, writer.join().expect("writer thread panicked"))
    })
}

/// `serve-mix`: reads at `MIX_READ_RPS` beside a closed-loop miss writer.
pub fn mix(
    keys: &[Case],
    seed: u64,
    seconds: f64,
    work: &FsPath,
    report: &mut Report,
) -> Result<(), String> {
    let expected = Expected::committed();
    let keys = keys_for(keys)?;
    let load = Load::new(&keys, &expected, seed);
    let warm = setup(&load, work, report)?;
    let reads_mix = read_mix(seed, keys.len());
    let misses = miss_order(seed, keys.len());

    let mut phase = Phase::start(&load, warm);
    let mut next = (0, 0);
    let done = phase
        .run(seconds, |c, len| {
            let (reads, writes) = mixed_stage(c, &reads_mix, &misses, len, next);
            next = (next.0 + reads.len(), next.1 + writes.len());
            reads.into_iter().chain(writes).collect()
        })?
        .concat();
    phase.finish(done.len(), report);
    let (writes, reads): (Vec<Done>, Vec<Done>) =
        done.into_iter().partition(|d| d.kind == Kind::Miss);
    tally(report, &reads);
    tally(report, &writes);
    let expect: u64 = writes
        .iter()
        .map(|d| launches_per_miss(keys[d.key].case.device))
        .sum();
    report.check(if phase.launches == expect {
        Ok(())
    } else {
        Err(format!(
            "{} misses ran {} launches, expected {expect}",
            writes.len(),
            phase.launches
        ))
    });

    set_read_metrics(report, &reads, &keys);
    report.set_scaled(
        "throughput_per_s",
        closed_rate(&writes, 1, Done::scaled_ms),
        closed_rate(&writes, 1, Done::latency_ms),
    );
    let miss_lat: Vec<f64> = writes.iter().map(Done::scaled_ms).collect();
    report.note(format!(
        "  misses: {}, p50 {:.2} ms, p95 {:.2} ms (scaled)",
        writes.len(),
        median(&miss_lat).unwrap_or(f64::NAN),
        percentile(&miss_lat, 95.0).unwrap_or(f64::NAN)
    ));
    report.samples.insert("misses".into(), writes.len() as u64);
    Ok(())
}

/// `trace id -> server latency in µs` from a `/debug/requests` body.
fn request_log(text: &str) -> HashMap<String, f64> {
    let Ok(doc) = json::parse(text) else {
        return HashMap::new();
    };
    doc.get("requests")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| Some((e.str_of("trace_id")?.to_string(), e.f64_of("latency_us")?)))
        .collect()
}

/// The sequence-set identity serve hashes into its tune key for the
/// device's seeded candidates.
fn sequences_id(device: &str) -> String {
    let tokens: Vec<String> = grover_devsim::candidate_sequences(device)
        .iter()
        .filter_map(|s| Sequence::parse(s).ok().map(|q| q.token()))
        .collect();
    format!("auto:{}", tokens.join(";"))
}

/// Time the hit path's public functions on the workload's own request
/// bodies, `CALLS_PER_BODY` calls per body and span.
fn function_layers(
    keys: &[Key],
    model: &Model,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let root = tracer.open("serve.functions", 0, None);
    for k in keys {
        let body = k.body(true, None);
        let source = k.case.app.source;
        let (kernel_name, device) = (k.case.app.kernel, k.case.device);
        tracer.time("obs.json_parse", &root, || {
            for _ in 0..CALLS_PER_BODY {
                std::hint::black_box(json::parse(std::hint::black_box(&body)).is_ok());
            }
        });
        let seqs = sequences_id(device);
        tracer.time("core.fingerprint", &root, || {
            for _ in 0..CALLS_PER_BODY {
                std::hint::black_box(tune_key_with_sequences(
                    std::hint::black_box(source),
                    kernel_name,
                    device,
                    &k.global,
                    &k.local,
                    &seqs,
                ));
            }
        });
        let opts = (k.case.app.options)(k.case.scale);
        let module = compile(source, &opts).map_err(|e| format!("{}: {e}", k.case.label()))?;
        let kernel = module
            .kernel(kernel_name)
            .ok_or_else(|| format!("{}: kernel missing", k.case.label()))?;
        let fv = tracer.time("predict.extract", &root, || {
            let mut fv = None;
            for _ in 0..CALLS_PER_BODY {
                fv = Some(FeatureVector::extract(
                    std::hint::black_box(kernel),
                    k.global,
                    k.local,
                ));
            }
            fv.expect("CALLS_PER_BODY > 0")
        });
        let scored = tracer.time("predict.score", &root, || {
            let mut p = None;
            for _ in 0..CALLS_PER_BODY {
                p = model.predict(device, std::hint::black_box(&fv));
            }
            p
        });
        report.check(match scored {
            Some(p) if p.exact_match => Ok(()),
            _ => Err(format!(
                "{}: model has no exact match for the key",
                k.case.label()
            )),
        });
    }
    let root = tracer.close(root).id;
    let calls = (keys.len() * CALLS_PER_BODY) as f64;
    let per_call_us = |name| tracer.cpu_us_under(root, name) as f64 / calls;
    report.set("obs.json_parse_us", per_call_us("obs.json_parse"));
    report.set("core.fingerprint_us", per_call_us("core.fingerprint"));
    report.set("predict.extract_us", per_call_us("predict.extract"));
    report.set("predict.score_us", per_call_us("predict.score"));
    Ok(())
}

/// Append the warm journal's records to a fresh store, `CALLS_PER_BODY`
/// times each: a framed write and a flush, with no fsync.
fn journal_layer(
    from: &FsPath,
    to: &FsPath,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let epoch = pass_fingerprint();
    let (source, _) = DecisionStore::open(from, &epoch, usize::MAX).map_err(|e| e.to_string())?;
    let records: Vec<_> = source.live_records().cloned().collect();
    drop(source);
    let (mut store, _) = DecisionStore::open(to, &epoch, usize::MAX).map_err(|e| e.to_string())?;
    let root = tracer.open("serve.journal", 0, None);
    let mut appended = 0usize;
    for rec in &records {
        let r = tracer.time("serve.journal.append", &root, || {
            (0..CALLS_PER_BODY).try_for_each(|_| store.append(rec))
        });
        r.map_err(|e| format!("journal append: {e}"))?;
        appended += CALLS_PER_BODY;
    }
    let root = tracer.close(root).id;
    report.set(
        "serve.journal.append_us",
        tracer.cpu_us_under(root, "serve.journal.append") as f64 / appended.max(1) as f64,
    );
    Ok(())
}

/// The serve half of every traced run: set up once over `cases`' keys,
/// time the hit path's functions and the journal, then a short traced
/// stage whose requests are joined with the server's request log. With
/// `writer`, fresh-key misses run beside the reads, as in `serve-mix`.
pub fn traced(
    cases: &[Case],
    seed: u64,
    writer: bool,
    work: &FsPath,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let expected = Expected::committed();
    let keys = keys_for(cases)?;
    let load = Load::new(&keys, &expected, seed);
    let dir = work.join("traced");
    let span = tracer.open("serve.setup", 0, None);
    let warm = warm_up(&load, &dir, report);
    tracer.close(span);
    let warm = warm?;
    let c = load.client(warm.service.addr);

    function_layers(&keys, &warm.model, tracer, report)?;
    journal_layer(&dir, &work.join("journal"), tracer, report)?;

    let root = tracer.open("serve.transport", 0, None);
    let mut transport = Vec::with_capacity(TRANSPORT_CALLS);
    for _ in 0..TRANSPORT_CALLS {
        let trace = load.traces.mint();
        let (r, cost) = measure(|| http(c.addr, "GET", "/healthz", None, &trace));
        report.check(r.and_then(|(status, _)| {
            (status == 200)
                .then_some(())
                .ok_or(format!("/healthz: HTTP {status}"))
        }));
        transport.push(cost.wall.as_secs_f64() * 1e3);
    }
    tracer.close(root);

    let launches0 = scrape(c.addr, LAUNCHES)?;
    let mix = read_mix(seed, keys.len());
    let stage = tracer.open("serve.stage", 0, None);
    let (reads, writes) = if writer {
        mixed_stage(
            &c,
            &mix,
            &miss_order(seed, keys.len()),
            TRACED_STAGE_S,
            (0, 0),
        )
    } else {
        let pick = |i: usize| mix[i % mix.len()];
        let send = |k: Kind, key: usize| c.send(k, key);
        (
            open_loop(MIX_READ_RPS, TRACED_STAGE_S, 1, 0, &pick, &send),
            Vec::new(),
        )
    };
    tracer.close(stage);
    tally(report, &reads);
    tally(report, &writes);
    let launched = scrape(c.addr, LAUNCHES)? - launches0;
    let (_, log) = http(c.addr, "GET", "/debug/requests", None, &load.traces.mint())?;
    let mut server = request_log(&log);
    server.extend(request_log(&warm.log));

    let server_ms = |trace: &str| server.get(trace).map(|us| us / 1e3);
    let server_p50 = |kind: Kind| {
        let v: Vec<f64> = reads
            .iter()
            .filter(|d| d.kind == kind)
            .filter_map(|d| server_ms(&d.trace))
            .collect();
        median(&v)
    };
    let miss_ms: Vec<f64> = warm
        .misses
        .iter()
        .map(String::as_str)
        .chain(writes.iter().map(|d| d.trace.as_str()))
        .filter_map(server_ms)
        .collect();
    let waits: Vec<f64> = reads
        .iter()
        .filter_map(|d| Some((d.done - d.sent) * 1e3 - server_ms(&d.trace)?))
        .collect();
    let late: Vec<f64> = reads.iter().map(Done::late_ms).collect();
    let joined = reads
        .iter()
        .filter(|d| server.contains_key(&d.trace))
        .count();
    if joined < reads.len() {
        report.note(format!(
            "  {} of {} traced reads aged out of the request log",
            reads.len() - joined,
            reads.len()
        ));
    }
    let set = |report: &mut Report, name: &'static str, v: Option<f64>| match v {
        Some(v) => report.set(name, v),
        None => report.fail(format!("traced stage measured no {name}")),
    };
    set(report, "serve.transport_p50_ms", median(&transport));
    set(report, "serve.server_hit_p50_ms", server_p50(Kind::Named));
    set(
        report,
        "serve.server_predict_p50_ms",
        server_p50(Kind::Predict),
    );
    set(report, "serve.server_miss_p50_ms", median(&miss_ms));
    set(report, "serve.client_wait_p99_ms", percentile(&waits, 99.0));
    set(report, "serve.gen_late_p99_ms", percentile(&late, 99.0));
    let misses = warm.misses.len() + writes.len();
    report.set(
        "serve.launches_per_miss",
        (warm.launches + launched) as f64 / misses as f64,
    );
    report
        .samples
        .insert("traced_reads".into(), reads.len() as u64);
    report.samples.insert("traced_misses".into(), misses as u64);
    drop(warm);
    Ok(())
}

/// One miss per key through a fresh service, for `--bless`.
pub fn bless(cases: &[Case], work: &FsPath, table: &mut Expected) -> Result<(), String> {
    let keys = keys_for(cases)?;
    let service = Service::start(work, None)?;
    let traces = TraceIds::new(0);
    for k in &keys {
        let (status, text) = http(
            service.addr,
            "POST",
            "/v1/tune",
            Some(&k.body(true, None)),
            &traces.mint(),
        )?;
        let got = json::parse(&text)
            .ok()
            .filter(|_| status == 200)
            .and_then(|v| served_outcome(&v))
            .ok_or_else(|| format!("{}: HTTP {status}: {text:.200}", k.case.label()))?;
        table.insert(Path::Serve, &k.case, got);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::serve_keys;
    use grover_kernels::Scale;

    fn render(mix: &[(Kind, usize)]) -> String {
        mix.iter().map(|(k, i)| format!("{k:?}:{i};")).collect()
    }

    #[test]
    fn same_seed_same_request_schedule() {
        assert_eq!(render(&read_mix(3, 27)), render(&read_mix(3, 27)));
        assert_ne!(render(&read_mix(3, 27)), render(&read_mix(4, 27)));
        assert_eq!(miss_order(3, 27), miss_order(3, 27));
        let keys = keys_for(&serve_keys(Scale::Test)).unwrap();
        let bodies = |_| {
            keys.iter()
                .map(|k| k.body(false, Some(9)))
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(0), bodies(1));
    }

    #[test]
    fn read_mix_composition_is_exact() {
        let mix = read_mix(11, 27);
        assert_eq!(mix.len(), 270);
        let count = |k| mix.iter().filter(|(kind, _)| *kind == k).count();
        assert_eq!(
            (
                count(Kind::Named),
                count(Kind::Unnamed),
                count(Kind::Predict)
            ),
            (108, 108, 54)
        );
        for key in 0..27 {
            let n = mix
                .iter()
                .filter(|(k, i)| *k == Kind::Named && *i == key)
                .count();
            assert_eq!(n, 4, "key {key}");
        }
    }

    #[test]
    fn bodies_are_valid_json_and_misses_change_only_the_source() {
        let keys = keys_for(&serve_keys(Scale::Test)).unwrap();
        for k in &keys {
            let named = json::parse(&k.body(true, None)).unwrap();
            assert_eq!(named.str_of("kernel"), Some(k.case.app.kernel));
            let unnamed = json::parse(&k.body(false, None)).unwrap();
            assert_eq!(unnamed.str_of("kernel"), None);
            let miss = json::parse(&k.body(true, Some(5))).unwrap();
            assert!(miss
                .str_of("source")
                .unwrap()
                .starts_with("#define BENCH_MISS_5 1\n"));
            assert_eq!(miss.get("args"), named.get("args"));
        }
    }

    #[test]
    fn lateness_and_latency_count_from_the_due_time() {
        // One connection at 100 rps; the first request stalls 60 ms, so
        // the next ones are sent late and their latency includes the wait.
        let send = |_: Kind, key: usize| {
            if key == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            (String::new(), Ok(()))
        };
        let pick = |i: usize| (Kind::Named, i);
        let done = open_loop(100.0, 0.05, 1, 0, &pick, &send);
        assert_eq!(done.len(), 5);
        assert!(done[0].latency_ms() >= 60.0);
        for d in &done[1..] {
            assert!(d.late_ms() > 5.0, "{d:?}");
            assert!(d.latency_ms() >= d.late_ms());
            assert!((d.due * 1e3 - d.key as f64 * 10.0).abs() < 1e-9);
        }
        assert!(done[1].late_ms() >= 45.0, "{:?}", done[1]);
    }

    fn stage(lat_ms: &[f64], late_last_ms: f64, failed: bool) -> Vec<Done> {
        let n = lat_ms.len();
        lat_ms
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let due = i as f64 * 0.01;
                let late = if i + 1 == n { late_last_ms / 1e3 } else { 0.0 };
                Done {
                    kind: Kind::Named,
                    key: 0,
                    due,
                    sent: due + late,
                    done: due + l / 1e3,
                    trace: String::new(),
                    result: if failed && i == 0 {
                        Err("429".into())
                    } else {
                        Ok(())
                    },
                    speed: REFERENCE_MS,
                }
            })
            .collect()
    }

    #[test]
    fn ladder_limit_and_backlog_rule() {
        let fast = vec![2.0; 200];
        let ok = stage(&fast, 0.0, false);
        assert!(meets_limit(&[ok.clone(), ok.clone()]));
        // A failed (e.g. refused) request misses the limit.
        assert!(!meets_limit(&[ok.clone(), stage(&fast, 0.0, true)]));
        // p99 above 50 ms misses it: 3 of 200 slow requests reach p99.
        let mut slow = fast.clone();
        slow[..3].copy_from_slice(&[80.0, 80.0, 80.0]);
        assert!(!meets_limit(&[stage(&slow, 0.0, false)]));
        // A growing backlog: one chunk's last request went out 60 ms late.
        assert!(!meets_limit(&[stage(&fast, 60.0, false), ok.clone()]));
        assert!(meets_limit(&[stage(&fast, 40.0, false), ok]));

        assert_eq!(
            max_rate(&[(200.0, true), (400.0, true), (600.0, false), (800.0, true)]),
            400.0
        );
        assert_eq!(max_rate(&[(200.0, false), (400.0, true)]), 0.0);
        assert_eq!(max_rate(&[(200.0, true), (400.0, true)]), 400.0);
    }
}
