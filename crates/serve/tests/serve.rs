//! End-to-end tests of the tuning-cache service: real sockets, real
//! worker threads, real persistence — only the clock-sensitive bits
//! (queue overflow) use the injected handler delay.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use grover_obs::json::{self, Json};
use grover_obs::{MemoryRecorder, NoopRecorder};
use grover_serve::{http_request, ServeConfig, Server};

/// A kernel the pass fully transforms (the staging pattern).
const STAGE: &str = "__kernel void stage(__global float* in, __global float* out) {
    __local float lm[64];
    int lx = get_local_id(0);
    int gx = get_global_id(0);
    lm[lx] = in[gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gx] = lm[63 - lx];
}";

/// Same program, different formatting/comments — same fingerprint.
const STAGE_REFORMATTED: &str = "__kernel void stage(__global float* in,   __global float* out) {
    __local float lm[64]; // staging buffer
    int lx = get_local_id(0);
    int gx = get_global_id(0);
    lm[lx] = in[gx]; /* stage */
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gx] = lm[63 - lx];
}";

/// A kernel the pass refuses: the local buffer is never written.
const NEVER_WRITTEN: &str = "__kernel void nw(__global float* out) {
    __local float lm[16];
    out[get_global_id(0)] = lm[0];
}";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grover-serve-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(tag: &str) -> ServeConfig {
    ServeConfig {
        cache_dir: temp_dir(tag),
        ..ServeConfig::default()
    }
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg, Arc::new(NoopRecorder)).expect("server starts")
}

fn tune_body(source: &str, device: &str, global: u64, local: u64) -> String {
    format!(
        "{{\"source\": {}, \"device\": \"{device}\", \"global\": [{global}], \"local\": [{local}]}}",
        json::escape(source)
    )
}

/// Raw request keeping the full response text (headers included) — the
/// typed client strips headers, and some tests assert on them.
fn raw_request(addr: std::net::SocketAddr, method: &str, path: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(
        format!("{method} {path} HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    text
}

fn post(server: &Server, path: &str, body: &str) -> (u16, Json) {
    let (status, text) =
        http_request(server.addr(), "POST", path, Some(body)).expect("request succeeds");
    let parsed = json::parse(&text).unwrap_or(Json::Null);
    (status, parsed)
}

#[test]
fn healthz_metrics_and_routing() {
    let server = start(config("routing"));
    let (status, body) = http_request(server.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("grover_serve_requests_total"), "{body}");
    assert!(
        body.contains("grover_serve_request_latency_us_bucket"),
        "{body}"
    );

    let (status, _) = http_request(server.addr(), "GET", "/no/such/route", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(server.addr(), "GET", "/v1/tune", None).unwrap();
    assert_eq!(status, 405);
    std::fs::remove_dir_all(temp_dir("routing")).ok();
    server.shutdown();
}

#[test]
fn tune_caches_and_never_races_twice() {
    let rec = Arc::new(MemoryRecorder::new());
    let server = Server::start(
        ServeConfig {
            cache_dir: temp_dir("noseconderace"),
            ..ServeConfig::default()
        },
        rec.clone(),
    )
    .unwrap();
    let body = tune_body(STAGE, "SNB", 256, 64);

    let (status, first) = post(&server, "/v1/tune", &body);
    assert_eq!(status, 200, "{first:?}");
    assert_eq!(first.bool_of("cached"), Some(false));
    assert!(first.str_of("choice").is_some());
    assert_eq!(
        first.str_of("pass_fingerprint"),
        Some(grover_core::pass_fingerprint().as_str())
    );

    // Identical request: served from cache, decision unchanged.
    let (status, second) = post(&server, "/v1/tune", &body);
    assert_eq!(status, 200);
    assert_eq!(second.bool_of("cached"), Some(true));
    assert_eq!(second.str_of("choice"), first.str_of("choice"));
    assert_eq!(second.u64_of("cycles_with"), first.u64_of("cycles_with"));
    assert_eq!(second.str_of("fingerprint"), first.str_of("fingerprint"));

    // Reformatted source canonicalises to the same fingerprint: hit.
    let (status, third) = post(
        &server,
        "/v1/tune",
        &tune_body(STAGE_REFORMATTED, "SNB", 256, 64),
    );
    assert_eq!(status, 200);
    assert_eq!(third.bool_of("cached"), Some(true), "{third:?}");

    // Different launch geometry: a different key, a fresh race.
    let (_, fourth) = post(&server, "/v1/tune", &tune_body(STAGE, "SNB", 512, 64));
    assert_eq!(fourth.bool_of("cached"), Some(false));

    let m = server.metrics();
    assert_eq!(m.cache_hits.get(), 2);
    assert_eq!(m.cache_misses.get(), 2);
    assert_eq!(
        m.tune_races.get(),
        2,
        "exactly one race per distinct key — hits never re-measure"
    );

    // The spans agree with the counters: one serve.tune per miss, and
    // the request spans carry the hit/miss attribute.
    let snap = rec.snapshot();
    assert_eq!(snap.spans_named("serve.tune").len(), 2);
    let cache_attrs: Vec<&str> = snap
        .spans_named("serve.request")
        .iter()
        .filter_map(|s| s.attr_str("cache"))
        .collect();
    assert_eq!(
        cache_attrs.iter().filter(|a| **a == "hit").count(),
        2,
        "{cache_attrs:?}"
    );
    assert_eq!(cache_attrs.iter().filter(|a| **a == "miss").count(), 2);
    std::fs::remove_dir_all(temp_dir("noseconderace")).ok();
    server.shutdown();
}

#[test]
fn compile_endpoint_returns_report_and_ir() {
    let server = start(config("compile"));
    let body = format!("{{\"source\": {}}}", json::escape(STAGE));
    let (status, resp) = post(&server, "/v1/compile", &body);
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(resp.str_of("kernel"), Some("stage"));
    assert_eq!(resp.str_of("fingerprint").map(str::len), Some(32));
    assert_eq!(
        resp.str_of("pass_fingerprint"),
        Some(grover_core::pass_fingerprint().as_str())
    );
    let report = resp.get("report").expect("report present");
    assert_eq!(report.bool_of("all_removed"), Some(true), "{report:?}");
    assert!(resp.str_of("original_ir").unwrap().contains("local"));
    assert!(!resp.str_of("transformed_ir").unwrap().is_empty());
    std::fs::remove_dir_all(temp_dir("compile")).ok();
    server.shutdown();
}

#[test]
fn cache_warm_starts_across_restart() {
    let dir = temp_dir("warmstart");
    let cfg = ServeConfig {
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let body = tune_body(STAGE, "Fermi", 256, 64);

    let first_run = start(cfg.clone());
    let (status, first) = post(&first_run, "/v1/tune", &body);
    assert_eq!(status, 200);
    assert_eq!(first.bool_of("cached"), Some(false));
    first_run.shutdown();

    // "Process restart": a fresh server over the same cache dir.
    let second_run = start(cfg);
    let (status, second) = post(&second_run, "/v1/tune", &body);
    assert_eq!(status, 200);
    assert_eq!(second.bool_of("cached"), Some(true), "{second:?}");
    assert_eq!(second.str_of("choice"), first.str_of("choice"));
    let m = second_run.metrics();
    assert_eq!(
        m.tune_races.get(),
        0,
        "warm-started entry must not re-measure"
    );
    second_run.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn epoch_bump_invalidates_persisted_decisions() {
    let dir = temp_dir("epochbump");
    let cfg = ServeConfig {
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let body = tune_body(STAGE, "SNB", 128, 64);

    let first_run = start(cfg.clone());
    let (_, first) = post(&first_run, "/v1/tune", &body);
    assert_eq!(first.bool_of("cached"), Some(false));
    first_run.shutdown();

    // Simulate a pass-version bump: rewrite the stored epoch (re-framing
    // each record so the checksum still matches — this tests the epoch
    // comparison, not corruption detection). A real bump changes
    // `pass_fingerprint()`; editing the store to a stale epoch exercises
    // the same comparison.
    let segment = dir.join("decisions.journal");
    let text = std::fs::read_to_string(&segment).unwrap();
    let mut stale = String::new();
    for line in text.lines() {
        let grover_serve::journal::Line::Record(payload) =
            grover_serve::journal::classify(line, true)
        else {
            panic!("journal line must be intact: {line}");
        };
        let edited = payload.replace(&grover_core::pass_fingerprint(), "grover-0.0.0+rev0");
        assert_ne!(payload, edited, "epoch must appear in the persisted record");
        stale.push_str(&grover_serve::journal::frame(&edited));
    }
    std::fs::write(&segment, stale).unwrap();

    let second_run = start(cfg);
    let (status, second) = post(&second_run, "/v1/tune", &body);
    assert_eq!(status, 200);
    assert_eq!(
        second.bool_of("cached"),
        Some(false),
        "stale-epoch entries must be invalidated on load"
    );
    assert_eq!(second_run.metrics().tune_races.get(), 1);
    second_run.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression (sequence-aware tune keys): a pass-revision bump changes
/// only the `+pp` suffix of the epoch — persisted decisions from the old
/// per-pass revisions must be invalidated exactly like a whole-transform
/// bump.
#[test]
fn pass_revision_bump_invalidates_persisted_decisions() {
    let dir = temp_dir("ppbump");
    let cfg = ServeConfig {
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let body = tune_body(STAGE, "SNB", 128, 64);

    let first_run = start(cfg.clone());
    let (_, first) = post(&first_run, "/v1/tune", &body);
    assert_eq!(first.bool_of("cached"), Some(false));
    first_run.shutdown();

    // Rewrite the stored epoch so only one per-pass revision digit
    // differs — the stale side of a single pass's revision bump.
    let current = grover_core::pass_fingerprint();
    let pp = current
        .find("+pp")
        .expect("epoch carries per-pass revisions");
    // Bump the last per-pass revision digit: "…+pp1.1.1.1" → "…+pp1.1.1.9".
    let stale_epoch = format!("{}9", &current[..current.len() - 1]);
    assert_ne!(stale_epoch, current);
    assert!(pp < current.len());
    let segment = dir.join("decisions.journal");
    let text = std::fs::read_to_string(&segment).unwrap();
    let mut stale = String::new();
    for line in text.lines() {
        let grover_serve::journal::Line::Record(payload) =
            grover_serve::journal::classify(line, true)
        else {
            panic!("journal line must be intact: {line}");
        };
        let edited = payload.replace(&current, &stale_epoch);
        assert_ne!(payload, edited, "epoch must appear in the persisted record");
        stale.push_str(&grover_serve::journal::frame(&edited));
    }
    std::fs::write(&segment, stale).unwrap();

    let second_run = start(cfg);
    let (status, second) = post(&second_run, "/v1/tune", &body);
    assert_eq!(status, 200);
    assert_eq!(
        second.bool_of("cached"),
        Some(false),
        "a per-pass revision bump must invalidate old decisions"
    );
    second_run.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression (sequence-aware tune keys): two explicit `passes` values for
/// the same source/device/geometry must key separately — each gets its own
/// race, its own cache entry, and neither ever answers for the other.
#[test]
fn two_sequences_for_the_same_source_never_collide() {
    let server = start(config("seqkeys"));
    let with_passes = |spec: &str| {
        format!(
            "{{\"source\": {}, \"device\": \"SNB\", \"global\": [256], \"local\": [64], \"passes\": \"{spec}\"}}",
            json::escape(STAGE)
        )
    };
    let a = with_passes("local-removal,barrier-elim,index-simplify");
    let b = with_passes("local-removal,barrier-elim,index-simplify,remap");

    let (status, ra) = post(&server, "/v1/tune", &a);
    assert_eq!(status, 200, "{ra:?}");
    assert_eq!(ra.bool_of("cached"), Some(false));
    assert_eq!(
        ra.str_of("sequence"),
        Some("local-removal,barrier-elim,index-simplify")
    );
    let (status, rb) = post(&server, "/v1/tune", &b);
    assert_eq!(status, 200, "{rb:?}");
    assert_eq!(
        rb.bool_of("cached"),
        Some(false),
        "b must not hit a's entry"
    );
    assert_eq!(
        rb.str_of("sequence"),
        Some("local-removal,barrier-elim,index-simplify,remap")
    );
    assert_ne!(
        ra.str_of("fingerprint"),
        rb.str_of("fingerprint"),
        "sequence identity must be part of the tune key"
    );

    // The default (auto-search) key is a third identity: the candidate-set
    // race is not interchangeable with any single explicit sequence.
    let auto = tune_body(STAGE, "SNB", 256, 64);
    let (_, rauto) = post(&server, "/v1/tune", &auto);
    assert_eq!(rauto.bool_of("cached"), Some(false));
    assert_ne!(rauto.str_of("fingerprint"), ra.str_of("fingerprint"));
    assert_ne!(rauto.str_of("fingerprint"), rb.str_of("fingerprint"));

    // Each entry answers only its own key.
    assert_eq!(
        post(&server, "/v1/tune", &a).1.bool_of("cached"),
        Some(true)
    );
    assert_eq!(
        post(&server, "/v1/tune", &b).1.bool_of("cached"),
        Some(true)
    );
    assert_eq!(
        post(&server, "/v1/tune", &auto).1.bool_of("cached"),
        Some(true)
    );
    let m = server.metrics();
    assert_eq!(m.cache_misses.get(), 3);
    assert_eq!(m.cache_hits.get(), 3);

    // An illegal sequence is a 400 before any tuner work.
    let (status, resp) = post(
        &server,
        "/v1/tune",
        &with_passes("barrier-elim,local-removal"),
    );
    assert_eq!(status, 400, "{resp:?}");
    assert_eq!(resp.str_of("kind"), Some("invalid_sequence"));

    std::fs::remove_dir_all(temp_dir("seqkeys")).ok();
    server.shutdown();
}

/// The winning sequence is part of the decision: reported on the fresh
/// response, on cache hits, and after a restart from the journal.
#[test]
fn winning_sequence_is_reported_and_survives_restart() {
    let dir = temp_dir("seqrestart");
    let cfg = ServeConfig {
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let body = tune_body(STAGE, "SNB", 256, 64);

    let first_run = start(cfg.clone());
    let (_, fresh) = post(&first_run, "/v1/tune", &body);
    let winner = fresh
        .str_of("sequence")
        .expect("sequence present")
        .to_string();
    assert!(
        winner.starts_with("local-removal"),
        "winner must be a legal sequence: {winner}"
    );
    let (_, hit) = post(&first_run, "/v1/tune", &body);
    assert_eq!(hit.str_of("sequence"), Some(winner.as_str()));
    first_run.shutdown();

    let second_run = start(cfg);
    let (_, warm) = post(&second_run, "/v1/tune", &body);
    assert_eq!(warm.bool_of("cached"), Some(true));
    assert_eq!(
        warm.str_of("sequence"),
        Some(winner.as_str()),
        "the winning sequence must survive the journal round-trip"
    );
    second_run.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lru_eviction_is_counted_and_survives_in_store() {
    let dir = temp_dir("eviction");
    let server = Server::start(
        ServeConfig {
            cache_dir: dir.clone(),
            cache_capacity: 1,
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    let a = tune_body(STAGE, "SNB", 256, 64);
    let b = tune_body(STAGE, "Fermi", 256, 64);
    assert_eq!(
        post(&server, "/v1/tune", &a).1.bool_of("cached"),
        Some(false)
    );
    assert_eq!(
        post(&server, "/v1/tune", &b).1.bool_of("cached"),
        Some(false)
    );
    // `a` was evicted by `b` (capacity 1): tuning it again is a miss.
    assert_eq!(
        post(&server, "/v1/tune", &a).1.bool_of("cached"),
        Some(false)
    );
    let m = server.metrics();
    assert!(m.cache_evictions.get() >= 1);
    assert_eq!(m.cache_misses.get(), 3);
    server.shutdown();

    // The store kept every decision; a restart with default capacity
    // warm-starts both keys (later lines win).
    let revived = start(ServeConfig {
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    });
    assert_eq!(
        post(&revived, "/v1/tune", &a).1.bool_of("cached"),
        Some(true)
    );
    assert_eq!(
        post(&revived, "/v1/tune", &b).1.bool_of("cached"),
        Some(true)
    );
    revived.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_400_on_malformed_requests() {
    let server = start(config("err400"));
    // Unparseable JSON.
    let (status, resp) = post(&server, "/v1/tune", "{not json");
    assert_eq!(status, 400);
    assert_eq!(resp.str_of("kind"), Some("bad_request"));
    // Missing required fields.
    let (status, _) = post(&server, "/v1/tune", "{\"source\": \"x\"}");
    assert_eq!(status, 400);
    // Unknown device.
    let (status, resp) = post(
        &server,
        "/v1/tune",
        &tune_body(STAGE, "NoSuchDevice", 256, 64),
    );
    assert_eq!(status, 400);
    assert!(resp.str_of("error").unwrap().contains("unknown device"));
    // Launch geometry that does not divide.
    let (status, _) = post(&server, "/v1/tune", &tune_body(STAGE, "SNB", 100, 64));
    assert_eq!(status, 400);
    // Compile error.
    let (status, resp) = post(
        &server,
        "/v1/tune",
        &tune_body("__kernel void broken(", "SNB", 64, 64),
    );
    assert_eq!(status, 400);
    assert!(resp.str_of("error").unwrap().contains("compile error"));
    assert_eq!(server.metrics().errors_total.get(), 5);
    std::fs::remove_dir_all(temp_dir("err400")).ok();
    server.shutdown();
}

#[test]
fn error_422_pass_refusal_names_the_candidate_kind() {
    let server = start(config("err422"));
    let (status, resp) = post(
        &server,
        "/v1/tune",
        &tune_body(NEVER_WRITTEN, "SNB", 64, 16),
    );
    assert_eq!(status, 422, "{resp:?}");
    assert_eq!(resp.str_of("kind"), Some("pass_refusal"));
    let buffers = resp
        .get("report")
        .and_then(|r| r.get("buffers"))
        .and_then(Json::as_arr)
        .expect("report.buffers present");
    assert_eq!(buffers.len(), 1);
    assert_eq!(buffers[0].str_of("outcome"), Some("not_candidate"));
    assert_eq!(
        buffers[0].str_of("candidate_kind"),
        Some("never_written"),
        "{buffers:?}"
    );
    std::fs::remove_dir_all(temp_dir("err422")).ok();
    server.shutdown();
}

#[test]
fn error_429_when_the_queue_is_full() {
    let server = Server::start(
        ServeConfig {
            cache_dir: temp_dir("err429"),
            workers: 1,
            queue_depth: 1,
            handler_delay: Some(Duration::from_millis(150)),
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..6)
        .map(|_| std::thread::spawn(move || raw_request(addr, "GET", "/healthz")))
        .collect();
    let responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let rejected: Vec<&String> = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.1 429"))
        .collect();
    let served = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.1 200"))
        .count();
    assert!(!rejected.is_empty(), "{responses:?}");
    assert!(served >= 1, "{responses:?}");
    assert_eq!(rejected.len() + served, 6, "{responses:?}");
    for r in &rejected {
        assert!(r.contains("Retry-After: 1"), "429 carries Retry-After: {r}");
        assert!(r.contains("\"kind\":\"backpressure\""), "{r}");
        assert!(r.contains("\"status\":429"), "{r}");
    }
    assert_eq!(server.metrics().rejected_busy.get(), rejected.len() as u64);
    std::fs::remove_dir_all(temp_dir("err429")).ok();
    server.shutdown();
}

#[test]
fn error_504_when_the_deadline_expires() {
    let server = start(config("err504"));
    let body = format!(
        "{{\"source\": {}, \"device\": \"SNB\", \"global\": [256], \"local\": [64], \"deadline_ms\": 0}}",
        json::escape(STAGE)
    );
    let (status, resp) = post(&server, "/v1/tune", &body);
    assert_eq!(status, 504, "{resp:?}");
    assert_eq!(resp.str_of("kind"), Some("deadline"));
    assert_eq!(server.metrics().deadline_timeouts.get(), 1);
    std::fs::remove_dir_all(temp_dir("err504")).ok();
    server.shutdown();
}

#[test]
fn concurrent_clients_get_deterministic_decisions() {
    let server = Server::start(
        ServeConfig {
            cache_dir: temp_dir("stress"),
            workers: 2,
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    let addr = server.addr();
    let bodies = [
        Arc::new(tune_body(STAGE, "SNB", 256, 64)),
        Arc::new(tune_body(STAGE, "Fermi", 256, 64)),
    ];
    let per_thread = 5usize;
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let body = bodies[t % bodies.len()].clone();
            std::thread::spawn(move || {
                (0..per_thread)
                    .map(|_| {
                        let (status, text) =
                            http_request(addr, "POST", "/v1/tune", Some(&body)).unwrap();
                        assert_eq!(status, 200, "{text}");
                        let v = json::parse(&text).unwrap();
                        (
                            v.str_of("fingerprint").unwrap().to_string(),
                            v.str_of("choice").unwrap().to_string(),
                            v.u64_of("cycles_with").unwrap(),
                        )
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut by_key = std::collections::HashMap::new();
    let mut total = 0usize;
    for h in handles {
        for (fp, choice, cycles) in h.join().unwrap() {
            total += 1;
            let entry = by_key.entry(fp).or_insert_with(|| (choice.clone(), cycles));
            assert_eq!(
                (&entry.0, entry.1),
                (&choice, cycles),
                "same key must always yield the same decision"
            );
        }
    }
    assert_eq!(total, 40);
    assert_eq!(by_key.len(), 2, "two distinct tune keys");
    let m = server.metrics();
    assert_eq!(m.cache_hits.get() + m.cache_misses.get(), 40);
    // Singleflight coalescing: concurrent identical misses share one
    // race, so the race count equals the number of unique keys exactly.
    assert_eq!(
        m.tune_races.get(),
        2,
        "races-per-unique-key must be exactly 1"
    );
    std::fs::remove_dir_all(temp_dir("stress")).ok();
    server.shutdown();
}

#[test]
fn identical_misses_coalesce_to_one_race_per_key() {
    // The sharpest form of the coalescing invariant: N clients fire the
    // SAME cold key simultaneously; a handler delay widens the window so
    // all of them are in flight together. Exactly one race may run.
    let server = Server::start(
        ServeConfig {
            cache_dir: temp_dir("coalesce"),
            workers: 8,
            handler_delay: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    let addr = server.addr();
    let body = Arc::new(tune_body(STAGE, "SNB", 256, 64));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                let (status, text) = http_request(addr, "POST", "/v1/tune", Some(&body)).unwrap();
                assert_eq!(status, 200, "{text}");
                let v = json::parse(&text).unwrap();
                (
                    v.str_of("choice").unwrap().to_string(),
                    v.u64_of("cycles_with").unwrap(),
                )
            })
        })
        .collect();
    let decisions: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        decisions.windows(2).all(|w| w[0] == w[1]),
        "all coalesced clients see the same decision: {decisions:?}"
    );
    let m = server.metrics();
    assert_eq!(
        m.tune_races.get(),
        1,
        "8 identical concurrent misses must run exactly 1 race"
    );
    assert_eq!(m.cache_hits.get() + m.cache_misses.get(), 8);
    assert_eq!(m.coalesce_timeouts.get(), 0);
    // At least the requests that arrived while the leader raced were
    // coalesced (some may arrive after it finished and hit the cache).
    let coalesced = m.tune_coalesced.get();
    let hits = m.cache_hits.get();
    assert_eq!(
        coalesced + hits,
        7,
        "everyone but the leader shared its race or hit"
    );
    std::fs::remove_dir_all(temp_dir("coalesce")).ok();
    server.shutdown();
}

#[test]
fn damaged_journal_salvages_every_intact_record_on_restart() {
    // Serve-level version of the store salvage test: tune three distinct
    // keys, then bit-flip the middle journal record and tear the file
    // mid-append. A restart must recover the two intact decisions and
    // count (not fail on) the damage.
    let dir = temp_dir("salvage");
    let cfg = ServeConfig {
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let bodies = [
        tune_body(STAGE, "SNB", 256, 64),
        tune_body(STAGE, "Fermi", 256, 64),
        tune_body(STAGE, "SNB", 512, 64),
    ];
    let first_run = start(cfg.clone());
    for b in &bodies {
        assert_eq!(post(&first_run, "/v1/tune", b).0, 200);
    }
    first_run.shutdown();

    let journal = dir.join("decisions.journal");
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    // Flip one byte inside the middle record's payload and append a torn
    // half-record (no trailing newline), as a crash mid-write would.
    let mut damaged = String::new();
    damaged.push_str(lines[0]);
    damaged.push('\n');
    let (head, tail) = lines[1].split_at(lines[1].len() / 2);
    let victim = tail.chars().find(|c| c.is_ascii_alphanumeric()).unwrap();
    damaged.push_str(&format!("{head}{}", tail.replacen(victim, "~", 1)));
    damaged.push('\n');
    damaged.push_str(lines[2]);
    damaged.push('\n');
    damaged.push_str(&lines[0][..lines[0].len() / 3]); // torn tail
    std::fs::write(&journal, damaged).unwrap();

    let second_run = start(cfg);
    let m = second_run.metrics();
    assert_eq!(m.journal_recovered.get(), 2);
    assert_eq!(m.journal_corrupt.get(), 1);
    assert_eq!(m.journal_torn.get(), 1);
    // Records 0 and 2 warm-started; record 1 must re-tune.
    assert_eq!(
        post(&second_run, "/v1/tune", &bodies[0])
            .1
            .bool_of("cached"),
        Some(true)
    );
    assert_eq!(
        post(&second_run, "/v1/tune", &bodies[2])
            .1
            .bool_of("cached"),
        Some(true)
    );
    assert_eq!(
        post(&second_run, "/v1/tune", &bodies[1])
            .1
            .bool_of("cached"),
        Some(false),
        "the corrupted record must not be served"
    );
    second_run.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn admin_shutdown_stops_the_server_and_flushes() {
    let dir = temp_dir("adminshutdown");
    let server = Server::start(
        ServeConfig {
            cache_dir: dir.clone(),
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    let addr = server.addr();
    let (_, resp) = post(&server, "/v1/tune", &tune_body(STAGE, "SNB", 256, 64));
    assert_eq!(resp.bool_of("cached"), Some(false));
    let (status, body) = http_request(addr, "POST", "/admin/shutdown", Some("")).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"));
    server.wait(); // returns because the endpoint triggered the stop

    // The listener is gone and the decision survived in the journal as
    // one intact checksummed frame.
    assert!(http_request(addr, "GET", "/healthz", None).is_err());
    let text = std::fs::read_to_string(dir.join("decisions.journal")).unwrap();
    assert_eq!(text.lines().count(), 1);
    let grover_serve::journal::Line::Record(payload) =
        grover_serve::journal::classify(text.lines().next().unwrap(), true)
    else {
        panic!("persisted line must be an intact framed record: {text}");
    };
    json::parse(payload).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
