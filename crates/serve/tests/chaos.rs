//! Chaos suite: the serve crate under injected faults (the runtime's
//! `fault-injection` feature, enabled for this crate's tests).
//!
//! Each scenario proves one leg of the crash-safety contract:
//!
//! - a failed or torn journal append is answered `persist_failed` and the
//!   decision is NOT acknowledged, cached, or resurrected by a restart —
//!   clients never see an acknowledged-then-lost decision;
//! - repeated tuner failures trip the circuit breaker, which serves
//!   `degraded: true` original-kernel answers (never bare 500s, never
//!   persisted) until a half-open probe heals it;
//! - a slowloris client is dropped by the socket timeout without taking
//!   a worker hostage.
//!
//! Each scenario's plans live in its own server's config
//! (`ServeConfig::faults` for launches, `ServeConfig::io_faults` for the
//! journal), so scenarios run side by side without seeing each other's
//! faults; `two_servers_each_see_only_their_own_faults` pins that down.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use grover_obs::json::{self, Json};
use grover_obs::NoopRecorder;
use grover_runtime::fault::{
    FaultKind, FaultPlan, FaultSite, FaultTarget, Faults, IoFaultKind, IoFaultPlan, IoFaults,
};
use grover_serve::{http_request, ServeConfig, Server};

const STAGE: &str = "__kernel void stage(__global float* in, __global float* out) {
    __local float lm[64];
    int lx = get_local_id(0);
    int gx = get_global_id(0);
    lm[lx] = in[gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gx] = lm[63 - lx];
}";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grover-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
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

fn post(server: &Server, body: &str) -> (u16, Json) {
    let (status, text) =
        http_request(server.addr(), "POST", "/v1/tune", Some(body)).expect("request succeeds");
    (status, json::parse(&text).unwrap_or(Json::Null))
}

#[test]
fn failed_journal_append_is_a_500_and_the_decision_is_not_acknowledged() {
    let dir = temp_dir("appendfail");
    let server = start(ServeConfig {
        cache_dir: dir.clone(),
        io_faults: IoFaults::new(IoFaultPlan {
            site: "journal.append".to_string(),
            kind: IoFaultKind::Error("injected: disk full".to_string()),
            max_fires: 1,
        }),
        ..ServeConfig::default()
    });
    let body = tune_body(STAGE, "SNB", 256, 64);

    let (status, resp) = post(&server, &body);
    assert_eq!(status, 500, "{resp:?}");
    assert_eq!(resp.str_of("kind"), Some("persist_failed"));
    let m = server.metrics();
    assert_eq!(m.persist_failures.get(), 1);

    // The un-persisted decision must not have been cached: the retry is
    // a fresh miss that races again and succeeds.
    let (status, resp) = post(&server, &body);
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(resp.bool_of("cached"), Some(false), "{resp:?}");
    assert_eq!(m.tune_races.get(), 2);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_append_is_not_acknowledged_and_a_restart_repairs_the_tail() {
    let dir = temp_dir("tornappend");
    let cfg = ServeConfig {
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let body = tune_body(STAGE, "SNB", 256, 64);

    let first_run = start(ServeConfig {
        // The write "crashes" after 20 bytes of the frame hit the disk.
        io_faults: IoFaults::new(IoFaultPlan {
            site: "journal.append".to_string(),
            kind: IoFaultKind::Torn(20),
            max_fires: 1,
        }),
        ..cfg.clone()
    });
    let (status, resp) = post(&first_run, &body);
    assert_eq!(status, 500, "{resp:?}");
    assert_eq!(resp.str_of("kind"), Some("persist_failed"));
    first_run.shutdown();
    let text = std::fs::read_to_string(dir.join("decisions.journal")).unwrap();
    assert!(!text.is_empty() && !text.ends_with('\n'), "tail is torn");

    // Restart: the torn tail is counted, repaired, and the key re-tunes
    // (the 500-answered decision must NOT reappear as a cache hit).
    let second_run = start(cfg);
    let m = second_run.metrics();
    assert_eq!(m.journal_torn.get(), 1);
    assert_eq!(m.journal_recovered.get(), 0);
    let (status, resp) = post(&second_run, &body);
    assert_eq!(status, 200);
    assert_eq!(
        resp.bool_of("cached"),
        Some(false),
        "an unacknowledged decision must not warm-start: {resp:?}"
    );
    second_run.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsync_failure_during_compaction_is_contained() {
    // Compaction is an optimisation: when its fsync fails the journal
    // must stay append-correct (just bigger), and no decision is lost.
    let dir = temp_dir("fsyncfail");
    let cfg = ServeConfig {
        cache_dir: dir.clone(),
        compact_threshold: 1,
        ..ServeConfig::default()
    };
    let server = start(ServeConfig {
        io_faults: IoFaults::new(IoFaultPlan {
            site: "journal.fsync".to_string(),
            kind: IoFaultKind::Error("injected: fsync failed".to_string()),
            max_fires: 0,
        }),
        ..cfg.clone()
    });
    let bodies = [
        tune_body(STAGE, "SNB", 256, 64),
        tune_body(STAGE, "Fermi", 256, 64),
    ];
    for b in &bodies {
        let (status, resp) = post(&server, b);
        assert_eq!(status, 200, "appends must succeed regardless: {resp:?}");
    }
    let m = server.metrics();
    assert_eq!(
        m.journal_compactions.get(),
        0,
        "failed compactions must not be counted as performed"
    );
    server.shutdown();

    let revived = start(cfg);
    assert_eq!(revived.metrics().journal_recovered.get(), 2);
    for b in &bodies {
        let (_, resp) = post(&revived, b);
        assert_eq!(resp.bool_of("cached"), Some(true), "{resp:?}");
    }
    revived.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn breaker_degrades_after_repeated_tuner_panics_and_probe_heals_it() {
    let dir = temp_dir("breaker");
    let server = start(ServeConfig {
        cache_dir: dir.clone(),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(300),
        // Launches of the original kernel panic — the tuner's race
        // isolation converts each to TuneError::Panicked. Four fires: the
        // two failing tunes each launch the original twice (first try and
        // one retry); the open circuit then launches nothing, so the plan
        // is spent by the time the probe runs.
        faults: Faults::new(FaultPlan {
            target: FaultTarget::original("stage"),
            site: FaultSite::LaunchStart,
            kind: FaultKind::Panic,
            max_fires: 4,
        }),
        ..ServeConfig::default()
    });
    let body = tune_body(STAGE, "SNB", 256, 64);
    let m = server.metrics();

    for i in 0..2 {
        let (status, resp) = post(&server, &body);
        assert_eq!(status, 500, "failure {i} is a structured 500: {resp:?}");
        assert_eq!(resp.str_of("kind"), Some("panic"));
    }
    // Threshold reached: the circuit is open; misses degrade to 200s
    // with the conservative original-kernel answer — never a 500.
    for _ in 0..3 {
        let (status, resp) = post(&server, &body);
        assert_eq!(status, 200, "{resp:?}");
        assert_eq!(resp.bool_of("degraded"), Some(true), "{resp:?}");
        assert_eq!(resp.str_of("choice"), Some("with_local_memory"));
        assert_eq!(
            resp.get("fallback").and_then(|f| f.str_of("kind")),
            Some("circuit_open"),
            "{resp:?}"
        );
    }
    assert_eq!(m.breaker_state.get(), 1, "open");
    assert_eq!(m.breaker_opens.get(), 1);
    assert_eq!(m.degraded.get(), 3);
    // Degraded answers are placeholders: nothing was cached or persisted.
    assert!(
        std::fs::read_to_string(dir.join("decisions.journal"))
            .map(|t| t.is_empty())
            .unwrap_or(true),
        "degraded decisions must never be persisted"
    );

    // Plan spent + cooldown elapsed: the next miss is the half-open
    // probe; it tunes for real and closes the circuit.
    std::thread::sleep(Duration::from_millis(400));
    let (status, resp) = post(&server, &body);
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(resp.bool_of("degraded"), Some(false), "{resp:?}");
    assert_eq!(resp.bool_of("cached"), Some(false));
    assert_eq!(m.breaker_state.get(), 0, "closed again");

    // And the healed decision is a normal cache hit afterwards.
    let (_, resp) = post(&server, &body);
    assert_eq!(resp.bool_of("cached"), Some(true));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_probe_reopens_the_circuit() {
    let dir = temp_dir("probefail");
    let server = start(ServeConfig {
        cache_dir: dir.clone(),
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_millis(200),
        faults: Faults::new(FaultPlan {
            target: FaultTarget::original("stage"),
            site: FaultSite::LaunchStart,
            kind: FaultKind::Panic,
            max_fires: 0,
        }),
        ..ServeConfig::default()
    });
    let body = tune_body(STAGE, "SNB", 256, 64);
    let m = server.metrics();
    assert_eq!(post(&server, &body).0, 500);
    assert_eq!(m.breaker_state.get(), 1);
    std::thread::sleep(Duration::from_millis(300));
    // The probe runs against the still-failing tuner: structured 500,
    // circuit re-opens.
    let (status, resp) = post(&server, &body);
    assert_eq!(status, 500, "{resp:?}");
    assert_eq!(m.breaker_state.get(), 1, "re-opened");
    assert_eq!(m.breaker_opens.get(), 2);
    // Back to degrading, not 500ing.
    let (status, resp) = post(&server, &body);
    assert_eq!((status, resp.bool_of("degraded")), (200, Some(true)));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Two servers at once: the first carries a launch panic plan, the
/// second a `journal.append` I/O plan. Requests run on both at the same
/// time, and each server sees only its own fault — the first answers
/// `panic` for the targeted kernel and persists every other decision, the
/// second races cleanly and answers `persist_failed`.
#[test]
fn two_servers_each_see_only_their_own_faults() {
    let (launch_dir, io_dir) = (temp_dir("ownlaunch"), temp_dir("ownio"));
    let launch_faulty = start(ServeConfig {
        cache_dir: launch_dir.clone(),
        breaker_threshold: u32::MAX,
        faults: Faults::new(FaultPlan {
            target: FaultTarget::original("stage"),
            site: FaultSite::LaunchStart,
            kind: FaultKind::Panic,
            max_fires: 0,
        }),
        ..ServeConfig::default()
    });
    let io_faulty = start(ServeConfig {
        cache_dir: io_dir.clone(),
        io_faults: IoFaults::new(IoFaultPlan {
            site: "journal.append".to_string(),
            kind: IoFaultKind::Error("injected: disk full".to_string()),
            max_fires: 0,
        }),
        ..ServeConfig::default()
    });
    let other = STAGE.replace("void stage(", "void other(");
    let rounds = [64u64, 128, 256, 512, 1024];
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for global in rounds {
                let (status, resp) = post(&launch_faulty, &tune_body(STAGE, "SNB", global, 64));
                assert_eq!(
                    (status, resp.str_of("kind")),
                    (500, Some("panic")),
                    "{resp:?}"
                );
                let (status, resp) = post(&launch_faulty, &tune_body(&other, "SNB", global, 64));
                assert_eq!(status, 200, "no I/O fault on this server: {resp:?}");
            }
        });
        s.spawn(|| {
            start.wait();
            for global in rounds {
                let (status, resp) = post(&io_faulty, &tune_body(STAGE, "SNB", global, 64));
                assert_eq!(
                    (status, resp.str_of("kind")),
                    (500, Some("persist_failed")),
                    "no launch fault on this server: {resp:?}"
                );
            }
        });
    });
    assert_eq!(launch_faulty.metrics().persist_failures.get(), 0);
    assert_eq!(
        io_faulty.metrics().persist_failures.get(),
        rounds.len() as u64
    );
    launch_faulty.shutdown();
    io_faulty.shutdown();
    std::fs::remove_dir_all(&launch_dir).ok();
    std::fs::remove_dir_all(&io_dir).ok();
}

#[test]
fn slowloris_client_is_dropped_and_the_server_stays_responsive() {
    use std::io::Write;
    let dir = temp_dir("slowloris");
    let server = start(ServeConfig {
        cache_dir: dir.clone(),
        workers: 1, // one hostage would block everything
        io_timeout: Some(Duration::from_millis(200)),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // A client that sends half a request line and stalls.
    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    stalled.write_all(b"POST /v1/tune HT").unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // With only one worker, this request is served only once the stalled
    // client has been timed out and dropped.
    let (status, text) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!((status, text.as_str()), (200, "ok\n"));
    assert_eq!(
        server.metrics().slow_client_drops.get(),
        1,
        "the stalled connection was dropped by the io timeout"
    );
    drop(stalled);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
