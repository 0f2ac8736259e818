//! End-to-end tests of the `grover` binary.

use std::io::Write;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_grover");

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("grover-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const MT: &str = r#"
#define S 8
__kernel void mt(__global float* in, __global float* out, int w) {
    __local float lm[S][S];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    lm[ly][lx] = in[(wy * S + ly) * w + (wx * S + lx)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[(wx * S + lx) * w + (wy * S + ly)] = lm[lx][ly];
}
"#;

#[test]
fn transform_prints_report_and_both_versions() {
    let path = write_temp("mt.cl", MT);
    let out = Command::new(BIN)
        .args(["transform", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("original: mt"), "{stdout}");
    assert!(stdout.contains("transformed: mt"), "{stdout}");
    assert!(stdout.contains("(lx, ly) = (ly, lx)"), "{stdout}");
    assert!(stdout.contains("removed 1 barrier"), "{stdout}");
    // The transformed listing must not declare the local buffer.
    let transformed = stdout.split("transformed: mt").nth(1).unwrap();
    assert!(!transformed.contains("local @lm"), "{transformed}");
}

#[test]
fn transform_with_define_option() {
    let src = MT.replace("#define S 8\n", "");
    let path = write_temp("mt_nodefine.cl", &src);
    // Without -D S it must fail...
    let out = Command::new(BIN)
        .args(["transform", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // ...with it, succeed.
    let out = Command::new(BIN)
        .args(["transform", path.to_str().unwrap(), "-D", "S=16"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("16"));
}

#[test]
fn keep_barriers_flag() {
    let path = write_temp("mt_kb.cl", MT);
    let out = Command::new(BIN)
        .args(["transform", path.to_str().unwrap(), "--keep-barriers"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let transformed = stdout.split("transformed: mt").nth(1).unwrap();
    assert!(transformed.contains("barrier"), "{transformed}");
}

#[test]
fn classify_reports_patterns() {
    let src = r#"
__kernel void red(__global float* in, __global float* out) {
    __local float acc[8];
    int lx = get_local_id(0);
    acc[lx] = in[lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int s = 4; s > 0; s = s / 2) {
        if (lx < s) { acc[lx] = acc[lx] + acc[lx + s]; }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (lx == 0) { out[0] = acc[0]; }
}
"#;
    let path = write_temp("red.cl", src);
    let out = Command::new(BIN)
        .args(["classify", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ReadWriteTemporary"), "{stdout}");
}

#[test]
fn list_names_all_apps() {
    let out = Command::new(BIN).arg("list").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in [
        "AMD-SS",
        "AMD-MT",
        "NVD-MT",
        "AMD-RG",
        "AMD-MM",
        "NVD-MM-A",
        "NVD-MM-B",
        "NVD-MM-AB",
        "NVD-NBody",
        "PAB-ST",
        "ROD-SC",
    ] {
        assert!(stdout.contains(id), "missing {id}: {stdout}");
    }
}

#[test]
fn autotune_runs_at_test_scale() {
    let out = Command::new(BIN)
        .args(["autotune", "NVD-MT", "--device", "SNB", "--scale", "test"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("normalized performance"), "{stdout}");
    assert!(stdout.contains("verdict"), "{stdout}");
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!Command::new(BIN).output().unwrap().status.success());
    assert!(!Command::new(BIN)
        .args(["autotune", "NOPE", "--scale", "test"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!Command::new(BIN)
        .args(["transform", "/nonexistent/file.cl"])
        .output()
        .unwrap()
        .status
        .success());
}

fn exit_code(args: &[&str]) -> i32 {
    Command::new(BIN)
        .args(args)
        .output()
        .unwrap()
        .status
        .code()
        .expect("terminated by signal")
}

/// Exit codes are a stable part of the interface (scripts key off them).
#[test]
fn stable_exit_codes() {
    // 0: success, including a clean tuning run.
    assert_eq!(exit_code(&["list"]), 0);
    // 2: usage errors.
    assert_eq!(exit_code(&[]), 2);
    assert_eq!(exit_code(&["autotune"]), 2);
    assert_eq!(exit_code(&["autotune", "NVD-MT", "--bogus-flag"]), 2);
    assert_eq!(exit_code(&["autotune", "NVD-MT", "--retries", "x"]), 2);
    // 3: compile/prepare failures.
    assert_eq!(exit_code(&["transform", "/nonexistent/file.cl"]), 3);
    // 4: unknown application or device.
    assert_eq!(exit_code(&["autotune", "NOPE", "--scale", "test"]), 4);
    assert_eq!(
        exit_code(&["autotune", "NVD-MT", "--device", "TPU", "--scale", "test"]),
        4
    );
}

#[test]
fn autotune_strict_succeeds_on_healthy_app() {
    // No fault injected: the transformed kernel measures and verifies, so
    // --strict must not change the exit status.
    let out = Command::new(BIN)
        .args([
            "autotune", "NVD-MT", "--device", "SNB", "--scale", "test", "--strict",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn autotune_json_output() {
    let out = Command::new(BIN)
        .args([
            "autotune", "NVD-MT", "--device", "SNB", "--scale", "test", "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    // One JSON object, nothing else.
    assert!(line.starts_with('{') && line.ends_with('}'), "{stdout}");
    for key in [
        "\"app\":\"NVD-MT\"",
        "\"device\":\"SNB\"",
        "\"scale\":\"test\"",
        "\"pass_fingerprint\":\"grover-",
        "\"cycles_with\":",
        "\"cycles_without\":",
        "\"np\":",
        "\"choice\":",
        "\"fallback\":",
    ] {
        assert!(line.contains(key), "missing {key}: {line}");
    }
}

#[test]
fn profile_prints_traffic_table() {
    let out = Command::new(BIN)
        .args(["profile", "NVD-MT", "--scale", "test"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "original",
        "transformed",
        "local loads",
        "global loads",
        "barriers",
        "local loads eliminated",
        "global loads added",
        "barriers removed",
        "buffers:",
        "removed",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}`: {stdout}");
    }
}

#[test]
fn profile_json_schema() {
    for app in ["NVD-MT", "AMD-MM"] {
        let out = Command::new(BIN)
            .args(["profile", app, "--scale", "test", "--json"])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.trim();
        assert!(line.starts_with('{') && line.ends_with('}'), "{stdout}");
        assert!(!line.contains('\n'), "one line only: {stdout}");
        for key in [
            "\"app\":",
            "\"scale\":\"test\"",
            "\"kernel\":",
            "\"pass_fingerprint\":\"grover-",
            "\"original\":{",
            "\"transformed\":{",
            "\"delta\":{",
            "\"local_loads\":",
            "\"local_stores\":",
            "\"global_loads\":",
            "\"private_loads\":",
            "\"bytes_loaded\":",
            "\"global_bytes\":{\"loaded\":",
            "\"local_loads_removed\":",
            "\"global_loads_added\":",
            "\"barriers_removed\":",
            "\"buffers\":[",
            "\"outcome\":",
            "\"pass\":{",
        ] {
            assert!(line.contains(key), "{app}: missing {key}: {line}");
        }
    }
}

#[test]
fn profile_exit_codes() {
    // 4: unknown app; 2: usage.
    assert_eq!(exit_code(&["profile", "NOPE"]), 4);
    assert_eq!(exit_code(&["profile"]), 2);
    assert_eq!(exit_code(&["profile", "NVD-MT", "--bogus"]), 2);
    assert_eq!(exit_code(&["profile", "NVD-MT", "--scale", "huge"]), 2);
}

#[test]
fn trace_out_writes_parseable_jsonl() {
    let dir = std::env::temp_dir().join("grover-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace-profile.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = Command::new(BIN)
        .args([
            "--trace-out",
            trace.to_str().unwrap(),
            "profile",
            "NVD-MT",
            "--scale",
            "test",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "expected spans + events: {text}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"type\":"), "{line}");
        assert!(line.contains("\"name\":"), "{line}");
        assert!(line.contains("\"attrs\":{"), "{line}");
    }
    // The profile span and both nested launch spans must be present.
    assert!(text.contains("\"name\":\"profile\""), "{text}");
    assert_eq!(text.matches("\"name\":\"launch\"").count(), 2, "{text}");
    // --trace-out with a missing value is a usage error.
    assert_eq!(exit_code(&["--trace-out"]), 2);
}

#[test]
fn trace_out_captures_tuning_decision() {
    let dir = std::env::temp_dir().join("grover-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace-autotune.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = Command::new(BIN)
        .args([
            "--trace-out",
            trace.to_str().unwrap(),
            "autotune",
            "NVD-MT",
            "--device",
            "SNB",
            "--scale",
            "test",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.contains("\"name\":\"tune\""), "{text}");
    assert!(text.contains("\"name\":\"decision\""), "{text}");
    assert!(text.contains("\"name\":\"measure\""), "{text}");
}

#[test]
fn autotune_accepts_hardening_flags() {
    // The watchdog/retry knobs parse and a generous deadline doesn't trip.
    let out = Command::new(BIN)
        .args([
            "autotune",
            "NVD-MT",
            "--device",
            "SNB",
            "--scale",
            "test",
            "--deadline-ms",
            "60000",
            "--retries",
            "1",
            "--backoff-ms",
            "0",
            "--no-verify",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict"));
}

#[test]
fn fuzz_json_summary_is_clean_and_deterministic() {
    let out_dir = std::env::temp_dir()
        .join("grover-cli-tests")
        .join("fuzz-out");
    let _ = std::fs::remove_dir_all(&out_dir);
    let run = || {
        Command::new(BIN)
            .args([
                "fuzz",
                "--seed",
                "7",
                "--cases",
                "25",
                "--json",
                "--out-dir",
                out_dir.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    let out = run();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for key in [
        "\"seed\":7",
        "\"cases\":25",
        "\"failures\":0",
        "\"mismatches\":0",
    ] {
        assert!(stdout.contains(key), "{key} missing in {stdout}");
    }
    // A clean campaign writes no reproducers, so the directory never appears.
    assert!(!out_dir.exists());
    // Same seed, same cases — byte-identical summary.
    assert_eq!(stdout, String::from_utf8_lossy(&run().stdout));
}

#[test]
fn fuzz_human_summary_and_usage_errors() {
    let out = Command::new(BIN)
        .args(["fuzz", "--seed", "3", "--cases", "10"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("seed 3"), "{stdout}");
    assert!(stdout.contains("10 cases"), "{stdout}");

    let out = Command::new(BIN)
        .args(["fuzz", "--bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = Command::new(BIN)
        .args(["fuzz", "--seed", "notanumber"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fuzz_streams_campaign_telemetry() {
    let trace = std::env::temp_dir()
        .join("grover-cli-tests")
        .join("fuzz-trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    std::fs::create_dir_all(trace.parent().unwrap()).unwrap();
    let out = Command::new(BIN)
        .args([
            "--trace-out",
            trace.to_str().unwrap(),
            "fuzz",
            "--seed",
            "1",
            "--cases",
            "5",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&trace).unwrap();
    assert!(body.contains("fuzz.campaign"), "{body}");
    assert_eq!(body.matches("fuzz.case").count() % 5, 0, "{body}");
}

#[test]
fn profile_ops_needs_no_engine_flag() {
    // Bytecode is the only production engine: `--ops` profiles it
    // directly, and the retired `--backend` flag is a usage error.
    let out = Command::new(BIN)
        .args(["profile", "NVD-MT", "--scale", "test", "--ops", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"total_charged\""), "{stdout}");
    assert!(!stdout.contains("\"backend\""), "{stdout}");
    assert_eq!(exit_code(&["--backend", "bytecode", "list"]), 2);
}
