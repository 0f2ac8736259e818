//! Launch-telemetry acceptance tests: the metrics a launch span records
//! must be schedule-independent — bit-identical between `ExecPolicy::Serial`
//! and `ExecPolicy::Parallel` — for every bundled app, in both kernel
//! versions. Wall-time and utilisation attributes are the only ones allowed
//! to differ.

use grover_kernels::{all_apps, prepare_pair, run_prepared_with, Scale};
use grover_obs::{MemoryRecorder, Snapshot};
use grover_runtime::{ExecPolicy, Launch, NullSink};

/// The deterministic launch-span metrics (everything except wall time,
/// worker count/utilisation and the policy tag).
const METRIC_KEYS: &[&str] = &[
    "instructions",
    "barriers",
    "global_loads",
    "global_stores",
    "local_loads",
    "local_stores",
    "constant_loads",
    "private_loads",
    "private_stores",
    "bytes_loaded",
    "bytes_stored",
    "global_bytes_loaded",
    "global_bytes_stored",
    "local_bytes_loaded",
    "local_bytes_stored",
    "constant_bytes_loaded",
    "work_items",
    "work_groups",
];

fn observed_snapshot(
    kernel: &grover_ir::Function,
    prepared: grover_kernels::Prepared,
    policy: ExecPolicy,
) -> Snapshot {
    let rec = MemoryRecorder::new();
    let launch = Launch {
        policy,
        recorder: &rec,
        ..Launch::default()
    };
    run_prepared_with(kernel, prepared, &mut NullSink, &launch).unwrap_or_else(|e| panic!("{e}"));
    rec.snapshot()
}

fn launch_metrics(snap: &Snapshot) -> Vec<(&'static str, u64)> {
    let span = snap.span("launch").expect("launch span recorded");
    METRIC_KEYS
        .iter()
        .map(|&k| {
            (
                k,
                span.attr_u64(k)
                    .unwrap_or_else(|| panic!("metric `{k}` missing")),
            )
        })
        .collect()
}

#[test]
fn launch_metrics_are_schedule_independent() {
    for app in all_apps() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        for (version, kernel) in [
            ("original", &pair.original),
            ("transformed", &pair.transformed),
        ] {
            let serial = observed_snapshot(kernel, (app.prepare)(Scale::Test), ExecPolicy::Serial);
            let parallel = observed_snapshot(
                kernel,
                (app.prepare)(Scale::Test),
                ExecPolicy::Parallel { threads: 2 },
            );
            assert_eq!(
                launch_metrics(&serial),
                launch_metrics(&parallel),
                "{} {version}: serial and parallel launch metrics differ",
                app.id
            );
        }
    }
}

#[test]
fn worker_events_cover_every_group() {
    let app = grover_kernels::app_by_id("NVD-MT").unwrap();
    let pair = prepare_pair(&app, Scale::Test).unwrap();
    let snap = observed_snapshot(
        &pair.original,
        (app.prepare)(Scale::Test),
        ExecPolicy::Parallel { threads: 2 },
    );
    let span = snap.span("launch").unwrap();
    let work_groups = span.attr_u64("work_groups").unwrap();
    let workers = snap.events_named("worker");
    assert!(!workers.is_empty());
    let claimed: u64 = workers
        .iter()
        .map(|w| {
            w.attr("groups")
                .and_then(grover_obs::Value::as_u64)
                .unwrap()
        })
        .sum();
    assert_eq!(claimed, work_groups);
    for w in &workers {
        assert_eq!(w.span, Some(span.id));
        assert!(w.attr("busy_us").is_some());
        assert!(w.attr("util").is_some());
    }
}

#[test]
fn launch_span_reconciles_per_space_totals() {
    let app = grover_kernels::app_by_id("AMD-MM").unwrap();
    let pair = prepare_pair(&app, Scale::Test).unwrap();
    let snap = observed_snapshot(
        &pair.original,
        (app.prepare)(Scale::Test),
        ExecPolicy::Serial,
    );
    let span = snap.span("launch").unwrap();
    let per_space_bytes_loaded = span.attr_u64("global_bytes_loaded").unwrap()
        + span.attr_u64("local_bytes_loaded").unwrap()
        + span.attr_u64("constant_bytes_loaded").unwrap();
    assert_eq!(
        per_space_bytes_loaded,
        span.attr_u64("bytes_loaded").unwrap()
    );
    assert!(span.attr_u64("local_loads").unwrap() > 0);
}
