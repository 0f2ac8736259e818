//! The differential-output guard runs its two verify launches — the
//! original and the race winner — at the same time. These tests pin what
//! must not change with that overlap: the launch count, the verdicts of
//! the guard (a reference failure is fatal, a corrupted winner demotes),
//! the telemetry, and run-to-run determinism.
//!
//! Each test's [`FaultPlan`] travels in its own tuner (`Tuner::faults`),
//! so it reaches only that tuner's launches.

use std::cell::Cell;
use std::sync::Arc;

use grover_frontend::{compile, BuildOptions};
use grover_ir::Function;
use grover_obs::{MemoryRecorder, Value};
use grover_runtime::fault::{FaultKind, FaultPlan, FaultSite, FaultTarget, Faults};
use grover_runtime::{ArgValue, Context, ExecError, NdRange};
use grover_tuner::{Choice, FallbackReason, TuneError, Tuner, Workload};

/// A staging kernel (16-element local reversal) under a per-test name.
fn staged_kernel(name: &str) -> Function {
    let src = format!(
        "__kernel void {name}(__global float* in, __global float* out) {{
             __local float lm[16];
             int lx = get_local_id(0);
             int wx = get_group_id(0);
             lm[lx] = in[wx * 16 + lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[wx * 16 + lx] = lm[15 - lx];
         }}"
    );
    compile(&src, &BuildOptions::new())
        .unwrap()
        .kernels
        .remove(0)
}

fn instance() -> (Context, Vec<ArgValue>, NdRange) {
    let mut ctx = Context::new();
    let input: Vec<f32> = (0..256).map(|i| i as f32).collect();
    let a = ctx.buffer_f32(&input);
    let b = ctx.zeros_f32(256);
    (
        ctx,
        vec![ArgValue::Buffer(a), ArgValue::Buffer(b)],
        NdRange::d1(256, 16),
    )
}

fn workload() -> Workload {
    Workload::new(instance)
}

/// Race size on SNB: the original plus one launch per seeded candidate.
fn race_launches() -> u64 {
    1 + grover_devsim::candidate_sequences("SNB").len() as u64
}

#[test]
fn unverified_tune_runs_only_the_race() {
    let k = staged_kernel("vg_noverify");
    let mut t = Tuner::new();
    t.verify_outputs = false;
    t.tune(&k, "SNB", &workload()).unwrap();
    assert_eq!(t.launches_run(), race_launches());
}

/// With every candidate failed there is no winner to verify: the guard
/// runs no launch. A deterministic error is not retried, so the count is
/// exactly the race.
#[test]
fn no_verify_launch_when_every_candidate_failed() {
    let k = staged_kernel("vg_allfail");
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("vg_allfail"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::Error(ExecError::Unsupported("injected".into())),
        max_fires: 0,
    });
    let mut t = Tuner::new();
    t.faults = faults;
    let d = t.tune(&k, "SNB", &workload()).unwrap();
    assert!(
        matches!(d.fallback, Some(FallbackReason::ExecFailed(_))),
        "{:?}",
        d.fallback
    );
    assert_eq!(t.launches_run(), race_launches());
}

/// A winner whose stores are corrupted measures fine in the race and is
/// caught by the guard while the original's verify launch runs beside it.
#[test]
fn corrupted_winner_still_demotes_with_output_mismatch() {
    let k = staged_kernel("vg_corrupt");
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("vg_corrupt"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::CorruptStores,
        max_fires: 0,
    });
    let rec = Arc::new(MemoryRecorder::new());
    let mut t = Tuner::new();
    t.faults = faults;
    t.recorder = rec.clone();
    let d = t.tune(&k, "SNB", &workload()).unwrap();
    assert_eq!(d.choice, Choice::WithLocalMemory);
    assert!(
        matches!(d.fallback, Some(FallbackReason::OutputMismatch { .. })),
        "{:?}",
        d.fallback
    );
    assert!(d.cycles_with > 0 && d.cycles_without > 0);
    assert_eq!(t.launches_run(), race_launches() + 2);

    let snap = rec.snapshot();
    assert_eq!(snap.spans_named("verify").len(), 2);
    let verdicts = snap.events_named("verify");
    assert_eq!(verdicts.len(), 1);
    assert!(matches!(verdicts[0].attr("ok"), Some(Value::Bool(false))));
    assert_eq!(
        verdicts[0].attr("reason").and_then(Value::as_str),
        Some(d.fallback.unwrap().to_string().as_str())
    );
}

/// The reference launch failing is fatal even when the winner's launch,
/// running at the same time, also fails: there is no baseline left. Both
/// launches ran, so both count.
#[test]
fn reference_failure_is_fatal_and_wins_over_the_winner() {
    let k = staged_kernel("vg_reffail");
    let race = race_launches() as usize;
    let made = Cell::new(0usize);
    // The race's workloads are good; every later one (the two verify
    // launches) lacks its output argument and fails to launch.
    let w = Workload::new(move || {
        made.set(made.get() + 1);
        let (ctx, mut args, nd) = instance();
        if made.get() > race {
            args.pop();
        }
        (ctx, args, nd)
    });
    let mut t = Tuner::new();
    match t.tune(&k, "SNB", &w) {
        Err(TuneError::Execution(msg)) => assert!(msg.contains("argument"), "{msg}"),
        other => panic!("expected a fatal execution error, got {other:?}"),
    }
    assert_eq!(t.launches_run(), race_launches() + 2);
    assert_eq!(t.cached_decisions(), 0, "a failed tune caches nothing");
}

/// Overlapping the verify launches leaves no room for scheduling to leak
/// into a decision: twenty cache-miss tunes on fresh tuners agree, each
/// running the race plus exactly two verify launches.
#[test]
fn twenty_fresh_tunes_decide_identically() {
    let k = staged_kernel("vg_repeat");
    let w = workload();
    let decide = || {
        let mut t = Tuner::new();
        let d = t.tune(&k, "SNB", &w).unwrap();
        assert!(d.fallback.is_none(), "{:?}", d.fallback);
        assert_eq!(t.launches_run(), race_launches() + 2);
        (
            d.choice,
            d.sequence,
            d.np.to_bits(),
            d.cycles_with,
            d.cycles_without,
            d.fallback,
        )
    };
    let first = decide();
    for run in 1..20 {
        assert_eq!(decide(), first, "tune {run} differs from the first");
    }
}
