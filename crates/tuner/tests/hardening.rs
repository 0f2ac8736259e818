//! Acceptance tests for the hardened tuning pipeline: deterministic faults
//! injected into real tuning runs must be isolated, retried when transient,
//! and — for the transformed kernel — demoted to a graceful fallback, never
//! a broken recommendation or a process abort.
//!
//! Each test's [`FaultPlan`] travels in its own tuner (`Tuner::faults`),
//! so it reaches only that tuner's launches.

use std::time::Duration;

use grover_frontend::{compile, BuildOptions};
use grover_ir::Function;
use grover_runtime::fault::{FaultKind, FaultPlan, FaultSite, FaultTarget, Faults};
use grover_runtime::{ArgValue, Context, ExecError, Limits, NdRange};
use grover_tuner::{Choice, FallbackReason, RetryPolicy, TuneError, Tuner, Workload};

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

fn workload() -> Workload {
    Workload::new(|| {
        let mut ctx = Context::new();
        let a = ctx.buffer_f32(&vec![1.0; 256]);
        let b = ctx.zeros_f32(256);
        (
            ctx,
            vec![ArgValue::Buffer(a), ArgValue::Buffer(b)],
            NdRange::d1(256, 16),
        )
    })
}

/// Acceptance: a panic inside the tuner race thread measuring the
/// transformed kernel is isolated (no process abort), the decision is
/// demoted with `FallbackReason::Panicked`, and `best_kernel` returns the
/// original kernel.
#[test]
fn race_thread_panic_demotes_to_original() {
    let k = staged_kernel("hrd_panic");
    let w = workload();
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("hrd_panic"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::Panic,
        max_fires: 0, // every attempt, so the retry cannot mask it
    });
    let mut t = Tuner::new();
    t.faults = faults;
    let d = t.tune(&k, "SNB", &w).unwrap();
    assert_eq!(d.choice, Choice::WithLocalMemory);
    assert!(
        matches!(d.fallback, Some(FallbackReason::Panicked(_))),
        "expected Panicked fallback, got {:?}",
        d.fallback
    );
    assert_eq!(d.cycles_without, 0);
    assert_eq!(d.np, 0.0);
    let best = t.best_kernel(&k, "SNB", &w).unwrap();
    assert_eq!(best.local_mem_bytes(), k.local_mem_bytes());
}

/// Acceptance: corrupted global stores in the transformed kernel are caught
/// by the differential-output guard and demote with
/// `FallbackReason::OutputMismatch`; `best_kernel` returns the original.
#[test]
fn corrupted_transformed_output_demotes_to_original() {
    let k = staged_kernel("hrd_corrupt");
    let w = workload();
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("hrd_corrupt"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::CorruptStores,
        max_fires: 0,
    });
    let mut t = Tuner::new();
    t.faults = faults;
    let d = t.tune(&k, "SNB", &w).unwrap();
    assert_eq!(d.choice, Choice::WithLocalMemory);
    assert!(
        matches!(d.fallback, Some(FallbackReason::OutputMismatch { .. })),
        "expected OutputMismatch fallback, got {:?}",
        d.fallback
    );
    // Both versions measured fine — only the guard demoted.
    assert!(d.cycles_with > 0 && d.cycles_without > 0);
    let best = t.best_kernel(&k, "SNB", &w).unwrap();
    assert_eq!(best.local_mem_bytes(), k.local_mem_bytes());
}

/// A single transient panic is absorbed by the retry loop: the decision
/// carries no fallback and both measurements completed.
#[test]
fn transient_panic_survived_by_retry() {
    let k = staged_kernel("hrd_transient");
    let w = workload();
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("hrd_transient"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::Panic,
        max_fires: 1, // first attempt dies, the retry runs clean
    });
    let mut t = Tuner::new();
    t.faults = faults;
    t.retry = RetryPolicy {
        max_attempts: 2,
        backoff: Duration::ZERO,
    };
    let d = t.tune(&k, "SNB", &w).unwrap();
    assert!(d.fallback.is_none(), "retry should absorb the single panic");
    assert!(d.cycles_with > 0 && d.cycles_without > 0);
}

/// With retries disabled, the same single panic demotes.
#[test]
fn single_panic_demotes_without_retry() {
    let k = staged_kernel("hrd_noretry");
    let w = workload();
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("hrd_noretry"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::Panic,
        max_fires: 1,
    });
    let mut t = Tuner::new();
    t.faults = faults;
    // A single-fire fault must hit the only transformed measurement, so
    // restrict the race to one candidate sequence — with the full seeded
    // set, the surviving candidates would (correctly) absorb the fault.
    t.sequences = Some(vec![
        "local-removal,barrier-elim,index-simplify,remap".into()
    ]);
    t.retry = RetryPolicy {
        max_attempts: 1,
        backoff: Duration::ZERO,
    };
    let d = t.tune(&k, "SNB", &w).unwrap();
    assert!(matches!(d.fallback, Some(FallbackReason::Panicked(_))));
    assert_eq!(d.choice, Choice::WithLocalMemory);
}

/// An injected slowdown trips the wall-clock watchdog; the transformed
/// measurement reports `DeadlineExceeded` and the decision demotes.
#[test]
fn watchdog_deadline_demotes_slow_transformed() {
    let k = staged_kernel("hrd_slow");
    let w = workload();
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("hrd_slow"),
        site: FaultSite::Group(0),
        kind: FaultKind::Sleep(Duration::from_millis(80)),
        max_fires: 0, // every attempt stalls
    });
    let mut t = Tuner::new();
    t.faults = faults;
    t.limits = Limits {
        deadline: Some(Duration::from_millis(15)),
        ..Limits::default()
    };
    let d = t.tune(&k, "SNB", &w).unwrap();
    assert_eq!(d.choice, Choice::WithLocalMemory);
    assert_eq!(d.fallback, Some(FallbackReason::DeadlineExceeded));
    let best = t.best_kernel(&k, "SNB", &w).unwrap();
    assert_eq!(best.local_mem_bytes(), k.local_mem_bytes());
}

/// An injected `ExecError` in the transformed kernel demotes with
/// `FallbackReason::ExecFailed` (deterministic errors are not retried).
#[test]
fn injected_exec_error_demotes_with_reason() {
    let k = staged_kernel("hrd_err");
    let w = workload();
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("hrd_err"),
        site: FaultSite::Group(1),
        kind: FaultKind::Error(ExecError::Unsupported("injected".into())),
        max_fires: 1, // would be masked by a retry if errors were retried
    });
    let mut t = Tuner::new();
    t.faults = faults;
    // Single-fire fault: pin the race to one transformed candidate (see
    // single_panic_demotes_without_retry).
    t.sequences = Some(vec![
        "local-removal,barrier-elim,index-simplify,remap".into()
    ]);
    let d = t.tune(&k, "SNB", &w).unwrap();
    assert_eq!(d.choice, Choice::WithLocalMemory);
    match &d.fallback {
        Some(FallbackReason::ExecFailed(msg)) => assert!(msg.contains("injected")),
        other => panic!("expected ExecFailed fallback, got {other:?}"),
    }
}

/// A persistent panic while measuring the *original* kernel is fatal — there
/// is no correct version left to fall back to — but still isolated: the
/// tuner returns `TuneError::Panicked` instead of aborting.
#[test]
fn original_kernel_panic_is_fatal_but_isolated() {
    let k = staged_kernel("hrd_orig");
    let w = workload();
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::original("hrd_orig"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::Panic,
        max_fires: 0,
    });
    let mut t = Tuner::new();
    t.faults = faults;
    match t.tune(&k, "SNB", &w) {
        Err(TuneError::Panicked(_)) => {}
        other => panic!("expected TuneError::Panicked, got {other:?}"),
    }
}

/// Disabling the guard skips output verification: the corrupted transformed
/// kernel is then judged on cycles alone (documents what `--no-verify`
/// trades away).
#[test]
fn guard_can_be_disabled() {
    let k = staged_kernel("hrd_noverify");
    let w = workload();
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("hrd_noverify"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::CorruptStores,
        max_fires: 0,
    });
    let mut t = Tuner::new();
    t.faults = faults;
    t.verify_outputs = false;
    let d = t.tune(&k, "SNB", &w).unwrap();
    assert!(d.fallback.is_none());
    assert!(d.cycles_with > 0 && d.cycles_without > 0);
}

/// Instruction-site faults fire mid-group: the demotion reason carries the
/// injected error and the fallback path still yields the original kernel.
#[test]
fn instruction_site_fault_demotes() {
    let k = staged_kernel("hrd_inst");
    let w = workload();
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("hrd_inst"),
        site: FaultSite::Instruction(10),
        kind: FaultKind::Error(ExecError::Internal("injected mid-group".into())),
        max_fires: 0,
    });
    let mut t = Tuner::new();
    t.faults = faults;
    let d = t.tune(&k, "SNB", &w).unwrap();
    assert_eq!(d.choice, Choice::WithLocalMemory);
    match &d.fallback {
        Some(FallbackReason::ExecFailed(msg)) => assert!(msg.contains("injected mid-group")),
        other => panic!("expected ExecFailed fallback, got {other:?}"),
    }
    let best = t.best_kernel(&k, "SNB", &w).unwrap();
    assert_eq!(best.local_mem_bytes(), k.local_mem_bytes());
}

/// Fallback decisions are cached like any other: the second `tune` call
/// returns the demoted decision without re-measuring (the fault plan is
/// long gone by then).
#[test]
fn fallback_decisions_are_cached() {
    let k = staged_kernel("hrd_cache");
    let w = workload();
    let mut t = Tuner::new();
    t.faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("hrd_cache"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::Panic,
        max_fires: 0,
    });
    let d = t.tune(&k, "SNB", &w).unwrap();
    assert!(d.fallback.is_some());
    // Plan gone — a fresh tune would now succeed, but the cache wins.
    t.faults = Faults::default();
    let d2 = t.tune(&k, "SNB", &w).unwrap();
    assert!(matches!(d2.fallback, Some(FallbackReason::Panicked(_))));
    assert_eq!(d2.choice, Choice::WithLocalMemory);
}
