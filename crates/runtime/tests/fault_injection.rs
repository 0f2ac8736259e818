//! Exercises the `fault-injection` feature against the real engine: every
//! [`FaultSite`]/[`FaultKind`] combination the hardened pipeline relies on,
//! under both work-group schedules.
//!
//! A plan reaches only the launches whose [`Launch`] carries its handle, so
//! tests in this binary run side by side without seeing each other's
//! plans; `a_plan_reaches_only_the_launches_that_carry_it` pins that down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use grover_frontend::{compile, BuildOptions};
use grover_ir::Function;
use grover_runtime::fault::{FaultKind, FaultPlan, FaultSite, FaultTarget, Faults};
use grover_runtime::{
    enqueue, ArgValue, Context, ExecError, ExecPolicy, Launch, Limits, NdRange, NullSink,
};

const POLICIES: [ExecPolicy; 2] = [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 4 }];

/// `__kernel void <name>(__global int* a) { a[w] = w; }` over 8 groups.
fn store_kernel(name: &str) -> Function {
    let src = format!(
        "__kernel void {name}(__global int* a) {{
             int w = get_group_id(0);
             a[w] = w;
         }}"
    );
    compile(&src, &BuildOptions::new())
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .kernels
        .remove(0)
}

fn launch(
    k: &Function,
    policy: ExecPolicy,
    limits: &Limits,
    faults: &Faults,
) -> (Context, Result<(), ExecError>) {
    let mut ctx = Context::new();
    let a = ctx.zeros_i32(8);
    let res = enqueue(
        &mut ctx,
        k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(8, 1),
        &mut NullSink,
        &Launch {
            limits: *limits,
            policy,
            faults: faults.clone(),
            ..Launch::default()
        },
    )
    .map(|_| ());
    (ctx, res)
}

#[test]
fn group_panic_is_isolated_and_attributed() {
    let k = store_kernel("fi_gpanic");
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::kernel("fi_gpanic"),
        site: FaultSite::Group(2),
        kind: FaultKind::Panic,
        max_fires: 0,
    });
    for policy in POLICIES {
        let (_, res) = launch(&k, policy, &Limits::default(), &faults);
        match res.unwrap_err() {
            ExecError::WorkerPanic { group, message } => {
                assert_eq!(group, 2, "policy {policy:?}");
                assert!(message.contains("fault-injection"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?} under {policy:?}"),
        }
    }
}

#[test]
fn launch_start_panic_escapes_enqueue() {
    // A launch-entry fault models the death of a whole measurement (the
    // tuner race thread): it must propagate out of `enqueue` itself, to be
    // caught by the *caller's* isolation, not converted to an ExecError.
    let k = store_kernel("fi_lpanic");
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::kernel("fi_lpanic"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::Panic,
        max_fires: 0,
    });
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        launch(&k, ExecPolicy::Serial, &Limits::default(), &faults)
    }));
    assert!(unwound.is_err(), "launch-entry panic must unwind");
}

#[test]
fn injected_error_surfaces_verbatim() {
    let k = store_kernel("fi_err");
    let injected = ExecError::Unsupported("injected for test".into());
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::kernel("fi_err"),
        site: FaultSite::Group(1),
        kind: FaultKind::Error(injected.clone()),
        max_fires: 0,
    });
    for policy in POLICIES {
        let (_, res) = launch(&k, policy, &Limits::default(), &faults);
        assert_eq!(res.unwrap_err(), injected, "policy {policy:?}");
    }
}

#[test]
fn sleep_trips_the_watchdog() {
    let k = store_kernel("fi_sleep");
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::kernel("fi_sleep"),
        site: FaultSite::Group(0),
        kind: FaultKind::Sleep(Duration::from_millis(50)),
        max_fires: 0,
    });
    let limits = Limits {
        deadline: Some(Duration::from_millis(5)),
        ..Limits::default()
    };
    for policy in POLICIES {
        let (_, res) = launch(&k, policy, &limits, &faults);
        assert_eq!(
            res.unwrap_err(),
            ExecError::DeadlineExceeded,
            "policy {policy:?}"
        );
    }
}

#[test]
fn corrupt_stores_perturbs_globals_from_trigger_group() {
    let k = store_kernel("fi_corrupt");
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::kernel("fi_corrupt"),
        site: FaultSite::Group(1),
        kind: FaultKind::CorruptStores,
        max_fires: 0,
    });
    for policy in POLICIES {
        let (ctx, res) = launch(&k, policy, &Limits::default(), &faults);
        res.unwrap();
        let got = ctx.buffers()[0].clone();
        let grover_runtime::BufferData::I32(got) = got else {
            panic!("expected i32 buffer");
        };
        // Group 0 is clean; groups >= 1 store w ^ 1.
        let want: Vec<i32> = (0..8).map(|w| if w == 0 { 0 } else { w ^ 1 }).collect();
        assert_eq!(got, want, "policy {policy:?}");
    }
}

#[test]
fn max_fires_limits_the_fault_to_n_launches() {
    let k = store_kernel("fi_once");
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::kernel("fi_once"),
        site: FaultSite::Group(0),
        kind: FaultKind::Error(ExecError::Internal("transient".into())),
        max_fires: 1,
    });
    let (_, first) = launch(&k, ExecPolicy::Serial, &Limits::default(), &faults);
    assert!(first.is_err(), "first launch must hit the fault");
    let (ctx, second) = launch(&k, ExecPolicy::Serial, &Limits::default(), &faults);
    second.expect("fault exhausted — second launch must be clean");
    let grover_runtime::BufferData::I32(got) = &ctx.buffers()[0] else {
        panic!("expected i32 buffer");
    };
    assert_eq!(got, &[0, 1, 2, 3, 4, 5, 6, 7]);
}

#[test]
fn instruction_site_fault_fires_mid_group() {
    let k = store_kernel("fi_inst");
    let injected = ExecError::Internal("mid-group".into());
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::kernel("fi_inst"),
        site: FaultSite::Instruction(5),
        kind: FaultKind::Error(injected.clone()),
        max_fires: 0,
    });
    let (_, res) = launch(&k, ExecPolicy::Serial, &Limits::default(), &faults);
    assert_eq!(res.unwrap_err(), injected);
}

#[test]
fn plans_target_only_matching_kernels() {
    let hit = store_kernel("fi_target_hit");
    let miss = store_kernel("fi_target_miss");
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::kernel("fi_target_hit"),
        site: FaultSite::Group(0),
        kind: FaultKind::Panic,
        max_fires: 0,
    });
    let (_, res) = launch(&hit, ExecPolicy::Serial, &Limits::default(), &faults);
    assert!(matches!(res.unwrap_err(), ExecError::WorkerPanic { .. }));
    let (_, res) = launch(&miss, ExecPolicy::Serial, &Limits::default(), &faults);
    res.expect("plan must not match a differently-named kernel");
}

/// The same kernel launched 100 times from each of two threads at once:
/// one side's launches carry a panic plan, the other side's carry none.
/// The plan travels with its launches, so the clean side never sees it —
/// a process-wide plan slot would fail it as soon as the two overlap.
#[test]
fn a_plan_reaches_only_the_launches_that_carry_it() {
    let k = store_kernel("fi_isolated");
    let plan = FaultPlan {
        target: FaultTarget::kernel("fi_isolated"),
        site: FaultSite::Group(0),
        kind: FaultKind::Panic,
        max_fires: 0,
    };
    let start = std::sync::Barrier::new(2);
    // The faulty side arms its plan afresh for every launch, so a plan
    // that leaked into shared state would sit there for most of the clean
    // side's launches, whatever other tests of this binary arm meanwhile.
    let run = |faults: &dyn Fn() -> Faults| {
        start.wait();
        (0..100)
            .map(|_| launch(&k, ExecPolicy::Serial, &Limits::default(), &faults()).1)
            .collect::<Vec<_>>()
    };
    let (faulty, clean) = std::thread::scope(|s| {
        let faulty = s.spawn(|| run(&|| Faults::new(plan.clone())));
        let clean = run(&Faults::default);
        (faulty.join().unwrap(), clean)
    });
    for (i, res) in clean.into_iter().enumerate() {
        res.unwrap_or_else(|e| panic!("clean launch {i} saw the other side's plan: {e:?}"));
    }
    for (i, res) in faulty.into_iter().enumerate() {
        assert!(
            matches!(res, Err(ExecError::WorkerPanic { group: 0, .. })),
            "faulty launch {i}: {res:?}"
        );
    }
}

#[test]
fn local_mem_free_targeting_distinguishes_versions() {
    // Same name, two versions: one staging through __local, one not — the
    // `transformed`/`original` selectors must tell them apart (this is how
    // tuner tests hit exactly one side of a race).
    let with_lm = compile(
        "__kernel void fi_vers(__global float* in, __global float* out) {
             __local float lm[16];
             int lx = get_local_id(0);
             lm[lx] = in[lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[lx] = lm[15 - lx];
         }",
        &BuildOptions::new(),
    )
    .unwrap()
    .kernels
    .remove(0);
    let without_lm = compile(
        "__kernel void fi_vers(__global float* in, __global float* out) {
             int lx = get_local_id(0);
             out[lx] = in[15 - lx];
         }",
        &BuildOptions::new(),
    )
    .unwrap()
    .kernels
    .remove(0);

    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("fi_vers"),
        site: FaultSite::Group(0),
        kind: FaultKind::Panic,
        max_fires: 0,
    });
    let run = |k: &Function| {
        let mut ctx = Context::new();
        let a = ctx.buffer_f32(&[1.0; 16]);
        let b = ctx.zeros_f32(16);
        enqueue(
            &mut ctx,
            k,
            &[ArgValue::Buffer(a), ArgValue::Buffer(b)],
            &NdRange::d1(16, 16),
            &mut NullSink,
            &Launch {
                faults: faults.clone(),
                ..Launch::default()
            },
        )
        .map(|_| ())
    };
    run(&with_lm).expect("original version must not match a `transformed` target");
    assert!(matches!(
        run(&without_lm).unwrap_err(),
        ExecError::WorkerPanic { .. }
    ));
}
