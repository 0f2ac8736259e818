//! The error matrix: every recoverable [`ExecError`] variant, provoked by a
//! real kernel, under both the serial and the parallel work-group schedule.
//! The parallel engine replays the serial semantics, so for each scenario
//! both policies must report the *same* error — the one belonging to the
//! first failing group in group-linear order.

use std::time::Duration;

use grover_frontend::{compile, BuildOptions};
use grover_ir::Function;
use grover_runtime::{
    enqueue, ArgValue, Context, ExecError, ExecPolicy, Launch, Limits, NdRange, NullSink,
};

fn kernel(src: &str) -> Function {
    compile(src, &BuildOptions::new())
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .kernels
        .remove(0)
}

const POLICIES: [ExecPolicy; 2] = [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 4 }];

/// Run `k` over a fresh 8-element i32 buffer per policy and hand each
/// outcome to `check`.
fn for_each_policy(
    k: &Function,
    nd: &NdRange,
    limits: &Limits,
    check: impl Fn(ExecPolicy, Result<(), ExecError>),
) {
    for policy in POLICIES {
        let mut ctx = Context::new();
        let a = ctx.zeros_i32(8);
        let res = enqueue(
            &mut ctx,
            k,
            &[ArgValue::Buffer(a)],
            nd,
            &mut NullSink,
            &Launch {
                limits: *limits,
                policy,
                ..Launch::default()
            },
        )
        .map(|_| ());
        check(policy, res);
    }
}

#[test]
fn out_of_bounds_same_under_both_policies() {
    // Group 3 runs off the end of the 8-element buffer.
    let k = kernel(
        "__kernel void oob(__global int* a) {
             int w = get_group_id(0);
             int i = w == 3 ? w + 100 : w;
             a[i] = w;
         }",
    );
    for_each_policy(&k, &NdRange::d1(6, 1), &Limits::default(), |policy, res| {
        assert_eq!(
            res.unwrap_err(),
            ExecError::OutOfBounds {
                buffer: 0,
                index: 103,
                len: 8
            },
            "policy {policy:?}"
        );
    });
}

#[test]
fn division_by_zero_same_under_both_policies() {
    let k = kernel(
        "__kernel void dbz(__global int* a) {
             int w = get_group_id(0);
             a[w] = 100 / (2 - w);
         }",
    );
    for_each_policy(&k, &NdRange::d1(8, 1), &Limits::default(), |policy, res| {
        assert_eq!(
            res.unwrap_err(),
            ExecError::DivisionByZero,
            "policy {policy:?}"
        );
    });
}

#[test]
fn barrier_divergence_same_under_both_policies() {
    // Within group 1, work-item 0 skips the barrier the others reach.
    let k = kernel(
        "__kernel void div(__global int* a) {
             int w = get_group_id(0);
             int lx = get_local_id(0);
             if (w != 1 || lx != 0) {
                 barrier(CLK_LOCAL_MEM_FENCE);
             }
             a[w] = lx;
         }",
    );
    for_each_policy(&k, &NdRange::d1(8, 2), &Limits::default(), |policy, res| {
        assert_eq!(
            res.unwrap_err(),
            ExecError::BarrierDivergence,
            "policy {policy:?}"
        );
    });
}

#[test]
fn instruction_limit_same_under_both_policies() {
    // An effectively unbounded loop must die on the shared budget, not hang.
    let k = kernel(
        "__kernel void spin(__global int* a) {
             int acc = 0;
             for (int i = 0; i < 100000000; i++) { acc = acc + i; }
             a[get_group_id(0)] = acc;
         }",
    );
    let limits = Limits {
        max_instructions: 10_000,
        ..Limits::default()
    };
    for_each_policy(&k, &NdRange::d1(8, 1), &limits, |policy, res| {
        assert_eq!(
            res.unwrap_err(),
            ExecError::InstructionLimit,
            "policy {policy:?}"
        );
    });
}

#[test]
fn bad_ndrange_same_under_both_policies() {
    // Local size does not divide the global size.
    let k = kernel(
        "__kernel void ok(__global int* a) {
             a[get_group_id(0)] = 1;
         }",
    );
    for_each_policy(
        &k,
        &NdRange::d1(10, 3),
        &Limits::default(),
        |policy, res| {
            assert!(
                matches!(res.unwrap_err(), ExecError::BadNdRange(_)),
                "policy {policy:?}"
            );
        },
    );
}

#[test]
fn deadline_exceeded_same_under_both_policies() {
    // A hot loop against a deadline that has effectively already passed:
    // the watchdog drains the budget and every worker reports the deadline
    // (never InstructionLimit — the drain must not be mistaken for budget
    // exhaustion).
    let k = kernel(
        "__kernel void spin(__global int* a) {
             int acc = 0;
             for (int i = 0; i < 100000000; i++) { acc = acc + i; }
             a[get_group_id(0)] = acc;
         }",
    );
    let limits = Limits {
        deadline: Some(Duration::ZERO),
        ..Limits::default()
    };
    for_each_policy(&k, &NdRange::d1(8, 1), &limits, |policy, res| {
        assert_eq!(
            res.unwrap_err(),
            ExecError::DeadlineExceeded,
            "policy {policy:?}"
        );
    });
}

#[test]
fn generous_deadline_does_not_trip() {
    let k = kernel(
        "__kernel void ok(__global int* a) {
             a[get_group_id(0)] = get_group_id(0);
         }",
    );
    let limits = Limits {
        deadline: Some(Duration::from_secs(3600)),
        ..Limits::default()
    };
    for_each_policy(&k, &NdRange::d1(8, 1), &limits, |policy, res| {
        assert!(res.is_ok(), "policy {policy:?}");
    });
}

#[test]
fn first_failing_group_wins_under_parallel() {
    // Groups 2 and 5 both fail, differently. Group-linear replay means both
    // schedules must surface group 2's out-of-bounds store, and groups 0–1
    // must have committed their results.
    let k = kernel(
        "__kernel void two(__global int* a) {
             int w = get_group_id(0);
             int i = w == 2 ? 1000 : w;
             int d = w == 5 ? 0 : 1;
             a[i] = w / d;
         }",
    );
    for policy in POLICIES {
        let mut ctx = Context::new();
        let a = ctx.zeros_i32(8);
        let err = enqueue(
            &mut ctx,
            &k,
            &[ArgValue::Buffer(a)],
            &NdRange::d1(8, 1),
            &mut NullSink,
            &Launch {
                policy,
                ..Launch::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::OutOfBounds {
                buffer: 0,
                index: 1000,
                len: 8
            },
            "policy {policy:?}"
        );
        assert_eq!(&ctx.read_i32(a)[..2], &[0, 1], "policy {policy:?}");
    }
}

#[test]
fn arg_count_same_under_both_policies() {
    let k = kernel(
        "__kernel void ok(__global int* a, int n) {
             a[get_group_id(0)] = n;
         }",
    );
    for policy in POLICIES {
        let mut ctx = Context::new();
        let a = ctx.zeros_i32(8);
        let err = enqueue(
            &mut ctx,
            &k,
            &[ArgValue::Buffer(a)],
            &NdRange::d1(8, 1),
            &mut NullSink,
            &Launch {
                policy,
                ..Launch::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::ArgCount {
                expected: 2,
                got: 1
            },
            "policy {policy:?}"
        );
    }
}
