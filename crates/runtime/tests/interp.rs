//! Integration tests: compile OpenCL C with the front-end, execute with the
//! interpreter, check functional results and trace behaviour.

use grover_frontend::{compile, BuildOptions};
use grover_ir::Function;
use grover_runtime::{
    enqueue, ArgValue, Context, CountingSink, ExecError, ExecPolicy, Launch, Limits, NdRange,
    NullSink, TraceOp, VecSink,
};

fn kernel(src: &str) -> Function {
    compile(src, &BuildOptions::new())
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .kernels
        .remove(0)
}

#[test]
fn copy_kernel_runs() {
    let k = kernel(
        "__kernel void copy(__global float* in, __global float* out) {
             int i = get_global_id(0);
             out[i] = in[i];
         }",
    );
    let mut ctx = Context::new();
    let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let a = ctx.buffer_f32(&data);
    let b = ctx.zeros_f32(64);
    let stats = enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a), ArgValue::Buffer(b)],
        &NdRange::d1(64, 16),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_f32(b), &data[..]);
    assert_eq!(stats.work_items, 64);
    assert_eq!(stats.work_groups, 4);
}

#[test]
fn barrier_staged_reversal() {
    // Reverse within each work-group through local memory. Without correct
    // barrier semantics the interleaving would read unwritten slots.
    let k = kernel(
        "__kernel void rev(__global float* in, __global float* out) {
             __local float lm[16];
             int lx = get_local_id(0);
             int wx = get_group_id(0);
             lm[lx] = in[wx * 16 + lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[wx * 16 + lx] = lm[15 - lx];
         }",
    );
    let mut ctx = Context::new();
    let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
    let a = ctx.buffer_f32(&data);
    let b = ctx.zeros_f32(32);
    let stats = enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a), ArgValue::Buffer(b)],
        &NdRange::d1(32, 16),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    let out = ctx.read_f32(b);
    for g in 0..2 {
        for i in 0..16 {
            assert_eq!(out[g * 16 + i], data[g * 16 + (15 - i)]);
        }
    }
    assert_eq!(stats.barriers, 2); // one rendezvous per work-group
}

#[test]
fn matrix_multiply_matches_reference() {
    let k = kernel(
        "__kernel void mm(__global float* a, __global float* b, __global float* c, int n) {
             int col = get_global_id(0);
             int row = get_global_id(1);
             float acc = 0.0f;
             for (int t = 0; t < n; t++) {
                 acc += a[row * n + t] * b[t * n + col];
             }
             c[row * n + col] = acc;
         }",
    );
    let n = 8usize;
    let a: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32 - 2.0).collect();
    let mut expect = vec![0.0f32; n * n];
    for r in 0..n {
        for c in 0..n {
            let mut acc = 0.0;
            for t in 0..n {
                acc += a[r * n + t] * b[t * n + c];
            }
            expect[r * n + c] = acc;
        }
    }
    let mut ctx = Context::new();
    let ba = ctx.buffer_f32(&a);
    let bb = ctx.buffer_f32(&b);
    let bc = ctx.zeros_f32(n * n);
    enqueue(
        &mut ctx,
        &k,
        &[
            ArgValue::Buffer(ba),
            ArgValue::Buffer(bb),
            ArgValue::Buffer(bc),
            ArgValue::I32(n as i32),
        ],
        &NdRange::d2(n as u64, n as u64, 4, 4),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_f32(bc), &expect[..]);
}

#[test]
fn float4_vector_kernel() {
    let k = kernel(
        "__kernel void vs(__global float4* a, __global float4* b) {
             int i = get_global_id(0);
             float4 x = a[i];
             float4 y = x * 2.0f + (float4)(1.0f, 0.0f, 1.0f, 0.0f);
             y.x = y.x - 1.0f;
             b[i] = y;
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.buffer_f32(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    let b = ctx.zeros_f32(8);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a), ArgValue::Buffer(b)],
        &NdRange::d1(2, 2),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(
        ctx.read_f32(b),
        &[2.0, 4.0, 7.0, 8.0, 10.0, 12.0, 15.0, 16.0]
    );
}

#[test]
fn trace_counts_accesses() {
    let k = kernel(
        "__kernel void st(__global float* in, __global float* out) {
             __local float lm[8];
             int lx = get_local_id(0);
             int gx = get_global_id(0);
             lm[lx] = in[gx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[gx] = lm[7 - lx];
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.zeros_f32(16);
    let b = ctx.zeros_f32(16);
    let mut sink = CountingSink::default();
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a), ArgValue::Buffer(b)],
        &NdRange::d1(16, 8),
        &mut sink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(sink.global_loads, 16);
    assert_eq!(sink.global_stores, 16);
    assert_eq!(sink.local_loads, 16);
    assert_eq!(sink.local_stores, 16);
    assert_eq!(sink.barriers, 2);
    assert!(sink.instructions > 0);
}

#[test]
fn trace_addresses_are_buffer_relative() {
    let k = kernel(
        "__kernel void t(__global float* a) {
             int i = get_global_id(0);
             a[i] = a[i] + 1.0f;
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.buffer_f32(&[0.0; 4]);
    let base = ctx.base_addr(a);
    let mut sink = VecSink::default();
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(4, 4),
        &mut sink,
        &Launch::default(),
    )
    .unwrap();
    let loads: Vec<_> = sink
        .events
        .iter()
        .filter(|e| e.op == TraceOp::Load)
        .collect();
    assert_eq!(loads.len(), 4);
    let mut addrs: Vec<u64> = loads.iter().map(|e| e.addr).collect();
    addrs.sort_unstable();
    assert_eq!(addrs, vec![base, base + 4, base + 8, base + 12]);
}

#[test]
fn divergent_barrier_detected() {
    let k = kernel(
        "__kernel void div(__global float* a) {
             int lx = get_local_id(0);
             if (lx < 2) {
                 barrier(CLK_LOCAL_MEM_FENCE);
             }
             a[lx] = 1.0f;
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.zeros_f32(4);
    let err = enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(4, 4),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap_err();
    assert_eq!(err, ExecError::BarrierDivergence);
}

#[test]
fn out_of_bounds_detected() {
    let k = kernel(
        "__kernel void oob(__global float* a) {
             int i = get_global_id(0);
             a[i + 100] = 0.0f;
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.zeros_f32(4);
    let err = enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(4, 4),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap_err();
    assert!(matches!(err, ExecError::OutOfBounds { .. }));
}

#[test]
fn instruction_limit_enforced() {
    let k = kernel(
        "__kernel void spin(__global int* a) {
             int x = 0;
             while (a[0] == 0) { x = x + 1; }
             a[1] = x;
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.zeros_i32(2);
    let err = enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch {
            limits: Limits {
                max_instructions: 10_000,
                ..Limits::default()
            },
            ..Launch::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, ExecError::InstructionLimit);
}

#[test]
fn arg_validation() {
    let k = kernel("__kernel void f(__global float* a, int n) { a[0] = (float)n; }");
    let mut ctx = Context::new();
    let a = ctx.zeros_f32(1);
    let ib = ctx.zeros_i32(1);
    // wrong count
    assert!(matches!(
        enqueue(
            &mut ctx,
            &k,
            &[ArgValue::Buffer(a)],
            &NdRange::d1(1, 1),
            &mut NullSink,
            &Launch::default()
        ),
        Err(ExecError::ArgCount { .. })
    ));
    // wrong buffer kind
    assert!(matches!(
        enqueue(
            &mut ctx,
            &k,
            &[ArgValue::Buffer(ib), ArgValue::I32(1)],
            &NdRange::d1(1, 1),
            &mut NullSink,
            &Launch::default()
        ),
        Err(ExecError::TypeMismatch(_))
    ));
    // wrong scalar kind
    assert!(matches!(
        enqueue(
            &mut ctx,
            &k,
            &[ArgValue::Buffer(a), ArgValue::F32(1.0)],
            &NdRange::d1(1, 1),
            &mut NullSink,
            &Launch::default()
        ),
        Err(ExecError::TypeMismatch(_))
    ));
}

#[test]
fn bad_ndrange_rejected() {
    let k = kernel("__kernel void f(__global float* a) { a[0] = 1.0f; }");
    let mut ctx = Context::new();
    let a = ctx.zeros_f32(1);
    let err = enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(10, 4),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap_err();
    assert!(matches!(err, ExecError::BadNdRange(_)));
}

#[test]
fn two_dim_ids() {
    let k = kernel(
        "__kernel void ids(__global int* out, int w) {
             int gx = get_global_id(0);
             int gy = get_global_id(1);
             out[gy * w + gx] = gy * 100 + gx;
         }",
    );
    let mut ctx = Context::new();
    let out = ctx.zeros_i32(8 * 4);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(out), ArgValue::I32(8)],
        &NdRange::d2(8, 4, 2, 2),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    let o = ctx.read_i32(out);
    for y in 0..4 {
        for x in 0..8 {
            assert_eq!(o[y * 8 + x], (y * 100 + x) as i32);
        }
    }
}

#[test]
fn loop_carried_swap_phis() {
    // Exercises parallel phi-copy semantics (the classic swap problem).
    let k = kernel(
        "__kernel void swap(__global int* out, int n) {
             int a = 1;
             int b = 2;
             for (int i = 0; i < n; i++) {
                 int t = a;
                 a = b;
                 b = t;
             }
             out[0] = a;
             out[1] = b;
         }",
    );
    let mut ctx = Context::new();
    let out = ctx.zeros_i32(2);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(out), ArgValue::I32(3)],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_i32(out), &[2, 1]); // three swaps of (1,2)
}

#[test]
fn builtins_work() {
    let k = kernel(
        "__kernel void m(__global float* out) {
             out[0] = sqrt(16.0f);
             out[1] = fabs(-3.0f);
             out[2] = fmin(1.0f, 2.0f);
             out[3] = fmax(1.0f, 2.0f);
             out[4] = mad(2.0f, 3.0f, 4.0f);
             out[5] = rsqrt(4.0f);
             out[6] = (float)min(3, 5);
             out[7] = clamp(7.0f, 0.0f, 5.0f);
         }",
    );
    let mut ctx = Context::new();
    let out = ctx.zeros_f32(8);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(out)],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(
        ctx.read_f32(out),
        &[4.0, 3.0, 1.0, 2.0, 10.0, 0.5, 3.0, 5.0]
    );
}

#[test]
fn division_by_zero_reported() {
    let k = kernel("__kernel void d(__global int* a) { a[0] = a[1] / a[2]; }");
    let mut ctx = Context::new();
    let a = ctx.buffer_i32(&[0, 5, 0]);
    let err = enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap_err();
    assert_eq!(err, ExecError::DivisionByZero);
}

#[test]
fn parallel_instruction_limit_enforced() {
    // An infinite loop in one work-item must still trip the shared budget
    // under the parallel schedule (the pool is chunked per worker, so the
    // launch stops within workers * chunk of the limit).
    let k = kernel(
        "__kernel void spin(__global int* a) {
             int x = 0;
             while (a[0] == 0) { x = x + 1; }
             a[1] = x;
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.zeros_i32(2);
    let err = enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(4, 1),
        &mut NullSink,
        &Launch {
            limits: Limits {
                max_instructions: 10_000,
                ..Limits::default()
            },
            policy: ExecPolicy::Parallel { threads: 2 },
            ..Launch::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, ExecError::InstructionLimit);
}

#[test]
fn parallel_error_reports_first_failing_group() {
    // Group 2 (and only group 2) divides by zero; whatever the schedule,
    // the reported error must be that group's — the serial answer.
    let k = kernel(
        "__kernel void f(__global int* a) {
             int w = get_group_id(0);
             a[w] = 100 / (2 - w);
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.zeros_i32(8);
    let err = enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(8, 1),
        &mut NullSink,
        &Launch {
            policy: ExecPolicy::Parallel { threads: 4 },
            ..Launch::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, ExecError::DivisionByZero);
    // Groups 0 and 1 precede the failing group and must have completed.
    assert_eq!(&ctx.read_i32(a)[..2], &[50, 100]);
}
