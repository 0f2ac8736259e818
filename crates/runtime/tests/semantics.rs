//! Deeper interpreter-semantics coverage: conversions, unsigned arithmetic,
//! 3-D launches, `__constant` memory, vector edge cases, multiple kernels.

use grover_frontend::{compile, BuildOptions};
use grover_ir::Function;
use grover_runtime::{enqueue, ArgValue, Context, Launch, NdRange, NullSink};

fn kernel(src: &str) -> Function {
    compile(src, &BuildOptions::new())
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .kernels
        .remove(0)
}

#[test]
fn unsigned_comparison_and_shift() {
    let k = kernel(
        "__kernel void u(__global int* a) {
             uint x = 0x80000000;
             uint y = 1;
             a[0] = x > y ? 1 : 0;        // unsigned: big
             int sx = -2147483648;
             a[1] = sx > 1 ? 1 : 0;       // signed: negative
             a[2] = (int)(x >> 31);       // logical shift
             a[3] = sx >> 31;             // arithmetic shift
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.zeros_i32(4);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_i32(a), &[1, 0, 1, -1]);
}

#[test]
fn float_int_conversions() {
    let k = kernel(
        "__kernel void c(__global float* f, __global int* i) {
             i[0] = (int)f[0];           // trunc toward zero
             i[1] = (int)f[1];
             f[2] = (float)i[2];
             long big = 5000000000;
             i[3] = (int)big;            // wraps
         }",
    );
    let mut ctx = Context::new();
    let f = ctx.buffer_f32(&[3.7, -3.7, 0.0, 0.0]);
    let i = ctx.buffer_i32(&[0, 0, -7, 0]);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(f), ArgValue::Buffer(i)],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_i32(i)[0], 3);
    assert_eq!(ctx.read_i32(i)[1], -3);
    assert_eq!(ctx.read_f32(f)[2], -7.0);
    assert_eq!(ctx.read_i32(i)[3], 5000000000u64 as i32);
}

#[test]
fn three_dimensional_launch() {
    let k = kernel(
        "__kernel void t3(__global int* out, int nx, int ny) {
             int x = get_global_id(0);
             int y = get_global_id(1);
             int z = get_global_id(2);
             out[(z * ny + y) * nx + x] = x + 10 * y + 100 * z;
         }",
    );
    let mut ctx = Context::new();
    let out = ctx.zeros_i32(4 * 2 * 3);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(out), ArgValue::I32(4), ArgValue::I32(2)],
        &NdRange::d3([4, 2, 3], [2, 1, 1]),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    let o = ctx.read_i32(out);
    for z in 0..3 {
        for y in 0..2 {
            for x in 0..4 {
                assert_eq!(o[(z * 2 + y) * 4 + x], (x + 10 * y + 100 * z) as i32);
            }
        }
    }
}

#[test]
fn constant_address_space_reads() {
    let k = kernel(
        "__kernel void cc(__constant float* lut, __global float* out) {
             int i = get_global_id(0);
             out[i] = lut[i % 4] * 2.0f;
         }",
    );
    let mut ctx = Context::new();
    let lut = ctx.buffer_f32(&[1.0, 2.0, 3.0, 4.0]);
    let out = ctx.zeros_f32(8);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(lut), ArgValue::Buffer(out)],
        &NdRange::d1(8, 4),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_f32(out), &[2.0, 4.0, 6.0, 8.0, 2.0, 4.0, 6.0, 8.0]);
}

#[test]
fn workitem_shape_queries() {
    let k = kernel(
        "__kernel void q(__global int* out) {
             int i = get_global_id(0);
             if (i == 0) {
                 out[0] = (int)get_local_size(0);
                 out[1] = (int)get_global_size(0);
                 out[2] = (int)get_num_groups(0);
                 out[3] = (int)get_local_size(1);
                 out[4] = (int)get_num_groups(2);
             }
         }",
    );
    let mut ctx = Context::new();
    let out = ctx.zeros_i32(5);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(out)],
        &NdRange::d1(24, 8),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_i32(out), &[8, 24, 3, 1, 1]);
}

#[test]
fn vector_scalar_mixed_arithmetic() {
    let k = kernel(
        "__kernel void vm(__global float4* a, __global float4* b) {
             int i = get_global_id(0);
             float4 x = a[i];
             b[i] = 2.0f * x + x * 3.0f - (float4)(1.0f);
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.buffer_f32(&[1.0, 2.0, 3.0, 4.0]);
    let b = ctx.zeros_f32(4);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a), ArgValue::Buffer(b)],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_f32(b), &[4.0, 9.0, 14.0, 19.0]);
}

#[test]
fn swizzle_all_lanes() {
    let k = kernel(
        "__kernel void sw(__global float4* a, __global float* out) {
             float4 v = a[0];
             out[0] = v.x;
             out[1] = v.y;
             out[2] = v.z;
             out[3] = v.w;
             out[4] = v.s0 + v.s3;
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.buffer_f32(&[10.0, 20.0, 30.0, 40.0]);
    let out = ctx.zeros_f32(5);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a), ArgValue::Buffer(out)],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_f32(out), &[10.0, 20.0, 30.0, 40.0, 50.0]);
}

#[test]
fn dot_builtin() {
    let k = kernel(
        "__kernel void d(__global float4* a, __global float4* b, __global float* out) {
             out[0] = dot(a[0], b[0]);
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.buffer_f32(&[1.0, 2.0, 3.0, 4.0]);
    let b = ctx.buffer_f32(&[5.0, 6.0, 7.0, 8.0]);
    let out = ctx.zeros_f32(1);
    enqueue(
        &mut ctx,
        &k,
        &[
            ArgValue::Buffer(a),
            ArgValue::Buffer(b),
            ArgValue::Buffer(out),
        ],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_f32(out)[0], 70.0);
}

#[test]
fn modulo_and_negative_numbers() {
    let k = kernel(
        "__kernel void m(__global int* a) {
             a[0] = -7 % 3;      // C semantics: -1
             a[1] = 7 % -3;      // 1
             a[2] = -7 / 2;      // -3 (truncated)
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.zeros_i32(3);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_i32(a), &[-1, 1, -3]);
}

#[test]
fn multiple_kernels_in_one_module() {
    let module = compile(
        "__kernel void first(__global int* a) { a[0] = 1; }
         __kernel void second(__global int* a) { a[1] = 2; }",
        &BuildOptions::new(),
    )
    .unwrap();
    let mut ctx = Context::new();
    let a = ctx.zeros_i32(2);
    for name in ["first", "second"] {
        enqueue(
            &mut ctx,
            module.kernel(name).unwrap(),
            &[ArgValue::Buffer(a)],
            &NdRange::d1(1, 1),
            &mut NullSink,
            &Launch::default(),
        )
        .unwrap();
    }
    assert_eq!(ctx.read_i32(a), &[1, 2]);
}

#[test]
fn do_while_and_break_continue_semantics() {
    let k = kernel(
        "__kernel void bc(__global int* a) {
             int sum = 0;
             for (int i = 0; i < 20; i++) {
                 if (i % 2 == 1) { continue; }
                 if (i >= 10) { break; }
                 sum += i;
             }
             a[0] = sum;           // 0+2+4+6+8 = 20
             int j = 10;
             do { j--; } while (j > 5);
             a[1] = j;             // 5
             while (j > 0) { j -= 2; }
             a[2] = j;             // -1? 5-2-2-2 = -1
         }",
    );
    let mut ctx = Context::new();
    let a = ctx.zeros_i32(3);
    enqueue(
        &mut ctx,
        &k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(1, 1),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_i32(a), &[20, 5, -1]);
}
