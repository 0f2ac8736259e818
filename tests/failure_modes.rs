//! Failure-injection tests: kernels outside Grover's supported pattern
//! (paper §VI-D limitations) must be declined *cleanly* — the kernel is
//! left untouched and still runs correctly. Grover must never miscompile.

use grover::devsim::{candidate_sequences, ALL_DEVICES};
use grover::frontend::{compile, BuildOptions};
use grover::ir::Function;
use grover::pass::{apply_sequence, BufferOutcome, Grover, GroverOptions, Sequence};
use grover::runtime::{enqueue, ArgValue, Context, Launch, NdRange, NullSink};

fn kernel(src: &str) -> Function {
    compile(src, &BuildOptions::new())
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .kernels
        .remove(0)
}

/// Run Grover, assert it declined, and assert the kernel is unchanged —
/// under the default pipeline and under every seeded sequence of every
/// device, since the tuner races each of those.
fn assert_declined(src: &str) -> Function {
    let mut f = kernel(src);
    let before = grover::ir::printer::function_to_string(&f);
    let report = Grover::new().run_on(&mut f);
    assert!(
        !report.all_removed(),
        "expected a decline, got:\n{}",
        report.to_text()
    );
    let after = grover::ir::printer::function_to_string(&f);
    assert_eq!(before, after, "declined kernel must be untouched");
    for device in ALL_DEVICES {
        for spec in candidate_sequences(device) {
            let seq = Sequence::parse(spec).expect("seeded sequences parse");
            let mut g = kernel(src);
            apply_sequence(&mut g, &seq, &GroverOptions::default());
            let after = grover::ir::printer::function_to_string(&g);
            assert_eq!(before, after, "{device} `{spec}` changed a declined kernel");
        }
    }
    f
}

#[test]
fn reduction_pattern_declined() {
    // §VI-D: "local memory used as temporal storage for repeated
    // read/write operations — e.g. reductions".
    assert_declined(
        "__kernel void red(__global float* in, __global float* out) {
             __local float acc[64];
             int lx = get_local_id(0);
             acc[lx] = in[lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             for (int s = 32; s > 0; s = s / 2) {
                 if (lx < s) { acc[lx] = acc[lx] + acc[lx + s]; }
                 barrier(CLK_LOCAL_MEM_FENCE);
             }
             if (lx == 0) { out[0] = acc[0]; }
         }",
    );
}

#[test]
fn computed_staging_value_declined() {
    assert_declined(
        "__kernel void c(__global float* in, __global float* out) {
             __local float lm[16];
             int lx = get_local_id(0);
             lm[lx] = in[lx] * 0.5f;
             barrier(CLK_LOCAL_MEM_FENCE);
             out[lx] = lm[15 - lx];
         }",
    );
}

#[test]
fn non_affine_ls_index_declined() {
    assert_declined(
        "__kernel void na(__global float* in, __global float* out) {
             __local float lm[256];
             int lx = get_local_id(0);
             lm[lx * lx] = in[lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[lx] = lm[lx];
         }",
    );
}

#[test]
fn singular_map_declined() {
    // All work-items store to slot 0 from distinct global addresses; the
    // GL cannot be reconstructed (§III-B: no unique solution).
    assert_declined(
        "__kernel void s(__global float* in, __global float* out) {
             __local float lm[16];
             int lx = get_local_id(0);
             lm[0] = in[lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[lx] = lm[0];
         }",
    );
}

#[test]
fn rank_deficient_two_dim_declined() {
    // LS (lx+ly, lx+ly): rank 1 in two unknowns.
    assert_declined(
        "__kernel void rd(__global float* in, __global float* out, int w) {
             __local float lm[32][32];
             int lx = get_local_id(0);
             int ly = get_local_id(1);
             lm[lx + ly][lx + ly] = in[ly * w + lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[ly * w + lx] = lm[lx][ly];
         }",
    );
}

#[test]
fn fractional_solution_declined() {
    // LS index 2*lx: the inverse needs lx' = k/2 — not materialisable.
    assert_declined(
        "__kernel void fr(__global float* in, __global float* out) {
             __local float lm[32];
             int lx = get_local_id(0);
             lm[2 * lx] = in[lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             float acc = 0.0f;
             for (int k = 0; k < 32; k++) { acc += lm[k]; }
             out[lx] = acc;
         }",
    );
}

#[test]
fn lid_dependent_loop_bound_declined() {
    // The GL index hides lx inside a loop phi.
    assert_declined(
        "__kernel void ph(__global float* in, __global float* out) {
             __local float lm[16];
             int lx = get_local_id(0);
             float s = 0.0f;
             for (int i = lx; i < 16; i++) {
                 lm[lx] = in[i];
                 barrier(CLK_LOCAL_MEM_FENCE);
                 s += lm[0];
                 barrier(CLK_LOCAL_MEM_FENCE);
             }
             out[lx] = s;
         }",
    );
}

#[test]
fn declined_kernels_still_execute_correctly() {
    // A declined reduction must keep producing the right answer.
    let src = "__kernel void red(__global float* in, __global float* out) {
         __local float acc[8];
         int lx = get_local_id(0);
         acc[lx] = in[lx];
         barrier(CLK_LOCAL_MEM_FENCE);
         for (int s = 4; s > 0; s = s / 2) {
             if (lx < s) { acc[lx] = acc[lx] + acc[lx + s]; }
             barrier(CLK_LOCAL_MEM_FENCE);
         }
         if (lx == 0) { out[0] = acc[0]; }
     }";
    let f = assert_declined(src);
    let mut ctx = Context::new();
    let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
    let bi = ctx.buffer_f32(&data);
    let bo = ctx.zeros_f32(1);
    enqueue(
        &mut ctx,
        &f,
        &[ArgValue::Buffer(bi), ArgValue::Buffer(bo)],
        &NdRange::d1(8, 8),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    assert_eq!(ctx.read_f32(bo)[0], 36.0);
}

#[test]
fn decline_reasons_are_reported() {
    let mut f = kernel(
        "__kernel void s(__global float* in, __global float* out) {
             __local float lm[16];
             int lx = get_local_id(0);
             lm[0] = in[lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[lx] = lm[0];
         }",
    );
    let report = Grover::new().run_on(&mut f);
    match &report.buffers[0].outcome {
        BufferOutcome::Declined(d) => {
            let msg = d.to_string();
            assert!(!msg.is_empty());
        }
        other => panic!("expected Declined, got {other:?}"),
    }
}

#[test]
fn mixed_kernel_partial_success() {
    // One good buffer and one reduction buffer: the good one is removed,
    // the bad one declined, barriers stay (the reduction still needs them).
    let mut f = kernel(
        "__kernel void mix(__global float* in, __global float* out) {
             __local float stage[8];
             __local float acc[8];
             int lx = get_local_id(0);
             stage[lx] = in[lx];
             acc[lx] = in[lx + 8];
             barrier(CLK_LOCAL_MEM_FENCE);
             acc[lx] = acc[lx] + stage[7 - lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[lx] = acc[lx];
         }",
    );
    let report = Grover::new().run_on(&mut f);
    assert_eq!(report.removed_count(), 1, "{}", report.to_text());
    assert!(matches!(
        report.buffers[1].outcome,
        BufferOutcome::NotCandidate(_)
    ));
    assert!(f.local_mem_bytes() > 0);
    // Verify it still runs correctly.
    grover::ir::verify(&f).unwrap();
    let mut ctx = Context::new();
    let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
    let bi = ctx.buffer_f32(&data);
    let bo = ctx.zeros_f32(8);
    enqueue(
        &mut ctx,
        &f,
        &[ArgValue::Buffer(bi), ArgValue::Buffer(bo)],
        &NdRange::d1(8, 8),
        &mut NullSink,
        &Launch::default(),
    )
    .unwrap();
    let out = ctx.read_f32(bo);
    for lx in 0..8 {
        assert_eq!(out[lx], data[lx + 8] + data[7 - lx]);
    }
}

#[test]
fn empty_kernel_without_local_memory_is_noop() {
    let mut f = kernel("__kernel void nop(__global float* a) { a[0] = 1.0f; }");
    let before = f.num_insts();
    let report = Grover::new().run_on(&mut f);
    assert!(report.buffers.is_empty());
    assert_eq!(f.num_insts(), before);
}
