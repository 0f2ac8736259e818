//! Quickstart: compile the paper's motivating Matrix Transpose kernel
//! (Fig. 1a), run Grover to disable its local memory (Fig. 1b), execute
//! both versions and check they agree.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use grover::frontend::{compile, BuildOptions};
use grover::ir::printer::function_to_string;
use grover::pass::Grover;
use grover::runtime::{enqueue, ArgValue, Context, Launch, NdRange, NullSink};

const MT: &str = r#"
// Paper Fig. 1(a): local memory stages a tile so both the read and the
// write side stay coalesced on GPUs.
__kernel void mt(__global float* in, __global float* out, int w) {
    __local float lm[S][S];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    lm[ly][lx] = in[(wy * S + ly) * w + (wx * S + lx)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[(wx * S + ly) * w + (wy * S + lx)] = lm[lx][ly];
}
"#;

fn main() {
    let opts = BuildOptions::new().define("S", 16);
    let module = compile(MT, &opts).expect("compile");
    let original = module.kernel("mt").expect("kernel").clone();

    // Run the Grover pass.
    let mut transformed = original.clone();
    let report = Grover::new().run_on(&mut transformed);
    println!("=== Grover report ===\n{}", report.to_text());
    assert!(report.all_removed());

    println!("=== transformed kernel (paper Fig. 1b) ===");
    println!("{}", function_to_string(&transformed));

    // Execute both versions on a 64x64 transpose and compare.
    let n = 64usize;
    let input: Vec<f32> = (0..n * n).map(|i| i as f32).collect();

    let run = |kernel: &grover::ir::Function| -> Vec<f32> {
        let mut ctx = Context::new();
        let bi = ctx.buffer_f32(&input);
        let bo = ctx.zeros_f32(n * n);
        enqueue(
            &mut ctx,
            kernel,
            &[
                ArgValue::Buffer(bi),
                ArgValue::Buffer(bo),
                ArgValue::I32(n as i32),
            ],
            &NdRange::d2(n as u64, n as u64, 16, 16),
            &mut NullSink,
            &Launch::default(),
        )
        .expect("run");
        ctx.read_f32(bo).to_vec()
    };

    let a = run(&original);
    let b = run(&transformed);
    assert_eq!(a, b, "the transformation changed the kernel's result!");
    // Spot-check the transpose itself.
    assert_eq!(a[5 * n + 3], input[3 * n + 5]);
    println!("both versions agree on a {n}x{n} transpose — transformation is correct.");
}
