//! Cross-engine fault injection: under every [`FaultKind`] at every
//! [`FaultSite`], the interpreter and the bytecode engine must fail (or
//! succeed) the same way — same `Result`, bit-identical buffers, equal
//! [`LaunchStats`] — on a barrier kernel and on a barrier-free one.
//!
//! Instruction sites sweep every instruction count of the first work-item
//! (both halves of each fused `gep`+`load`/`store` included) and a few
//! later ones; launches run serially, where an instruction site is
//! deterministic. Needs the `fault-injection` feature, which this crate's
//! tests always enable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use grover_frontend::{compile, BuildOptions};
use grover_ir::Function;
use grover_runtime::fault::{FaultKind, FaultPlan, FaultSite, FaultTarget, Faults};
use grover_runtime::{
    enqueue, ArgValue, Backend, Context, ExecError, Launch, LaunchStats, NdRange, NullSink,
};

/// Work-groups of 8 items each.
const GROUPS: u64 = 4;

/// Tile reversal through `__local` memory: global load, local store,
/// barrier, local load, arithmetic, global store. The bytecode fuses the
/// local store with its `gep` but not the global one (its address is
/// computed before the value).
fn barrier_kernel() -> Function {
    kernel(
        "__kernel void fe_barrier(__global float* in, __global float* out) {
             __local float tile[8];
             int l = get_local_id(0);
             int g = get_global_id(0);
             float x = in[g] * 2.0f;
             tile[l] = x;
             barrier(CLK_LOCAL_MEM_FENCE);
             out[g] = tile[7 - l] + (float)l;
         }",
    )
}

/// Integer arithmetic with a loop, a fused global store and no barrier
/// (its work-items share one bytecode register file).
fn plain_kernel() -> Function {
    kernel(
        "__kernel void fe_plain(__global int* in, __global int* out) {
             int g = get_global_id(0);
             int acc = 0;
             for (int i = 0; i < 3; i++) {
                 acc += in[(g + i) % 32] * (i + 1);
             }
             int r = acc ^ g;
             out[g] = r;
         }",
    )
}

fn kernel(src: &str) -> Function {
    compile(src, &BuildOptions::new())
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .kernels
        .remove(0)
}

/// What one launch produced: its result (a panic out of `enqueue` as its
/// message) and every buffer's bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<LaunchStats, String>,
    buffers: Vec<Vec<u32>>,
}

fn run(k: &Function, backend: Backend, faults: &Faults) -> Outcome {
    let mut ctx = Context::new();
    let n = (GROUPS * 8) as usize;
    let float = k.name == "fe_barrier";
    let (input, output) = if float {
        let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 3.0).collect();
        (ctx.buffer_f32(&data), ctx.zeros_f32(n))
    } else {
        let data: Vec<i32> = (0..n as i32).map(|i| i * 7 - 40).collect();
        (ctx.buffer_i32(&data), ctx.zeros_i32(n))
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        enqueue(
            &mut ctx,
            k,
            &[ArgValue::Buffer(input), ArgValue::Buffer(output)],
            &NdRange::d1(GROUPS * 8, 8),
            &mut NullSink,
            &Launch {
                backend,
                faults: faults.clone(),
                ..Launch::default()
            },
        )
    }));
    let result = match result {
        Ok(r) => r.map_err(|e: ExecError| format!("{e:?}")),
        Err(p) => Err(format!(
            "panic: {}",
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        )),
    };
    let buffers = [input, output]
        .iter()
        .map(|&b| match ctx.try_read_f32(b) {
            Some(v) => v.iter().map(|x| x.to_bits()).collect(),
            None => ctx.read_i32(b).iter().map(|&x| x as u32).collect(),
        })
        .collect();
    Outcome { result, buffers }
}

fn kinds() -> Vec<FaultKind> {
    vec![
        FaultKind::Panic,
        FaultKind::Error(ExecError::Internal("injected".into())),
        FaultKind::Sleep(Duration::from_micros(50)),
        FaultKind::CorruptStores,
        FaultKind::OffsetGlobalLoads(3),
    ]
}

/// Every site kind: launch start, first/middle/last group, and
/// instruction counts across the first work-item and beyond.
fn sites(first_item_insts: u64) -> Vec<FaultSite> {
    let mut s = vec![
        FaultSite::LaunchStart,
        FaultSite::Group(0),
        FaultSite::Group(2),
        FaultSite::Group(GROUPS as u32 - 1),
    ];
    s.extend((1..=first_item_insts + 1).map(FaultSite::Instruction));
    s.extend([100, 333].map(FaultSite::Instruction));
    s
}

fn check(k: &Function) {
    let none = Faults::default();
    let clean = run(k, Backend::Interp, &none);
    let stats = clean.result.clone().expect("the unfaulted launch succeeds");
    assert_eq!(
        clean,
        run(k, Backend::Bytecode, &none),
        "{} without faults",
        k.name
    );
    let per_item = stats.instructions / stats.work_items;
    let mut faulted = 0;
    for kind in kinds() {
        for site in sites(per_item) {
            let faults = Faults::new(FaultPlan {
                target: FaultTarget::kernel(&k.name),
                site,
                kind: kind.clone(),
                max_fires: 0,
            });
            let interp = run(k, Backend::Interp, &faults);
            let bytecode = run(k, Backend::Bytecode, &faults);
            assert_eq!(interp, bytecode, "{} {kind:?} at {site:?}", k.name);
            faulted += usize::from(interp != clean);
        }
    }
    // The sweep must actually perturb launches, not just agree on clean runs.
    assert!(faulted > 40, "{}: only {faulted} faulted launches", k.name);
}

#[test]
fn engines_agree_under_every_fault_on_a_barrier_kernel() {
    check(&barrier_kernel());
}

#[test]
fn engines_agree_under_every_fault_on_a_barrier_free_kernel() {
    check(&plain_kernel());
}
