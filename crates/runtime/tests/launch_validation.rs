//! Launch validation: a kernel that fails `grover_ir::verify` is rejected
//! by every engine with the same error, before any instruction runs and
//! with the buffers untouched.

use grover_frontend::{compile, BuildOptions};
use grover_ir::printer::function_to_string;
use grover_ir::{parse_function, Function};
use grover_runtime::{
    enqueue, ArgValue, Backend, Context, CountingSink, ExecError, Launch, Limits, NdRange,
};

/// The text form of a small verified kernel, to break by editing.
fn scale_text() -> String {
    let module = compile(
        "__kernel void scale(__global float* a, float s) {
             int i = get_global_id(0);
             a[i] = a[i] * s + 1.0f;
         }",
        &BuildOptions::new(),
    )
    .unwrap_or_else(|e| panic!("compile: {e}"));
    function_to_string(module.kernel("scale").expect("kernel"))
}

fn parse(text: &str) -> Function {
    parse_function(text).unwrap_or_else(|e| panic!("parse: {e}\n---\n{text}"))
}

const INPUT: [f32; 4] = [1.0, 2.0, 3.0, 4.0];

/// Launch `k` on a fresh buffer; the result, the buffer afterwards and
/// what the sink saw.
fn launch(
    k: &Function,
    backend: Option<Backend>,
) -> (Result<(), ExecError>, Vec<f32>, CountingSink) {
    let mut ctx = Context::new();
    let a = ctx.buffer_f32(&INPUT);
    let args = [ArgValue::Buffer(a), ArgValue::F32(2.0)];
    let nd = NdRange::d1(4, 2);
    let mut sink = CountingSink::default();
    let limits = Limits::default();
    let res = match backend {
        None => enqueue(
            &mut ctx,
            k,
            &args,
            &nd,
            &mut sink,
            &Launch {
                limits,
                ..Launch::default()
            },
        ),
        Some(b) => enqueue(
            &mut ctx,
            k,
            &args,
            &nd,
            &mut sink,
            &Launch {
                limits,
                backend: b,
                ..Launch::default()
            },
        ),
    };
    (res.map(|_| ()), ctx.read_f32(a).to_vec(), sink)
}

fn assert_rejected(k: &Function, what: &str) {
    assert!(
        grover_ir::verify(k).is_err(),
        "{what}: the edit must break verify"
    );
    let (default, buf, sink) = launch(k, None);
    let err = default.expect_err(what);
    assert!(
        matches!(&err, ExecError::InvalidKernel(m) if m.contains(what)),
        "{what}: {err:?}"
    );
    assert_eq!(buf, INPUT, "{what}: buffer written");
    assert_eq!(
        (sink.instructions, sink.global_loads, sink.global_stores),
        (0, 0, 0),
        "{what}: instructions ran"
    );
    for backend in [Backend::Interp, Backend::Bytecode] {
        let (res, buf, sink) = launch(k, Some(backend));
        assert_eq!(res, Err(err.clone()), "{what}: {backend:?}");
        assert_eq!(buf, INPUT, "{what}: {backend:?} wrote the buffer");
        assert_eq!(sink.instructions, 0, "{what}: {backend:?} ran instructions");
    }
}

#[test]
fn the_unedited_kernel_runs() {
    let k = parse(&scale_text());
    let (res, buf, _) = launch(&k, Some(Backend::Interp));
    res.expect("verified kernel runs");
    assert_eq!(buf, [3.0, 5.0, 7.0, 9.0]);
    assert_eq!(launch(&k, None).1, buf);
}

#[test]
fn a_reachable_block_without_a_terminator_is_rejected() {
    let text = scale_text();
    assert!(text.contains("\n  ret\n"), "{text}");
    let k = parse(&text.replace("\n  ret\n", "\n"));
    assert_rejected(&k, "does not end in a terminator");
}

#[test]
fn an_ill_typed_bin_is_rejected() {
    let text = scale_text();
    assert!(text.contains(" = fmul f32 "), "{text}");
    // An integer multiply of two floats.
    let k = parse(&text.replacen(" = fmul f32 ", " = mul f32 ", 1));
    assert_rejected(&k, "int op mul on non-int f32");
}
