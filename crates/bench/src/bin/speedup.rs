//! Wall-clock speedups of the launch engine: runs benchmark kernels
//! serially on the tree-walking interpreter, serially on the compiled
//! register-bytecode backend, and with `ExecPolicy::Parallel`, and emits
//! median-of-N timings (with warm-up) as JSON on stdout.
//!
//! ```text
//! cargo run -p grover-bench --release --bin speedup [-- --threads N] [--samples N]
//! ```
//!
//! `--threads 0` (the default) uses one worker per available CPU. The
//! scale comes from `GROVER_SCALE` (`test` | `small` | `paper`).
//!
//! Per app the report carries `serial_ms` (interpreter), `parallel_ms`,
//! `bytecode_ms`, the parallel `speedup` (serial/parallel) and
//! `bytecode_speedup` — the interpreter/bytecode launch-throughput ratio
//! that gates the bytecode backend's performance claim.

use std::time::{Duration, Instant};

use grover_bench::scale_from_env;
use grover_kernels::{app_by_id, prepare_pair, Scale};
use grover_obs::json::{array, Obj};
use grover_runtime::{enqueue, Backend, ExecPolicy, Launch, NullSink};

/// Apps whose launches are large enough to amortise thread start-up — and
/// interpreter-bound enough that dispatch overhead dominates.
const APPS: [&str; 3] = ["NVD-MT", "NVD-MM-AB", "NVD-NBody"];
const DEFAULT_SAMPLES: usize = 5;

fn median_time(
    kernel: &grover_ir::Function,
    app: &grover_kernels::App,
    scale: Scale,
    policy: ExecPolicy,
    backend: Backend,
    samples: usize,
) -> Duration {
    let mut times = Vec::with_capacity(samples);
    for i in 0..=samples {
        // Workload creation (input generation, reference run) stays
        // outside the timed region.
        let mut prepared = (app.prepare)(scale);
        let t = Instant::now();
        enqueue(
            &mut prepared.ctx,
            kernel,
            &prepared.args,
            &prepared.nd,
            &mut NullSink,
            &Launch {
                policy,
                backend,
                ..Launch::default()
            },
        )
        .expect("launch failed");
        if i > 0 {
            // First iteration is warm-up.
            times.push(t.elapsed());
        }
    }
    times.sort();
    times[times.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 0usize;
    let mut samples = DEFAULT_SAMPLES;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => threads = n,
                None => {
                    eprintln!("error: --threads needs an integer");
                    std::process::exit(2);
                }
            },
            "--samples" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => samples = n,
                _ => {
                    eprintln!("error: --samples needs a positive integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unexpected argument `{other}`");
                eprintln!("usage: speedup [--threads N] [--samples N]");
                std::process::exit(2);
            }
        }
    }
    let scale = scale_from_env();
    let parallel = ExecPolicy::Parallel { threads };
    let workers = parallel.worker_count();

    let mut rows = Vec::new();
    for id in APPS {
        let app = app_by_id(id).expect("bundled app");
        let pair = prepare_pair(&app, scale).expect("prepare failed");
        let time =
            |policy, backend| median_time(&pair.original, &app, scale, policy, backend, samples);
        let serial = time(ExecPolicy::Serial, Backend::Interp);
        let par = time(parallel, Backend::Interp);
        let bytecode = time(ExecPolicy::Serial, Backend::Bytecode);
        let speedup = serial.as_secs_f64() / par.as_secs_f64().max(1e-12);
        let bc_speedup = serial.as_secs_f64() / bytecode.as_secs_f64().max(1e-12);
        eprintln!(
            "{id:<10} serial {serial:>10.3?}  parallel({workers}) {par:>10.3?}  speedup {speedup:.2}x  \
             bytecode {bytecode:>10.3?}  bytecode-speedup {bc_speedup:.2}x"
        );
        rows.push(
            Obj::new()
                .str("app", id)
                .raw("serial_ms", &format!("{:.3}", serial.as_secs_f64() * 1e3))
                .raw("parallel_ms", &format!("{:.3}", par.as_secs_f64() * 1e3))
                .raw(
                    "bytecode_ms",
                    &format!("{:.3}", bytecode.as_secs_f64() * 1e3),
                )
                .raw("speedup", &format!("{speedup:.3}"))
                .raw("bytecode_speedup", &format!("{bc_speedup:.3}"))
                .finish(),
        );
    }

    let report = Obj::new()
        .str("scale", &format!("{scale:?}"))
        .u64("threads", workers as u64)
        .u64(
            "available_parallelism",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1) as u64,
        )
        .u64("samples", samples as u64)
        .raw("kernels", &array(rows))
        .finish();
    println!("{report}");
}
