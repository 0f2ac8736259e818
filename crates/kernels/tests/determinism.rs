//! Parallel work-group scheduling must be unobservable: for every bundled
//! app and both kernel versions, `ExecPolicy::Parallel` produces output
//! buffers, `LaunchStats` and a merged trace stream bit-identical to
//! `ExecPolicy::Serial`.

use grover_kernels::{all_apps, prepare_pair, Scale};
use grover_runtime::{enqueue, BufferData, ExecPolicy, Launch, LaunchStats, NullSink, VecSink};

/// Output buffer as raw bits, so the comparison is bit-exact even for f32.
fn out_bits(p: &grover_kernels::Prepared) -> Vec<u64> {
    match p.ctx.data(p.out) {
        BufferData::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
        BufferData::I32(v) => v.iter().map(|&x| x as u32 as u64).collect(),
        BufferData::I64(v) => v.iter().map(|&x| x as u64).collect(),
    }
}

fn launch(
    kernel: &grover_ir::Function,
    app: &grover_kernels::App,
    policy: ExecPolicy,
) -> (LaunchStats, VecSink, Vec<u64>) {
    let mut prepared = (app.prepare)(Scale::Test);
    let mut sink = VecSink::default();
    let stats = enqueue(
        &mut prepared.ctx,
        kernel,
        &prepared.args,
        &prepared.nd,
        &mut sink,
        &Launch {
            policy,
            ..Launch::default()
        },
    )
    .unwrap_or_else(|e| panic!("{} under {policy:?}: {e}", app.id));
    let bits = out_bits(&prepared);
    (stats, sink, bits)
}

#[test]
fn parallel_matches_serial_across_app_suite() {
    for app in all_apps() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        for (version, kernel) in [
            ("original", &pair.original),
            ("transformed", &pair.transformed),
        ] {
            let (s_stats, s_sink, s_bits) = launch(kernel, &app, ExecPolicy::Serial);
            let (p_stats, p_sink, p_bits) =
                launch(kernel, &app, ExecPolicy::Parallel { threads: 4 });

            assert_eq!(s_stats, p_stats, "{} {version}: LaunchStats differ", app.id);
            assert_eq!(
                s_sink.barriers, p_sink.barriers,
                "{} {version}: barrier streams differ",
                app.id
            );
            assert_eq!(
                s_sink.events.len(),
                p_sink.events.len(),
                "{} {version}: event counts differ",
                app.id
            );
            for (i, (se, pe)) in s_sink.events.iter().zip(&p_sink.events).enumerate() {
                assert_eq!(se, pe, "{} {version}: trace event {i} differs", app.id);
            }
            assert_eq!(
                s_bits, p_bits,
                "{} {version}: output buffers differ",
                app.id
            );
        }
    }
}

#[test]
fn parallel_auto_and_single_worker_match_serial() {
    let app = grover_kernels::app_by_id("NVD-MT").unwrap();
    let pair = prepare_pair(&app, Scale::Test).unwrap();
    let (s_stats, s_sink, s_bits) = launch(&pair.original, &app, ExecPolicy::Serial);
    for policy in [
        ExecPolicy::parallel_auto(),
        ExecPolicy::Parallel { threads: 1 },
    ] {
        let (p_stats, p_sink, p_bits) = launch(&pair.original, &app, policy);
        assert_eq!(s_stats, p_stats, "{policy:?}");
        assert_eq!(s_sink.events, p_sink.events, "{policy:?}");
        assert_eq!(s_sink.barriers, p_sink.barriers, "{policy:?}");
        assert_eq!(s_bits, p_bits, "{policy:?}");
    }
}

#[test]
fn parallel_null_sink_still_produces_identical_outputs() {
    // NullSink opts out of event buffering (`wants_events`); the outputs
    // and stats must nevertheless match the serial run exactly.
    let app = grover_kernels::app_by_id("NVD-MM-AB").unwrap();
    let pair = prepare_pair(&app, Scale::Test).unwrap();

    let run = |policy| {
        let mut prepared = (app.prepare)(Scale::Test);
        let stats = enqueue(
            &mut prepared.ctx,
            &pair.original,
            &prepared.args,
            &prepared.nd,
            &mut NullSink,
            &Launch {
                policy,
                ..Launch::default()
            },
        )
        .unwrap();
        (stats, out_bits(&prepared))
    };
    let (s_stats, s_bits) = run(ExecPolicy::Serial);
    let (p_stats, p_bits) = run(ExecPolicy::Parallel { threads: 3 });
    assert_eq!(s_stats, p_stats);
    assert_eq!(s_bits, p_bits);
}
