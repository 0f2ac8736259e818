//! Compile-transform-run-validate plumbing shared by tests, examples and
//! the benchmark harness.

use grover_core::{Grover, GroverReport};
use grover_frontend::compile;
use grover_ir::Function;
use grover_runtime::{enqueue, Context, Launch, LaunchStats, TraceSink};

use crate::apps::{App, Expected, Prepared, Scale};

/// A benchmark's kernel in both versions.
pub struct KernelPair {
    /// The original kernel (with local memory).
    pub original: Function,
    /// The Grover-transformed kernel (local memory disabled).
    pub transformed: Function,
    /// What Grover did (symbolic indices, outcomes).
    pub report: GroverReport,
}

/// Compile an app and run Grover on it.
///
/// Both kernel versions are run through the standard optimisation pipeline
/// (GVN + LICM + cleanup) before being compared — the stand-in for the
/// vendor compiler's `-O` level in the paper's measurement pipeline, so
/// the np ratios compare optimised code against optimised code.
pub fn prepare_pair(app: &App, scale: Scale) -> Result<KernelPair, String> {
    let opts = (app.options)(scale);
    let module = compile(app.source, &opts).map_err(|e| format!("{}: compile: {e}", app.id))?;
    let mut original = module
        .kernel(app.kernel)
        .ok_or_else(|| format!("{}: kernel `{}` missing", app.id, app.kernel))?
        .clone();
    let mut transformed = original.clone();
    let grover = match app.disable {
        Some(bufs) => Grover::for_buffers(bufs),
        None => Grover::new(),
    };
    let report = grover.run_on(&mut transformed);
    if !report.all_removed() {
        return Err(format!(
            "{}: Grover declined:\n{}",
            app.id,
            report.to_text()
        ));
    }
    grover_ir::passes::PassManager::optimize_pipeline().run_to_fixpoint(&mut original, 8);
    grover_ir::passes::PassManager::optimize_pipeline().run_to_fixpoint(&mut transformed, 8);
    grover_ir::verify(&original)
        .map_err(|e| format!("{}: optimised original IR invalid: {e:?}", app.id))?;
    grover_ir::verify(&transformed)
        .map_err(|e| format!("{}: transformed IR invalid: {e:?}", app.id))?;
    Ok(KernelPair {
        original,
        transformed,
        report,
    })
}

/// Result of one run.
pub struct AppRun {
    /// Launch statistics.
    pub stats: LaunchStats,
    /// Maximum relative error against the reference output.
    pub max_rel_err: f32,
}

/// Launch a kernel on a freshly prepared workload, stream the trace to
/// `sink`, and compare the output buffer to the reference.
pub fn run_prepared(
    kernel: &Function,
    prepared: Prepared,
    sink: &mut dyn TraceSink,
) -> Result<AppRun, String> {
    run_prepared_with(kernel, prepared, sink, &Launch::default())
}

/// [`run_prepared`] under an explicit [`Launch`]: a work-group schedule,
/// and with an enabled recorder one `launch` span carrying per-space
/// access counts, bytes and worker utilisation (see
/// [`grover_runtime::enqueue`]).
pub fn run_prepared_with(
    kernel: &Function,
    mut prepared: Prepared,
    sink: &mut dyn TraceSink,
    launch: &Launch,
) -> Result<AppRun, String> {
    let stats = enqueue(
        &mut prepared.ctx,
        kernel,
        &prepared.args,
        &prepared.nd,
        sink,
        launch,
    )
    .map_err(|e| format!("execution failed: {e}"))?;
    finish_run(prepared, stats)
}

fn finish_run(prepared: Prepared, stats: LaunchStats) -> Result<AppRun, String> {
    let max_rel_err = compare(&prepared.ctx, &prepared)?;
    if max_rel_err > prepared.tolerance {
        return Err(format!(
            "output mismatch: max relative error {max_rel_err} > tolerance {}",
            prepared.tolerance
        ));
    }
    Ok(AppRun { stats, max_rel_err })
}

fn compare(ctx: &Context, p: &Prepared) -> Result<f32, String> {
    match &p.expected {
        Expected::I32(exp) => {
            let got = ctx.read_i32(p.out);
            if got.len() != exp.len() {
                return Err("output length mismatch".into());
            }
            for (i, (g, e)) in got.iter().zip(exp).enumerate() {
                if g != e {
                    return Err(format!("element {i}: got {g}, expected {e}"));
                }
            }
            Ok(0.0)
        }
        Expected::F32(exp) => {
            let got = ctx.read_f32(p.out);
            if got.len() != exp.len() {
                return Err("output length mismatch".into());
            }
            let mut worst = 0.0f32;
            for (i, (g, e)) in got.iter().zip(exp).enumerate() {
                let denom = e.abs().max(1.0);
                let rel = (g - e).abs() / denom;
                if !rel.is_finite() {
                    return Err(format!("element {i}: got {g}, expected {e}"));
                }
                worst = worst.max(rel);
            }
            Ok(worst)
        }
    }
}

/// Full validation of one app: both kernel versions must run and match the
/// scalar reference (the paper's correctness claim for Table III).
pub fn validate_app(app: &App, scale: Scale) -> Result<KernelPair, String> {
    let pair = prepare_pair(app, scale)?;
    let mut null = grover_runtime::NullSink;
    run_prepared(&pair.original, (app.prepare)(scale), &mut null)
        .map_err(|e| format!("{} original: {e}", app.id))?;
    run_prepared(&pair.transformed, (app.prepare)(scale), &mut null)
        .map_err(|e| format!("{} transformed: {e}", app.id))?;
    Ok(pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::all_apps;
    use grover_runtime::CountingSink;

    #[test]
    fn every_app_compiles_and_transforms() {
        for app in all_apps() {
            let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
            // The transformed version must not allocate selected local bufs.
            match app.disable {
                None => assert_eq!(
                    pair.transformed.local_mem_bytes(),
                    0,
                    "{}: local memory remains",
                    app.id
                ),
                Some(bufs) => {
                    for b in bufs {
                        let lb = pair
                            .transformed
                            .local_bufs()
                            .iter()
                            .find(|l| &l.name == b)
                            .unwrap();
                        assert_eq!(lb.len(), 0, "{}: buffer {b} remains", app.id);
                    }
                }
            }
        }
    }

    #[test]
    fn every_app_validates_both_versions() {
        for app in all_apps() {
            validate_app(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn transformed_versions_have_no_local_traffic() {
        for app in all_apps() {
            if app.disable.is_some() && app.id != "NVD-MM-AB" {
                continue; // partial variants legitimately keep local traffic
            }
            let pair = prepare_pair(&app, Scale::Test).unwrap();
            let mut sink = CountingSink::default();
            run_prepared(&pair.transformed, (app.prepare)(Scale::Test), &mut sink)
                .unwrap_or_else(|e| panic!("{}: {e}", app.id));
            assert_eq!(sink.local_loads, 0, "{}", app.id);
            assert_eq!(sink.local_stores, 0, "{}", app.id);
            assert_eq!(sink.barriers, 0, "{}: barriers remain", app.id);
        }
    }

    #[test]
    fn original_versions_do_use_local_memory() {
        for app in all_apps() {
            let pair = prepare_pair(&app, Scale::Test).unwrap();
            let mut sink = CountingSink::default();
            run_prepared(&pair.original, (app.prepare)(Scale::Test), &mut sink)
                .unwrap_or_else(|e| panic!("{}: {e}", app.id));
            assert!(sink.local_stores > 0, "{}: no local stores?", app.id);
            assert!(sink.local_loads > 0, "{}: no local loads?", app.id);
            assert!(sink.barriers > 0, "{}: no barriers?", app.id);
        }
    }

    #[test]
    fn partial_mm_variants_keep_other_tile() {
        let app = crate::apps::app_by_id("NVD-MM-A").unwrap();
        let pair = prepare_pair(&app, Scale::Test).unwrap();
        let mut sink = CountingSink::default();
        run_prepared(&pair.transformed, (app.prepare)(Scale::Test), &mut sink).unwrap();
        // tile B still staged -> local traffic and barriers remain.
        assert!(sink.local_stores > 0);
        assert!(sink.barriers > 0);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::apps::extension_apps;
    use grover_runtime::CountingSink;

    #[test]
    fn convolution_transforms_with_nine_loads() {
        let app = &extension_apps()[0];
        let pair = prepare_pair(app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(pair.transformed.local_mem_bytes(), 0);
        // 9 local loads rewired (the 3x3 window), all solved from the
        // interior staging pair despite 9 distinct (GL, LS) passes.
        assert_eq!(
            pair.report.buffers[0].ngl.len(),
            1,
            "one LL site in the loop nest"
        );
        assert_eq!(pair.report.buffers[0].solutions.len(), 1);
    }

    #[test]
    fn convolution_validates_both_versions() {
        let app = &extension_apps()[0];
        validate_app(app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn convolution_transformed_has_no_local_traffic() {
        let app = &extension_apps()[0];
        let pair = prepare_pair(app, Scale::Test).unwrap();
        let mut sink = CountingSink::default();
        run_prepared(&pair.transformed, (app.prepare)(Scale::Test), &mut sink).unwrap();
        assert_eq!(sink.local_loads + sink.local_stores, 0);
        assert_eq!(sink.barriers, 0);
    }
}
