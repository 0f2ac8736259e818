//! Determinism and reconciliation gate for the per-opcode bytecode
//! profiler: for every app and both kernel versions, op counts must be
//! bit-identical across Serial and Parallel schedules, and the profile's
//! total charge must equal the launch's instruction tally on both the
//! bytecode engine itself and the reference interpreter.

use grover_kernels::{all_apps, extension_apps, prepare_pair, App, Scale};
use grover_runtime::{enqueue, Backend, ExecPolicy, Launch, NullSink, OpProfile};

fn suite() -> Vec<App> {
    let mut apps = all_apps();
    apps.extend(extension_apps());
    assert!(apps.len() >= 12, "expected the full 12-app suite");
    apps
}

fn profile_one(app: &App, kernel: &grover_ir::Function, policy: ExecPolicy) -> (u64, OpProfile) {
    let p = (app.prepare)(Scale::Test);
    let mut ctx = p.ctx;
    let stats = enqueue(
        &mut ctx,
        kernel,
        &p.args,
        &p.nd,
        &mut NullSink,
        &Launch {
            policy,
            profile: true,
            ..Launch::default()
        },
    )
    .unwrap_or_else(|e| panic!("{} [{:?}]: {e}", app.id, policy));
    let profile = stats
        .profile
        .expect("a profiled launch returns its profile");
    (stats.instructions, profile)
}

/// The reference interpreter's instruction tally for the same launch.
fn interp_instructions(app: &App, kernel: &grover_ir::Function) -> u64 {
    let p = (app.prepare)(Scale::Test);
    let mut ctx = p.ctx;
    enqueue(
        &mut ctx,
        kernel,
        &p.args,
        &p.nd,
        &mut NullSink,
        &Launch {
            backend: Backend::Interp,
            ..Launch::default()
        },
    )
    .unwrap_or_else(|e| panic!("{} [interp]: {e}", app.id))
    .instructions
}

#[test]
fn profile_identical_across_schedules_and_reconciles_with_stats() {
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        for (which, kernel) in [
            ("original", &pair.original),
            ("transformed", &pair.transformed),
        ] {
            let (insts_serial, prof_serial) = profile_one(&app, kernel, ExecPolicy::Serial);
            let (insts_par, prof_par) =
                profile_one(&app, kernel, ExecPolicy::Parallel { threads: 2 });

            // Bit-identical under any schedule: merging per-worker counters
            // is plain addition, so the work-group partition cannot show.
            assert_eq!(
                prof_serial, prof_par,
                "{} {which}: profile differs between Serial and Parallel",
                app.id
            );

            // Exact reconciliation with the launch's own instruction tally.
            assert_eq!(
                prof_serial.total_charged, insts_serial,
                "{} {which}: total_charged != LaunchStats.instructions (bytecode)",
                app.id
            );
            assert_eq!(insts_serial, insts_par, "{} {which}: stats differ", app.id);

            // ... and with the reference interpreter's tally, which counts
            // original IR instructions (fused ops charged twice, phis once).
            assert_eq!(
                prof_serial.total_charged,
                interp_instructions(&app, kernel),
                "{} {which}: total_charged != interpreter instruction tally",
                app.id
            );

            // Internal consistency: rows sum to the totals, blocks too.
            assert_eq!(
                prof_serial.ops.iter().map(|o| o.count).sum::<u64>(),
                prof_serial.total_count,
                "{} {which}: op rows do not sum to total_count",
                app.id
            );
            assert_eq!(
                prof_serial.ops.iter().map(|o| o.charged).sum::<u64>(),
                prof_serial.total_charged,
                "{} {which}: op rows do not sum to total_charged",
                app.id
            );
            assert_eq!(
                prof_serial.blocks.iter().map(|b| b.charged).sum::<u64>(),
                prof_serial.total_charged,
                "{} {which}: block rows do not sum to total_charged",
                app.id
            );
            assert!(
                prof_serial.total_count > 0,
                "{} {which}: empty profile",
                app.id
            );
        }
    }
}
