//! Differential gate for the bytecode backend: every app, both kernel
//! versions, both schedules, must produce bit-identical output buffers,
//! identical launch statistics and identical trace tallies on the
//! interpreter and the bytecode backend — with an unlimited budget and
//! with budgets that run out anywhere in the launch.

use grover_ir::{Function, Inst};
use grover_kernels::{
    all_apps, extension_apps, prepare_pair, run_prepared, App, Expected, Prepared, Scale,
};
use grover_runtime::{
    enqueue, Backend, CountingSink, ExecError, ExecPolicy, Launch, LaunchStats, Limits, NullSink,
    OpProfile,
};

/// Output buffer as raw bits, so float comparison is bit-exact rather than
/// tolerance-based.
enum Bits {
    I32(Vec<i32>),
    F32(Vec<u32>),
}

impl PartialEq for Bits {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Bits::I32(a), Bits::I32(b)) => a == b,
            (Bits::F32(a), Bits::F32(b)) => a == b,
            _ => false,
        }
    }
}

struct Observed {
    bits: Bits,
    stats: LaunchStats,
    counts: CountingSink,
}

/// Run `kernel` on a fresh `Scale::Test` workload and read the output
/// buffer back bit-for-bit, whether or not the launch succeeded.
fn launch(
    app: &App,
    kernel: &Function,
    policy: ExecPolicy,
    backend: Backend,
    limits: &Limits,
    sink: &mut CountingSink,
) -> (Result<LaunchStats, ExecError>, Bits) {
    let Prepared {
        mut ctx,
        args,
        nd,
        out,
        expected,
        ..
    } = (app.prepare)(Scale::Test);
    let result = enqueue(
        &mut ctx,
        kernel,
        &args,
        &nd,
        sink,
        &Launch {
            limits: *limits,
            policy,
            backend,
            ..Launch::default()
        },
    );
    let bits = match expected {
        Expected::I32(_) => Bits::I32(ctx.read_i32(out).to_vec()),
        Expected::F32(_) => Bits::F32(ctx.read_f32(out).iter().map(|f| f.to_bits()).collect()),
    };
    (result, bits)
}

fn run_one(app: &App, kernel: &Function, policy: ExecPolicy, backend: Backend) -> Observed {
    let mut sink = CountingSink::default();
    let (result, bits) = launch(app, kernel, policy, backend, &Limits::default(), &mut sink);
    let stats = result.unwrap_or_else(|e| panic!("{} [{backend:?}/{policy:?}]: {e}", app.id));
    Observed {
        bits,
        stats,
        counts: sink,
    }
}

fn assert_identical(app: &App, kernel: &Function, which: &str, policy: ExecPolicy) {
    let a = run_one(app, kernel, policy, Backend::Interp);
    let b = run_one(app, kernel, policy, Backend::Bytecode);
    assert!(
        a.bits == b.bits,
        "{} {which} {policy:?}: output bits differ between backends",
        app.id
    );
    assert_eq!(
        a.stats, b.stats,
        "{} {which} {policy:?}: launch stats differ",
        app.id
    );
    let (ca, cb) = (&a.counts, &b.counts);
    assert_eq!(
        (ca.instructions, ca.barriers),
        (cb.instructions, cb.barriers),
        "{} {which} {policy:?}: instruction/barrier tallies differ",
        app.id
    );
    assert_eq!(
        (
            ca.global_loads,
            ca.global_stores,
            ca.local_loads,
            ca.local_stores
        ),
        (
            cb.global_loads,
            cb.global_stores,
            cb.local_loads,
            cb.local_stores
        ),
        "{} {which} {policy:?}: access tallies differ",
        app.id
    );
    assert_eq!(
        (ca.bytes_loaded, ca.bytes_stored),
        (cb.bytes_loaded, cb.bytes_stored),
        "{} {which} {policy:?}: byte tallies differ",
        app.id
    );
}

fn suite() -> Vec<App> {
    let mut apps = all_apps();
    apps.extend(extension_apps());
    assert!(apps.len() >= 12, "expected the full 12-app suite");
    apps
}

#[test]
fn all_apps_bit_identical_serial() {
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        assert_identical(&app, &pair.original, "original", ExecPolicy::Serial);
        assert_identical(&app, &pair.transformed, "transformed", ExecPolicy::Serial);
    }
}

#[test]
fn all_apps_bit_identical_parallel() {
    let policy = ExecPolicy::Parallel { threads: 2 };
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        assert_identical(&app, &pair.original, "original", policy);
        assert_identical(&app, &pair.transformed, "transformed", policy);
    }
}

#[test]
fn bytecode_validates_against_reference() {
    // Beyond matching the interpreter, the production engine must satisfy
    // the apps' own reference checks (exact for i32, tolerance for f32).
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        for kernel in [&pair.original, &pair.transformed] {
            let mut sink = grover_runtime::NullSink;
            run_prepared(kernel, (app.prepare)(Scale::Test), &mut sink)
                .unwrap_or_else(|e| panic!("{}: {e}", app.id));
        }
    }
}

/// Budget charge of the entry block's first straight-line run: its
/// instructions up to and including the first barrier or terminator.
/// Work-item 0 of group 0 executes it first, so a budget of exactly this
/// much runs out on a block or barrier boundary.
fn entry_run_charge(f: &Function) -> u64 {
    let insts = &f.block(f.entry).insts;
    let end = insts.iter().position(|&v| {
        matches!(
            f.inst(v),
            Some(Inst::Barrier { .. } | Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret)
        )
    });
    end.map_or(insts.len(), |i| i + 1) as u64
}

/// The budget limits a launch is probed with: tiny ones, the edges of the
/// launch total `T`, and two that end exactly on a block boundary (the
/// first run work-item 0 executes, and the last op of the whole launch —
/// phis count as instructions but spend no budget, so that is `T` minus
/// the launch's phi executions).
fn budget_limits(app: &App, kernel: &Function) -> Vec<u64> {
    let Prepared {
        mut ctx, args, nd, ..
    } = (app.prepare)(Scale::Test);
    let stats = enqueue(
        &mut ctx,
        kernel,
        &args,
        &nd,
        &mut NullSink,
        &Launch {
            profile: true,
            ..Launch::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}: {e}", app.id));
    let t = stats.instructions;
    let profile: &OpProfile = stats.profile.as_ref().expect("a profiled launch");
    let phis: u64 = profile
        .ops
        .iter()
        .filter(|o| o.kind == "phi")
        .map(|o| o.charged)
        .sum();
    let mut limits = vec![1, 2, 7, 64, t - 1, t, t + 1];
    limits.push(entry_run_charge(kernel));
    limits.push(t - phis);
    limits
}

/// Both engines under every budget of [`budget_limits`]: the same
/// `Result` (stats, or the error) and bit-identical output buffers, which
/// on a failed launch hold exactly the groups that ran before it stopped.
fn assert_budget_identical(app: &App, kernel: &Function, which: &str, policy: ExecPolicy) {
    for max_instructions in budget_limits(app, kernel) {
        let limits = Limits {
            max_instructions,
            deadline: None,
        };
        let mut sinks = [CountingSink::default(), CountingSink::default()];
        let (ra, ba) = launch(app, kernel, policy, Backend::Interp, &limits, &mut sinks[0]);
        let (rb, bb) = launch(
            app,
            kernel,
            policy,
            Backend::Bytecode,
            &limits,
            &mut sinks[1],
        );
        let at = format!(
            "{} {which} {policy:?} max_instructions={max_instructions}",
            app.id
        );
        assert_eq!(ra, rb, "{at}: results differ");
        assert!(ba == bb, "{at}: output bits differ");
        assert_eq!(
            (sinks[0].instructions, sinks[0].global_stores),
            (sinks[1].instructions, sinks[1].global_stores),
            "{at}: trace tallies differ"
        );
    }
}

#[test]
fn budget_exhaustion_identical_serial() {
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        assert_budget_identical(&app, &pair.original, "original", ExecPolicy::Serial);
        assert_budget_identical(&app, &pair.transformed, "transformed", ExecPolicy::Serial);
    }
}

/// The parallel engine with one worker: its claim-and-buffer path with a
/// fixed schedule. (With two workers a budget below one refill chunk is
/// claimed whole by whichever worker refills first, so which group hits
/// the limit depends on the schedule; `parallel_budget_outcomes_agree`
/// checks what stays fixed there.)
#[test]
fn budget_exhaustion_identical_parallel() {
    let policy = ExecPolicy::Parallel { threads: 1 };
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        assert_budget_identical(&app, &pair.original, "original", policy);
        assert_budget_identical(&app, &pair.transformed, "transformed", policy);
    }
}

/// Two workers under every probed budget: each engine either completes
/// with the unlimited run's statistics and output, or stops with
/// `InstructionLimit`.
#[test]
fn parallel_budget_outcomes_agree() {
    let policy = ExecPolicy::Parallel { threads: 2 };
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        for kernel in [&pair.original, &pair.transformed] {
            let full = run_one(&app, kernel, ExecPolicy::Serial, Backend::Interp);
            for max_instructions in budget_limits(&app, kernel) {
                let limits = Limits {
                    max_instructions,
                    deadline: None,
                };
                for backend in [Backend::Interp, Backend::Bytecode] {
                    let mut sink = CountingSink::default();
                    let (r, bits) = launch(&app, kernel, policy, backend, &limits, &mut sink);
                    let at = format!("{} {backend:?} max_instructions={max_instructions}", app.id);
                    match r {
                        Ok(stats) => {
                            assert_eq!(stats, full.stats, "{at}");
                            assert!(bits == full.bits, "{at}: output bits differ");
                        }
                        Err(e) => assert_eq!(e, ExecError::InstructionLimit, "{at}"),
                    }
                }
            }
        }
    }
}
