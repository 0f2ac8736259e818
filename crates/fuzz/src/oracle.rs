//! The differential oracle.
//!
//! For a must-transform kernel: run the Grover pass, demand every local
//! buffer is removed, then execute the original and the transformed kernel
//! on the reference interpreter under both the serial and the parallel
//! work-group schedule and compare the output buffers *bit for bit* (f32
//! bit patterns, not approximate equality — the rewrite replaces loads, it
//! must not perturb arithmetic). Both kernels then run once more on the
//! production bytecode engine, which must reproduce the interpreter's bits.
//!
//! For a must-reject kernel: run the pass, demand the named buffer survives
//! with the expected [`BufferOutcome`] kind and reason, and demand the IR is
//! left byte-identical (a refusal must not half-rewrite the kernel). Reject
//! kernels are never executed — several are deliberately out-of-bounds or
//! UB under divergence.

use crate::gen::Gen;
use crate::spec::{ExecShape, KernelSpec};
use grover_core::{apply_sequence, Grover, GroverOptions, PassId, Sequence};
use grover_frontend::{compile, BuildOptions};
use grover_ir::printer::function_to_string;
use grover_ir::Function;
use grover_runtime::fault::Faults;
use grover_runtime::{enqueue, ArgValue, Backend, Context, ExecPolicy, Launch, NdRange, NullSink};

/// What a kernel is expected to do under the pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// All local buffers removed; original and transformed agree bit-exactly.
    Transform,
    /// The pass refuses with this `BufferOutcome::kind()` and a reason
    /// containing this substring.
    Reject { kind: String, reason: String },
}

/// Why a case failed. Each kind corresponds to a distinct broken invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The generated/replayed source did not compile (generator bug).
    CompileError,
    /// A must-transform kernel was not fully rewritten.
    Declined,
    /// Original and transformed outputs differ.
    Mismatch,
    /// Execution of either version failed.
    ExecError,
    /// A must-reject kernel was rewritten.
    AcceptedMustReject,
    /// A must-reject kernel was refused, but with the wrong kind/reason.
    WrongOutcome,
    /// A refusal modified the IR.
    IrChanged,
    /// A randomly drawn pass sequence produced output that differs from
    /// the interpreter baseline of the original kernel.
    SequenceMismatch,
}

impl FailureKind {
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::CompileError => "compile-error",
            FailureKind::Declined => "declined",
            FailureKind::Mismatch => "mismatch",
            FailureKind::ExecError => "exec-error",
            FailureKind::AcceptedMustReject => "accepted-must-reject",
            FailureKind::WrongOutcome => "wrong-outcome",
            FailureKind::IrChanged => "ir-changed",
            FailureKind::SequenceMismatch => "sequence-mismatch",
        }
    }
}

/// Draw one random *legal* pass sequence: `local-removal` first (the
/// legality root every cleanup pass declares as a precondition), then a
/// uniformly shuffled prefix of the cleanup passes. Covers all 16 legal
/// shapes, from bare `local-removal` to every 4-pass permutation.
pub fn random_sequence(g: &mut Gen) -> Sequence {
    let mut tail = [PassId::BarrierElim, PassId::IndexSimplify, PassId::Remap];
    for i in (1..tail.len()).rev() {
        let j = (g.next_u64() % (i as u64 + 1)) as usize;
        tail.swap(i, j);
    }
    let keep = g.int(0, tail.len() as i64 + 1) as usize;
    let mut ids = vec![PassId::LocalRemoval];
    ids.extend(tail.into_iter().take(keep));
    Sequence::new(ids).expect("local-removal-first sequences are legal")
}

/// A failed case: the broken invariant plus a human-readable detail line.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    pub detail: String,
}

/// Result of running one kernel through the oracle.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    /// Transformed and verified bit-exact under both schedules.
    Transformed,
    /// Refused with the expected kind and reason, IR untouched.
    Rejected,
    Failed(Failure),
}

impl CaseOutcome {
    pub fn failure(&self) -> Option<&Failure> {
        match self {
            CaseOutcome::Failed(f) => Some(f),
            _ => None,
        }
    }
}

fn fail(kind: FailureKind, detail: impl Into<String>) -> CaseOutcome {
    CaseOutcome::Failed(Failure {
        kind,
        detail: detail.into(),
    })
}

/// Deterministic input: small non-negative integers, all exactly
/// representable in f32, so float sums are reproducible and casts to `int`
/// (used by poison kernels) are well-defined.
pub fn deterministic_input(len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i * 13 + 7) % 61) as f32).collect()
}

fn nd_range(shape: &ExecShape) -> NdRange {
    if shape.global[1] <= 1 {
        NdRange::d1(shape.global[0] as u64, shape.local[0] as u64)
    } else {
        NdRange::d2(
            shape.global[0] as u64,
            shape.global[1] as u64,
            shape.local[0] as u64,
            shape.local[1] as u64,
        )
    }
}

/// Execute a kernel over the deterministic input; returns the output buffer.
pub fn run_kernel(
    kernel: &Function,
    shape: &ExecShape,
    launch: &Launch,
) -> Result<Vec<f32>, String> {
    let mut ctx = Context::new();
    let bi = ctx.buffer_f32(&deterministic_input(shape.in_len));
    let bo = ctx.zeros_f32(shape.out_len);
    enqueue(
        &mut ctx,
        kernel,
        &[
            ArgValue::Buffer(bi),
            ArgValue::Buffer(bo),
            ArgValue::I32(shape.w as i32),
        ],
        &nd_range(shape),
        &mut NullSink,
        launch,
    )
    .map_err(|e| e.to_string())?;
    Ok(ctx.read_f32(bo).to_vec())
}

fn first_bit_diff(a: &[f32], b: &[f32]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    (0..a.len()).find(|&i| a[i].to_bits() != b[i].to_bits())
}

/// Run one kernel source through the full pipeline and judge it against
/// `expect`. `shape` is required for `Expectation::Transform`. A transform
/// case is a three-way check: original-interp vs transformed-interp (both
/// schedules) vs both kernels on the bytecode engine, all bit-exact.
/// Reject cases are never executed.
pub fn check_source(src: &str, expect: &Expectation, shape: Option<&ExecShape>) -> CaseOutcome {
    check_source_seqs(src, expect, shape, &[], &Faults::default())
}

/// [`check_source`] plus extra *sequence legs*: each sequence in
/// `seqs` is applied to a fresh copy of the original kernel and must agree
/// bit-exactly with the interpreter baseline under both schedules
/// (transform cases) or leave the IR byte-identical (reject cases — every
/// cleanup pass gates on a removal actually happening). Every launch
/// carries `faults`.
pub fn check_source_seqs(
    src: &str,
    expect: &Expectation,
    shape: Option<&ExecShape>,
    seqs: &[Sequence],
    faults: &Faults,
) -> CaseOutcome {
    let module = match compile(src, &BuildOptions::new()) {
        Ok(m) => m,
        Err(e) => return fail(FailureKind::CompileError, e.to_string()),
    };
    let Some(original) = module.kernels.first() else {
        return fail(FailureKind::CompileError, "source defines no kernel");
    };
    let mut transformed = original.clone();
    let report = Grover::new().run_on(&mut transformed);

    match expect {
        Expectation::Reject { kind, reason } => {
            if report.all_removed() {
                return fail(
                    FailureKind::AcceptedMustReject,
                    format!(
                        "pass removed all buffers of a must-reject kernel:\n{}",
                        report.to_text()
                    ),
                );
            }
            let Some(buf) = report
                .buffers
                .iter()
                .find(|b| b.outcome.kind() != "removed")
            else {
                return fail(
                    FailureKind::WrongOutcome,
                    "no surviving buffer in report".to_string(),
                );
            };
            let got_kind = buf.outcome.kind();
            let got_reason = buf.outcome.reason().unwrap_or_default();
            if got_kind != kind || !got_reason.contains(reason.as_str()) {
                return fail(
                    FailureKind::WrongOutcome,
                    format!(
                        "buffer `{}`: expected kind `{kind}` with reason containing `{reason}`, \
                         got kind `{got_kind}` reason `{got_reason}`",
                        buf.buffer
                    ),
                );
            }
            // A refusal must leave the kernel byte-identical.
            if function_to_string(&transformed) != function_to_string(original) {
                return fail(
                    FailureKind::IrChanged,
                    format!("pass modified IR of a refused kernel (`{}`)", buf.buffer),
                );
            }
            // And so must every legal sequence: cleanup passes gate on a
            // removal having happened, so a refused kernel stays untouched
            // no matter which passes run after local-removal.
            for seq in seqs {
                let mut seq_kernel = original.clone();
                apply_sequence(&mut seq_kernel, seq, &GroverOptions::default());
                if function_to_string(&seq_kernel) != function_to_string(original) {
                    return fail(
                        FailureKind::IrChanged,
                        format!("sequence `{seq}` modified IR of a refused kernel"),
                    );
                }
            }
            CaseOutcome::Rejected
        }
        Expectation::Transform => {
            if !report.all_removed() {
                return fail(
                    FailureKind::Declined,
                    format!(
                        "pass declined a must-transform kernel:\n{}",
                        report.to_text()
                    ),
                );
            }
            let Some(shape) = shape else {
                return fail(
                    FailureKind::ExecError,
                    "transform expectation needs launch geometry".to_string(),
                );
            };
            let policies = [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 2 }];
            let on = |policy, backend| Launch {
                policy,
                backend,
                faults: faults.clone(),
                ..Launch::default()
            };
            let mut reference: Option<Vec<f32>> = None;
            for policy in policies {
                let orig = match run_kernel(original, shape, &on(policy, Backend::Interp)) {
                    Ok(v) => v,
                    Err(e) => {
                        return fail(
                            FailureKind::ExecError,
                            format!("original ({policy:?}): {e}"),
                        )
                    }
                };
                let trans = match run_kernel(&transformed, shape, &on(policy, Backend::Interp)) {
                    Ok(v) => v,
                    Err(e) => {
                        return fail(
                            FailureKind::ExecError,
                            format!("transformed ({policy:?}): {e}"),
                        )
                    }
                };
                if let Some(i) = first_bit_diff(&orig, &trans) {
                    return fail(
                        FailureKind::Mismatch,
                        format!(
                            "original vs transformed differ at [{i}] under {policy:?}: {} vs {}",
                            orig.get(i).copied().unwrap_or(f32::NAN),
                            trans.get(i).copied().unwrap_or(f32::NAN),
                        ),
                    );
                }
                // Schedules must agree with each other, too.
                match &reference {
                    None => reference = Some(orig),
                    Some(r) => {
                        if let Some(i) = first_bit_diff(r, &orig) {
                            return fail(
                                FailureKind::Mismatch,
                                format!("serial vs parallel schedules differ at [{i}]"),
                            );
                        }
                    }
                }
            }
            // Third leg: re-execute both kernels on the production bytecode
            // engine and demand bit-identity with the interpreter reference.
            let reference = reference.expect("policies is non-empty");
            let bytecode = on(ExecPolicy::Serial, Backend::Bytecode);
            for (which, kernel) in [("original", original), ("transformed", &transformed)] {
                let alt = match run_kernel(kernel, shape, &bytecode) {
                    Ok(v) => v,
                    Err(e) => {
                        return fail(FailureKind::ExecError, format!("{which} (bytecode): {e}"))
                    }
                };
                if let Some(i) = first_bit_diff(&reference, &alt) {
                    return fail(
                        FailureKind::Mismatch,
                        format!(
                            "engines differ: {which} interp vs bytecode at [{i}]: {} vs {}",
                            reference.get(i).copied().unwrap_or(f32::NAN),
                            alt.get(i).copied().unwrap_or(f32::NAN),
                        ),
                    );
                }
            }
            // Sequence legs: every drawn legal sequence must compute the
            // interpreter baseline bit-exactly under both schedules.
            for seq in seqs {
                let mut seq_kernel = original.clone();
                let pr = apply_sequence(&mut seq_kernel, seq, &GroverOptions::default());
                if !pr.report.all_removed() {
                    return fail(
                        FailureKind::Declined,
                        format!("sequence `{seq}` declined a must-transform kernel"),
                    );
                }
                for policy in policies {
                    let out = match run_kernel(&seq_kernel, shape, &on(policy, Backend::Interp)) {
                        Ok(v) => v,
                        Err(e) => {
                            return fail(
                                FailureKind::ExecError,
                                format!("sequence `{seq}` ({policy:?}): {e}"),
                            )
                        }
                    };
                    if let Some(i) = first_bit_diff(&reference, &out) {
                        return fail(
                            FailureKind::SequenceMismatch,
                            format!(
                                "sequence `{seq}` differs from baseline at [{i}] under \
                                 {policy:?}: {} vs {}",
                                reference.get(i).copied().unwrap_or(f32::NAN),
                                out.get(i).copied().unwrap_or(f32::NAN),
                            ),
                        );
                    }
                }
            }
            CaseOutcome::Transformed
        }
    }
}

/// Expectation implied by a spec's poison (or lack of one).
pub fn expectation_of(spec: &KernelSpec) -> Expectation {
    match spec.poison {
        None => Expectation::Transform,
        Some(p) => Expectation::Reject {
            kind: p.expected_kind().to_string(),
            reason: p.expected_reason().to_string(),
        },
    }
}

/// Render and judge a spec.
pub fn check_spec(spec: &KernelSpec) -> CaseOutcome {
    check_spec_seqs(spec, &[], &Faults::default())
}

/// [`check_spec`] with extra sequence legs and a fault plan (see
/// [`check_source_seqs`]).
pub fn check_spec_seqs(spec: &KernelSpec, seqs: &[Sequence], faults: &Faults) -> CaseOutcome {
    let shape = spec.exec_shape();
    check_source_seqs(
        &spec.render(),
        &expectation_of(spec),
        Some(&shape),
        seqs,
        faults,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Gen;
    use crate::spec::{BufSpec, Poison, ReadMap, ALL_POISONS};

    fn base_spec() -> KernelSpec {
        KernelSpec {
            dims: 1,
            tx: 4,
            ty: 1,
            gx_groups: 2,
            gy_groups: 1,
            goff: 0,
            bufs: vec![BufSpec {
                map: ReadMap::Identity,
                ox: 0,
                oy: 0,
                halo: false,
                taps: Vec::new(),
                loop_read: false,
            }],
            poison: None,
        }
    }

    #[test]
    fn minimal_positive_case_transforms() {
        let spec = base_spec();
        assert!(
            matches!(check_spec(&spec), CaseOutcome::Transformed),
            "{:?}\n{}",
            check_spec(&spec),
            spec.render()
        );
    }

    #[test]
    fn feature_matrix_transforms() {
        // One spec per generator feature, so a regression names the feature.
        let mut specs = Vec::new();
        let mut s = base_spec();
        s.bufs[0].map = ReadMap::ReverseX;
        specs.push(("reverse-x", s));
        let mut s = base_spec();
        s.bufs[0].halo = true;
        s.bufs[0].taps = vec![1, 3];
        specs.push(("halo-taps", s));
        let mut s = base_spec();
        s.bufs[0].loop_read = true;
        specs.push(("loop-read", s));
        let mut s = base_spec();
        s.bufs[0].ox = 2;
        s.goff = 3;
        specs.push(("offsets", s));
        let mut s = base_spec();
        s.bufs.push(s.bufs[0].clone());
        specs.push(("two-buffers", s));
        // 2-D variants.
        for map in [
            ReadMap::Identity,
            ReadMap::ReverseX,
            ReadMap::ReverseY,
            ReadMap::Swap,
            ReadMap::SwapReverse,
        ] {
            let mut s = base_spec();
            s.dims = 2;
            s.ty = 4;
            s.gy_groups = 2;
            s.bufs[0].map = map;
            s.bufs[0].oy = 1;
            specs.push((map.name(), s));
        }
        let mut s = base_spec();
        s.dims = 2;
        s.ty = 2;
        s.bufs[0].loop_read = true;
        specs.push(("2d-loop-read", s));
        for (name, spec) in specs {
            let out = check_spec(&spec);
            assert!(
                matches!(out, CaseOutcome::Transformed),
                "{name}: {out:?}\n{}",
                spec.render()
            );
        }
    }

    #[test]
    fn every_poison_is_rejected_with_its_reason() {
        for p in ALL_POISONS {
            let spec = KernelSpec::random(&mut Gen::new(5), Some(p));
            let out = check_spec(&spec);
            assert!(
                matches!(out, CaseOutcome::Rejected),
                "{}: {out:?}\n{}",
                p.name(),
                spec.render()
            );
        }
    }

    #[test]
    fn random_sequences_are_legal_and_cover_lengths() {
        let mut g = Gen::new(17);
        let mut lengths = [0u32; 5];
        for _ in 0..200 {
            let seq = random_sequence(&mut g);
            assert_eq!(seq.passes()[0], grover_core::PassId::LocalRemoval);
            lengths[seq.passes().len()] += 1;
        }
        // Every legal length 1..=4 is drawn.
        assert!(lengths[1..].iter().all(|&c| c > 0), "{lengths:?}");
    }

    #[test]
    fn sequence_legs_agree_on_the_feature_spec() {
        // Every legal sequence leg must match the baseline on a healthy
        // kernel — exercised here with all four lengths at once.
        let spec = base_spec();
        let seqs: Vec<_> = [
            "local-removal",
            "local-removal,remap",
            "local-removal,index-simplify,barrier-elim",
            "local-removal,remap,barrier-elim,index-simplify",
        ]
        .iter()
        .map(|s| grover_core::Sequence::parse(s).unwrap())
        .collect();
        let out = check_spec_seqs(&spec, &seqs, &Faults::default());
        assert!(matches!(out, CaseOutcome::Transformed), "{out:?}");
    }

    #[test]
    fn sequence_legs_leave_rejected_kernels_untouched() {
        let spec = KernelSpec::random(&mut Gen::new(5), Some(ALL_POISONS[0]));
        let seqs = vec![grover_core::Sequence::tuned_pipeline()];
        let out = check_spec_seqs(&spec, &seqs, &Faults::default());
        assert!(matches!(out, CaseOutcome::Rejected), "{out:?}");
    }

    #[test]
    fn wrong_expectation_is_reported_not_masked() {
        // A healthy kernel judged as must-reject must fail loudly.
        let spec = base_spec();
        let out = check_source(
            &spec.render(),
            &Expectation::Reject {
                kind: "declined".into(),
                reason: "anything".into(),
            },
            None,
        );
        assert_eq!(
            out.failure().map(|f| f.kind),
            Some(FailureKind::AcceptedMustReject)
        );
        // And a poison judged as must-transform is a decline failure.
        let spec = KernelSpec::random(&mut Gen::new(1), Some(Poison::ComputedStore));
        let shape = spec.exec_shape();
        let out = check_source(&spec.render(), &Expectation::Transform, Some(&shape));
        assert_eq!(out.failure().map(|f| f.kind), Some(FailureKind::Declined));
    }
}
