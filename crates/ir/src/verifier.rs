//! IR verifier: structural, type and dominance checks.

use std::collections::HashMap;

use crate::cfg::{reachable, DomTree};
use crate::function::Function;
use crate::value::{BlockId, Inst, ValueDef, ValueId};

/// A verifier failure, with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError(pub String);

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for VerifyError {}

/// Verify a function, returning all problems found.
pub fn verify(f: &Function) -> Result<(), Vec<VerifyError>> {
    // Structure first: the CFG walks below index blocks by branch target
    // and instructions by block entry.
    let mut errs = Vec::new();
    for b in f.blocks() {
        for &iv in &f.block(b).insts {
            let targets = match f.inst(iv) {
                None => {
                    errs.push(VerifyError(format!(
                        "block {} lists {iv:?}, which is not an instruction",
                        f.block(b).name
                    )));
                    continue;
                }
                Some(Inst::Br { target }) => [Some(*target), None],
                Some(Inst::CondBr {
                    then_blk, else_blk, ..
                }) => [Some(*then_blk), Some(*else_blk)],
                Some(_) => [None, None],
            };
            for t in targets.into_iter().flatten() {
                if t.index() >= f.num_blocks() {
                    errs.push(VerifyError(format!(
                        "block {} branches to missing block {t:?}",
                        f.block(b).name
                    )));
                }
            }
        }
    }
    if !errs.is_empty() {
        return Err(errs);
    }
    let reach = reachable(f);

    // Each block: exactly one terminator, and it is last.
    for b in f.blocks() {
        if !reach[b.index()] {
            continue;
        }
        let insts = &f.block(b).insts;
        match insts.last() {
            None => errs.push(VerifyError(format!("block {} is empty", f.block(b).name))),
            Some(&last) => {
                if !f.inst(last).is_some_and(Inst::is_terminator) {
                    errs.push(VerifyError(format!(
                        "block {} does not end in a terminator",
                        f.block(b).name
                    )));
                }
            }
        }
        for &iv in insts.iter().rev().skip(1) {
            if f.inst(iv).is_some_and(Inst::is_terminator) {
                errs.push(VerifyError(format!(
                    "block {} has a terminator before its end",
                    f.block(b).name
                )));
            }
        }
        // Phis must be at the head of a block other than the entry (which
        // no edge enters the first time).
        let mut seen_non_phi = false;
        for &iv in insts {
            match f.inst(iv) {
                Some(Inst::Phi { .. }) if b == f.entry => errs.push(VerifyError(format!(
                    "phi in entry block {}",
                    f.block(b).name
                ))),
                Some(Inst::Phi { .. }) if seen_non_phi => errs.push(VerifyError(format!(
                    "phi after non-phi in block {}",
                    f.block(b).name
                ))),
                Some(Inst::Phi { .. }) => {}
                _ => seen_non_phi = true,
            }
        }
    }

    // Type checks per instruction.
    for (b, iv) in f.iter_insts() {
        if !reach[b.index()] {
            continue;
        }
        let inst = f.inst(iv).expect("block lists hold instructions");
        type_check(f, b, iv, inst, &mut errs);
    }

    // Phi incoming edges must exactly match predecessors.
    let preds = f.predecessors();
    for (b, iv) in f.iter_insts() {
        if !reach[b.index()] {
            continue;
        }
        if let Some(Inst::Phi { incoming }) = f.inst(iv) {
            let mut expect: Vec<BlockId> = preds[b.index()].clone();
            expect.sort();
            let mut got: Vec<BlockId> = incoming.iter().map(|(p, _)| *p).collect();
            got.sort();
            if expect != got {
                errs.push(VerifyError(format!(
                    "phi in {} has incoming {:?} but predecessors {:?}",
                    f.block(b).name,
                    got,
                    expect
                )));
            }
        }
    }

    // Dominance: every operand must be defined before use.
    check_dominance(f, &reach, &mut errs);

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn type_check(f: &Function, b: BlockId, iv: ValueId, inst: &Inst, errs: &mut Vec<VerifyError>) {
    let mut err = |msg: String| {
        errs.push(VerifyError(format!("{} (in {})", msg, f.block(b).name)));
    };
    match inst {
        Inst::Bin { op, lhs, rhs } => {
            let lt = f.ty(*lhs);
            let rt = f.ty(*rhs);
            if lt != rt {
                err(format!(
                    "bin {} operand types differ: {lt} vs {rt}",
                    op.mnemonic()
                ));
            }
            if op.is_float() && !lt.is_float() {
                err(format!("float op {} on non-float {lt}", op.mnemonic()));
            }
            if !op.is_float() && !lt.is_int() {
                err(format!("int op {} on non-int {lt}", op.mnemonic()));
            }
        }
        Inst::Cmp { lhs, rhs, .. } => {
            if f.ty(*lhs) != f.ty(*rhs) {
                err("cmp operand types differ".into());
            }
        }
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => {
            if f.ty(*cond).scalar_kind() != Some(crate::types::Scalar::Bool) {
                err("select condition not bool".into());
            }
            if f.ty(*then_val) != f.ty(*else_val) {
                err("select arms differ in type".into());
            }
        }
        Inst::Cast { value, to, .. } => {
            if f.ty(*value) == crate::types::Type::Void || *to == crate::types::Type::Void {
                err("cast to/from void".into());
            }
        }
        Inst::Call { builtin, args } => {
            if args.len() != builtin.arity() {
                err(format!(
                    "{} expects {} args, got {}",
                    builtin.name(),
                    builtin.arity(),
                    args.len()
                ));
            }
        }
        Inst::Gep { base, index } => {
            if !f.ty(*base).is_ptr() {
                err("gep base is not a pointer".into());
            }
            if !f.ty(*index).is_int() {
                err("gep index is not an integer".into());
            }
        }
        Inst::Load { ptr } => {
            if f.ty(*ptr).pointee() != Some(f.ty(iv)) {
                err("load result type does not match pointee".into());
            }
        }
        Inst::Store { ptr, value } => match f.ty(*ptr).pointee() {
            Some(p) if p == f.ty(*value) => {}
            Some(p) => err(format!("store of {} through pointer to {p}", f.ty(*value))),
            None => err("store through non-pointer".into()),
        },
        Inst::ExtractLane { vector, lane } => {
            if f.ty(*vector).lanes() <= 1 {
                err("extractlane from non-vector".into());
            }
            if f.as_const_int(*lane).is_none() {
                err("extractlane lane must be constant".into());
            }
        }
        Inst::InsertLane {
            vector,
            lane,
            value,
        } => {
            if f.ty(*vector).lanes() <= 1 {
                err("insertlane into non-vector".into());
            }
            if f.as_const_int(*lane).is_none() {
                err("insertlane lane must be constant".into());
            }
            if Some(f.ty(*value)) != f.ty(*vector).scalar_kind().map(crate::types::Type::Scalar) {
                err("insertlane value kind mismatch".into());
            }
        }
        Inst::BuildVector { lanes } => {
            if !matches!(lanes.len(), 2 | 3 | 4 | 8 | 16) {
                err(format!("buildvector of {} lanes", lanes.len()));
            }
        }
        Inst::Phi { incoming } => {
            for (_, v) in incoming {
                if f.ty(*v) != f.ty(iv) {
                    err("phi incoming type mismatch".into());
                }
            }
        }
        Inst::Barrier { .. } | Inst::Br { .. } | Inst::Ret => {}
        Inst::CondBr { cond, .. } => {
            if f.ty(*cond) != crate::types::Type::BOOL {
                err("condbr condition not bool".into());
            }
        }
    }
}

fn check_dominance(f: &Function, reach: &[bool], errs: &mut Vec<VerifyError>) {
    let dt = DomTree::compute(f);
    // Map: instruction value -> (block, index).
    let mut pos: HashMap<ValueId, (BlockId, usize)> = HashMap::new();
    for b in f.blocks() {
        for (i, &iv) in f.block(b).insts.iter().enumerate() {
            pos.insert(iv, (b, i));
        }
    }
    let defined_before = |def: ValueId, use_at: (BlockId, usize)| -> bool {
        match f.value(def).def {
            // Params, constants and local-buffer pointers dominate everything.
            ValueDef::Param(_) | ValueDef::Const(_) | ValueDef::LocalBuf(_) => true,
            ValueDef::Inst(_) => match pos.get(&def) {
                None => false, // floating instruction
                Some(&(db, di)) => {
                    if db == use_at.0 {
                        di < use_at.1
                    } else {
                        dt.dominates(db, use_at.0)
                    }
                }
            },
        }
    };
    for b in f.blocks() {
        if !reach[b.index()] {
            continue;
        }
        for (i, &iv) in f.block(b).insts.iter().enumerate() {
            let inst = f.inst(iv).expect("inst");
            if let Inst::Phi { incoming } = inst {
                for (pred, v) in incoming {
                    // A phi use happens at the end of the incoming block.
                    let end = (*pred, f.block(*pred).insts.len());
                    if !defined_before(*v, end) {
                        errs.push(VerifyError(format!(
                            "phi operand {:?} does not dominate edge from {}",
                            v,
                            f.block(*pred).name
                        )));
                    }
                }
            } else {
                inst.visit_operands(|v| {
                    if !defined_before(v, (b, i)) {
                        errs.push(VerifyError(format!(
                            "operand {:?} of {:?} does not dominate its use in {}",
                            v,
                            iv,
                            f.block(b).name
                        )));
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::types::{AddressSpace, Scalar, Type};
    use crate::value::{BinOp, Param};

    fn simple() -> Function {
        let mut f = Function::new(
            "k",
            vec![Param {
                name: "p".into(),
                ty: Type::ptr_scalar(Scalar::F32, AddressSpace::Global),
            }],
        );
        let p = f.param_value(0);
        let mut b = Builder::at_entry(&mut f);
        let i = b.i32(0);
        let g = b.gep(p, i);
        let v = b.load(g);
        b.store(g, v);
        b.ret();
        f
    }

    #[test]
    fn valid_function_passes() {
        assert!(verify(&simple()).is_ok());
    }

    #[test]
    fn missing_terminator_detected() {
        let mut f = Function::new("k", vec![]);
        let _ = f.const_i32(1); // block left empty
        let errs = verify(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("empty")));
    }

    #[test]
    fn type_mismatch_detected() {
        let mut f = Function::new("k", vec![]);
        let a = f.const_i32(1);
        let b_ = f.const_f32(1.0);
        let e = f.entry;
        f.append_inst(
            e,
            Inst::Bin {
                op: BinOp::Add,
                lhs: a,
                rhs: b_,
            },
            Type::I32,
        );
        f.append_inst(e, Inst::Ret, Type::Void);
        let errs = verify(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("differ")));
    }

    #[test]
    fn use_before_def_detected() {
        let mut f = Function::new("k", vec![]);
        let one = f.const_i32(1);
        let e = f.entry;
        // Create the add first referring to a later instruction.
        let later = f.append_inst(
            e,
            Inst::Bin {
                op: BinOp::Add,
                lhs: one,
                rhs: one,
            },
            Type::I32,
        );
        // Re-order: move `later` after a user by inserting user at front.
        f.insert_inst(
            e,
            0,
            Inst::Bin {
                op: BinOp::Add,
                lhs: later,
                rhs: one,
            },
            Type::I32,
        );
        f.append_inst(e, Inst::Ret, Type::Void);
        let errs = verify(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("dominate")));
    }

    #[test]
    fn phi_pred_mismatch_detected() {
        let mut f = Function::new("k", vec![]);
        let b1 = f.add_block("b1");
        let one = f.const_i32(1);
        let e = f.entry;
        f.append_inst(e, Inst::Br { target: b1 }, Type::Void);
        // Phi claims an incoming edge from b1 itself, but pred is entry.
        f.append_inst(
            b1,
            Inst::Phi {
                incoming: vec![(b1, one)],
            },
            Type::I32,
        );
        f.append_inst(b1, Inst::Ret, Type::Void);
        let errs = verify(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("predecessors")));
    }

    #[test]
    fn store_type_mismatch_detected() {
        let mut f = Function::new(
            "k",
            vec![Param {
                name: "p".into(),
                ty: Type::ptr_scalar(Scalar::F32, AddressSpace::Global),
            }],
        );
        let p = f.param_value(0);
        let i = f.const_i32(3);
        let e = f.entry;
        f.append_inst(e, Inst::Store { ptr: p, value: i }, Type::Void);
        f.append_inst(e, Inst::Ret, Type::Void);
        let errs = verify(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("store of")));
    }
}
