//! The register-bytecode execution backend.
//!
//! [`LaunchProgram::prepare`] lowers a verified `grover-ir` function into a
//! flat op array over an untagged register file of 64-bit slots. Every
//! value's slot kind ([`Kind`]) is fixed before the first op runs:
//! parameters take the kinds `validate_args` pins, constants the kinds
//! they decode to, and instruction results the kind the interpreter's
//! `eval_*` would return for those operand kinds ([`infer_kinds`]). The
//! CFG is linearised with pre-resolved branch targets, phi nodes become
//! per-edge parallel-copy slot moves, work-item geometry queries with
//! constant dimensions are pre-resolved, and `gep`+`load`/`store` pairs
//! are fused into single address-computing memory ops.
//!
//! Hot operations become kind-fixed ops (`add.i32`, `sext.i32.i64`,
//! `cmp.slt.i64`, `fmul.f32`, `fmul.v4f32`, a scalar `gep.load`, ...) that
//! read and write raw slots: no tag match, and no `Result` where nothing
//! can fail. Every other operation is a *cold* op: it converts its operand
//! slots to [`Val`]s and runs the interpreter's own evaluator, so each
//! piece of semantics keeps one implementation.
//!
//! The backend is observably identical to the tree-walking interpreter:
//! same output buffers bit-for-bit, same [`LaunchStats`](crate::LaunchStats),
//! same trace streams (including `pc` values, which carry the original IR
//! value ids), same budget accounting and fault-injection sites. Every op
//! increments the work-item instruction counter and spends launch budget
//! *before* executing (a fused op does so twice — once per original IR
//! instruction), and phi parallel-copies add their count without spending
//! budget, exactly like the interpreter's block-head phi batch.
//!
//! Both engines run only kernels that pass [`grover_ir::verify`], so the
//! lowering needs no failure ops for malformed IR: every reachable block
//! ends in its one terminator, the entry block has no phis, and every
//! operand is defined on every path to its use. Verified SSA writes every
//! instruction slot before reading it and never writes a parameter or
//! constant slot, so a worker seeds its register files once, and the
//! work-items of a barrier-free kernel share one file.

use std::fmt;

use grover_ir::cfg::{reachable, reverse_post_order};
use grover_ir::{
    AddressSpace, BinOp, BlockId, Builtin, CastKind, CmpPred, ConstVal, Function, Inst, Scalar,
    Type, ValueDef, ValueId,
};

use crate::buffer::BufferData;
use crate::interp::{
    branch_cond, build_vector, corrupt_val, emit_at, eval_bin, eval_call, eval_cast, eval_cmp,
    eval_inst, float_cmp, float_op, int_cmp, int_op, mem_store, workitem_query, GroupRun,
    GroupStats, LaunchCtx, LocalBudget, NdRange,
};
use crate::trace::{TraceOp, TraceSink};
use crate::val::{PtrVal, Val};
use crate::ExecError;

/// Which execution engine a launch runs on.
///
/// Both engines produce bit-identical output buffers,
/// [`LaunchStats`](crate::LaunchStats) and trace streams for verified
/// kernels; `Bytecode` lowers the kernel once per launch and executes the
/// lowered form in a tight dispatch loop. The default
/// [`Launch`](crate::Launch) runs `Bytecode`; `Interp` runs only where a
/// caller sets [`Launch::backend`](crate::Launch::backend): it is the
/// reference oracle of the differential tests, the fuzzer and the
/// `speedup` bench.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The tree-walking NDRange interpreter (the reference oracle).
    Interp,
    /// The compiled register-bytecode engine (the production engine).
    #[default]
    Bytecode,
}

/// The fixed kind of a value's register slots: which [`Val`] variant the
/// value holds whenever it holds one.
///
/// Encoding: a bool is 0 or 1, an `i32` is sign-extended to 64 bits (so
/// every integer kind's slot reads as its `as_int` value), an `f32` is its
/// bits. Vectors take two slots, lane `i` in bits `32 * (i % 2)` of slot
/// `i / 2`. A pointer takes two slots: the byte offset, then the buffer
/// index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Bool,
    I32,
    I64,
    F32,
    /// An `f32` vector of this many lanes.
    VF32(u8),
    /// An `i32` vector of this many lanes.
    VI32(u8),
    /// A pointer into this address space, to a buffer holding elements of
    /// this kind (a `__local bool` buffer holds `i32` words).
    Ptr(AddressSpace, Scalar),
}

impl Kind {
    /// Register slots a value of this kind occupies.
    fn width(self) -> u32 {
        match self {
            Kind::VF32(_) | Kind::VI32(_) | Kind::Ptr(..) => 2,
            _ => 1,
        }
    }

    /// Lanes of a value of this kind (1 for scalars and pointers).
    fn lanes(self) -> u8 {
        match self {
            Kind::VF32(n) | Kind::VI32(n) => n,
            _ => 1,
        }
    }

    /// The kind of a kernel parameter of type `ty`: `validate_args` admits
    /// only scalars of their own kind and buffers whose element kind is
    /// the pointer's.
    fn of_param(ty: Type) -> Option<Kind> {
        match ty {
            Type::Scalar(s) => Some(Kind::of_scalar(s)),
            Type::Ptr { elem, space, .. } => Some(Kind::Ptr(space, elem)),
            Type::Vector(..) | Type::Void => None,
        }
    }

    fn of_scalar(s: Scalar) -> Kind {
        match s {
            Scalar::Bool => Kind::Bool,
            Scalar::I32 => Kind::I32,
            Scalar::I64 => Kind::I64,
            Scalar::F32 => Kind::F32,
        }
    }

    /// The kind of a value `eval_*` returned (`None` for kinds no
    /// operation produces: bool vectors, and pointers, which only params,
    /// `__local` buffers, `gep`, phis and selects make).
    fn of_val(v: Val) -> Option<Kind> {
        Some(match v {
            Val::Bool(_) => Kind::Bool,
            Val::I32(_) => Kind::I32,
            Val::I64(_) => Kind::I64,
            Val::F32(_) => Kind::F32,
            Val::VF32(_, n) => Kind::VF32(n),
            Val::VI32(_, n) => Kind::VI32(n),
            Val::VBool(..) | Val::Ptr(_) => return None,
        })
    }

    /// A value of this kind on which no `eval_*` fails for a value-only
    /// reason (every lane 1, no zero divisor, an in-range query dimension).
    fn sample(self) -> Val {
        match self {
            Kind::Bool => Val::Bool(true),
            Kind::I32 => Val::I32(1),
            Kind::I64 => Val::I64(1),
            Kind::F32 => Val::F32(1.0),
            Kind::VF32(n) => Val::VF32([1.0; 4], n),
            Kind::VI32(n) => Val::VI32([1; 4], n),
            Kind::Ptr(space, _) => Val::Ptr(PtrVal {
                space,
                buf: 0,
                offset: 0,
            }),
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kind::Bool => f.write_str("bool"),
            Kind::I32 => f.write_str("i32"),
            Kind::I64 => f.write_str("i64"),
            Kind::F32 => f.write_str("f32"),
            Kind::VF32(n) => write!(f, "v{n}f32"),
            Kind::VI32(n) => write!(f, "v{n}i32"),
            Kind::Ptr(space, elem) => {
                let space = match space {
                    AddressSpace::Global => "global",
                    AddressSpace::Local => "local",
                    AddressSpace::Constant => "constant",
                    AddressSpace::Private => "private",
                };
                write!(f, "ptr.{space}.{elem}")
            }
        }
    }
}

/// The four 32-bit lanes of the vector in slots `s`, `s + 1`.
fn lanes_at(regs: &[u64], s: usize) -> [u32; 4] {
    let (w0, w1) = (regs[s], regs[s + 1]);
    [w0 as u32, (w0 >> 32) as u32, w1 as u32, (w1 >> 32) as u32]
}

fn put_lanes(regs: &mut [u64], s: usize, a: [u32; 4]) {
    regs[s] = u64::from(a[0]) | u64::from(a[1]) << 32;
    regs[s + 1] = u64::from(a[2]) | u64::from(a[3]) << 32;
}

/// The value of kind `k` in slots from `s` on.
pub(crate) fn read_val(regs: &[u64], s: usize, k: Kind) -> Val {
    let w = regs[s];
    match k {
        Kind::Bool => Val::Bool(w != 0),
        Kind::I32 => Val::I32(w as i32),
        Kind::I64 => Val::I64(w as i64),
        Kind::F32 => Val::F32(f32::from_bits(w as u32)),
        Kind::VF32(n) => Val::VF32(lanes_at(regs, s).map(f32::from_bits), n),
        Kind::VI32(n) => Val::VI32(lanes_at(regs, s).map(|x| x as i32), n),
        Kind::Ptr(space, _) => Val::Ptr(PtrVal {
            space,
            buf: regs[s + 1] as u32,
            offset: w as i64,
        }),
    }
}

/// Write `v` into the slots of kind `k` from `s` on; a value of another
/// kind is a lowering bug and reported as [`ExecError::Internal`].
pub(crate) fn write_val(regs: &mut [u64], s: usize, k: Kind, v: Val) -> Result<(), ExecError> {
    match (k, v) {
        (Kind::Bool, Val::Bool(b)) => regs[s] = u64::from(b),
        (Kind::I32, Val::I32(x)) => regs[s] = sx(x),
        (Kind::I64, Val::I64(x)) => regs[s] = x as u64,
        (Kind::F32, Val::F32(x)) => regs[s] = fw(x),
        (Kind::VF32(n), Val::VF32(a, m)) if n == m => put_lanes(regs, s, a.map(f32::to_bits)),
        (Kind::VI32(n), Val::VI32(a, m)) if n == m => put_lanes(regs, s, a.map(|x| x as u32)),
        (Kind::Ptr(space, _), Val::Ptr(p)) if p.space == space => {
            regs[s] = p.offset as u64;
            regs[s + 1] = u64::from(p.buf);
        }
        (k, v) => return Err(ExecError::Internal(format!("{v:?} written to a {k} slot"))),
    }
    Ok(())
}

fn decode_const(c: &ConstVal) -> Val {
    match c {
        ConstVal::Bool(b) => Val::Bool(*b),
        ConstVal::I32(x) => Val::I32(*x),
        ConstVal::I64(x) => Val::I64(*x),
        ConstVal::F32Bits(b) => Val::F32(f32::from_bits(*b)),
    }
}

/// The element kind a `__local` buffer of `elem` stores (bools as `i32`).
fn local_data(elem: Scalar) -> Scalar {
    match elem {
        Scalar::Bool => Scalar::I32,
        s => s,
    }
}

/// The kind a `lanes`-lane load through a pointer of kind `ptr` returns,
/// as `mem_load` decides it: from the buffer's element kind, not the
/// load's static type. `None` where the load always fails.
fn load_kind(ptr: Kind, lanes: u8) -> Option<Kind> {
    let Kind::Ptr(space, data) = ptr else {
        return None;
    };
    match (space, data, lanes) {
        (AddressSpace::Private, ..) => None,
        (_, Scalar::F32, 1) => Some(Kind::F32),
        (_, Scalar::F32, n) if n <= 4 => Some(Kind::VF32(n)),
        (_, Scalar::I32, 1) => Some(Kind::I32),
        (_, Scalar::I32, n) if n <= 4 => Some(Kind::VI32(n)),
        (AddressSpace::Local, Scalar::I64, _) | (_, Scalar::I64, 1) => Some(Kind::I64),
        _ => None,
    }
}

/// The kind of a merge (phi or select) of values of kinds `a` and `b`.
fn join(iv: ValueId, a: Option<Kind>, b: Option<Kind>) -> Result<Option<Kind>, ExecError> {
    match (a, b) {
        (Some(x), Some(y)) if x != y => Err(ExecError::InvalidKernel(format!(
            "v{} merges a {x} and a {y}",
            iv.0
        ))),
        (Some(x), _) | (None, Some(x)) => Ok(Some(x)),
        (None, None) => Ok(None),
    }
}

/// The lane an `extractlane`/`insertlane` names (verified constant),
/// computed the way the interpreter reads it.
fn lane_index(f: &Function, lane: ValueId) -> usize {
    f.as_const_int(lane).unwrap_or(0) as usize
}

/// Check that `f` can run — it passes [`grover_ir::verify`] (the lowering
/// relies on every reachable block ending in its one terminator and every
/// operand being defined before its use) and each value has one kind —
/// and return its slot kinds ([`infer_kinds`]).
pub(crate) fn check_kernel(f: &Function) -> Result<Vec<Option<Kind>>, ExecError> {
    grover_ir::verify(f).map_err(|errs| {
        let msgs: Vec<String> = errs.iter().map(ToString::to_string).collect();
        ExecError::InvalidKernel(msgs.join("; "))
    })?;
    infer_kinds(f)
}

/// The slot kind of every value of a verified kernel, indexed by value id.
///
/// `None` marks values that never hold one: void results, instructions in
/// unreachable blocks, and results of operations that fail for their
/// operand kinds (their users are never reached, since every operand is
/// defined on every path to its use). A phi or select whose inputs have
/// two different kinds makes the kernel [`ExecError::InvalidKernel`]: no
/// untagged slot can hold it, so neither engine runs it.
fn infer_kinds(f: &Function) -> Result<Vec<Option<Kind>>, ExecError> {
    let reach = reachable(f);
    let rpo = reverse_post_order(f);
    let mut kinds: Vec<Option<Kind>> = (0..f.num_values())
        .map(|i| {
            let v = ValueId(i as u32);
            match &f.value(v).def {
                ValueDef::Param(_) => Kind::of_param(f.ty(v)),
                ValueDef::Const(c) => Kind::of_val(decode_const(c)),
                ValueDef::LocalBuf(id) => Some(Kind::Ptr(
                    AddressSpace::Local,
                    local_data(f.local_buf(*id).elem),
                )),
                ValueDef::Inst(_) => None,
            }
        })
        .collect();
    // Kinds only ever go from `None` to one fixed kind (a second kind is a
    // conflict), so this reaches its fixpoint.
    loop {
        let mut changed = false;
        for &b in &rpo {
            for &iv in &f.block(b).insts {
                let Some(inst) = f.inst(iv) else { continue };
                let k = result_kind(f, &reach, iv, inst, &kinds)?;
                if k != kinds[iv.index()] {
                    kinds[iv.index()] = k;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(kinds);
        }
    }
}

/// The kind `inst` produces from its operands' current kinds — for the
/// arithmetic families, by running the interpreter's own `eval_*` on a
/// sample value of each operand kind.
fn result_kind(
    f: &Function,
    reach: &[bool],
    iv: ValueId,
    inst: &Inst,
    kinds: &[Option<Kind>],
) -> Result<Option<Kind>, ExecError> {
    let k = |v: ValueId| kinds[v.index()];
    if let Inst::Phi { incoming } = inst {
        let mut out = None;
        for &(pred, v) in incoming {
            if reach[pred.index()] {
                out = join(iv, out, k(v))?;
            }
        }
        return Ok(out);
    }
    let mut never_reached = false;
    inst.visit_operands(|v| never_reached |= k(v).is_none());
    if never_reached {
        return Ok(None);
    }
    let s = |v: ValueId| k(v).map_or(Val::Bool(false), Kind::sample);
    Ok(match inst {
        Inst::Bin { op, lhs, rhs } => eval_bin(*op, s(*lhs), s(*rhs)).ok().and_then(Kind::of_val),
        Inst::Cmp { pred, lhs, rhs } => eval_cmp(*pred, s(*lhs), s(*rhs))
            .ok()
            .and_then(Kind::of_val),
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => {
            if k(*cond) == Some(Kind::Bool) {
                join(iv, k(*then_val), k(*else_val))?
            } else {
                None
            }
        }
        Inst::Cast { kind, value, to } => {
            eval_cast(*kind, s(*value), *to).ok().and_then(Kind::of_val)
        }
        Inst::Call { builtin, args } => {
            let vals: Vec<Val> = args.iter().map(|&a| s(a)).collect();
            eval_call(&NdRange::d1(1, 1), &[0; 3], &[0; 3], *builtin, &vals)
                .ok()
                .and_then(Kind::of_val)
        }
        Inst::Gep { base, index } => match (k(*base), k(*index)) {
            (Some(p @ Kind::Ptr(..)), Some(Kind::Bool | Kind::I32 | Kind::I64))
                if f.ty(*base).pointee().is_some() =>
            {
                Some(p)
            }
            _ => None,
        },
        Inst::Load { ptr } => k(*ptr).and_then(|p| load_kind(p, f.ty(iv).lanes())),
        Inst::ExtractLane { vector, lane } => {
            s(*vector).lane(lane_index(f, *lane)).and_then(Kind::of_val)
        }
        Inst::InsertLane {
            vector,
            lane,
            value,
        } => s(*vector)
            .with_lane(lane_index(f, *lane), s(*value))
            .and_then(Kind::of_val),
        Inst::BuildVector { lanes } => {
            if lanes.len() > 4 {
                None
            } else {
                let vals: Vec<Val> = lanes.iter().map(|&l| s(l)).collect();
                build_vector(&vals).ok().and_then(Kind::of_val)
            }
        }
        Inst::Phi { .. }
        | Inst::Store { .. }
        | Inst::Barrier { .. }
        | Inst::Br { .. }
        | Inst::CondBr { .. }
        | Inst::Ret => None,
    })
}

/// Destination and two source slots.
#[derive(Clone, Copy, Debug)]
struct Binary {
    d: u32,
    a: u32,
    b: u32,
}

/// Destination and one source slot.
#[derive(Clone, Copy, Debug)]
struct Unary {
    d: u32,
    s: u32,
}

/// One bytecode op. Operands are register-slot indices; branch targets are
/// op indices. Arithmetic ops name their operand kinds and read raw slots;
/// `Cold` runs one IR instruction through the interpreter's evaluator.
#[derive(Clone, Copy, Debug)]
enum Op {
    AddI32(Binary),
    SubI32(Binary),
    MulI32(Binary),
    AddI64(Binary),
    SubI64(Binary),
    MulI64(Binary),
    /// Any other integer op of two `i32`s, or `and`/`or`/`xor` of two
    /// bools (whose 0/1 slots it leaves 0/1); division can fail.
    IntI32(BinOp, Binary),
    /// Any other integer op of two `i64`s.
    IntI64(BinOp, Binary),
    FAdd(Binary),
    FSub(Binary),
    FMul(Binary),
    FDiv(Binary),
    /// A float op lane-wise over two vectors of this many `f32` lanes.
    VecF32(BinOp, u8, Binary),
    /// An integer predicate over two `i32`s or two bools.
    CmpI32(CmpPred, Binary),
    CmpI64(CmpPred, Binary),
    CmpF32(CmpPred, Binary),
    TruncI64I32(Unary),
    SExtI32I64(Unary),
    ZExtI32I64(Unary),
    SiToFpI32F32(Unary),
    FpToSiF32I32(Unary),
    MinI32(Binary),
    MaxI32(Binary),
    FabsF32(Unary),
    /// `d = c ? t : e` over one-slot (`wide == false`) or two-slot values.
    Select {
        d: u32,
        c: u32,
        t: u32,
        e: u32,
        wide: bool,
    },
    /// Work-item geometry query with a compile-time constant dimension.
    Query {
        which: Builtin,
        dim: u8,
        d: u32,
    },
    /// `d = base + index * elem` bytes.
    Gep {
        d: u32,
        base: u32,
        index: u32,
        elem: u32,
    },
    /// A load of a scalar, or of 2 to 4 lanes of an `f32`/`i32` buffer;
    /// `pc` is the original IR value id for the trace stream.
    Load {
        d: u32,
        ptr: u32,
        space: AddressSpace,
        lanes: u8,
        bytes: u32,
        pc: u32,
    },
    /// Fused `gep`+`load` (the gep's only use is the next instruction):
    /// counts and spends as two instructions.
    GepLoad {
        d: u32,
        base: u32,
        index: u32,
        elem: u32,
        space: AddressSpace,
        lanes: u8,
        bytes: u32,
        pc: u32,
    },
    /// A store of a value of the kind its buffer holds.
    Store {
        ptr: u32,
        v: u32,
        space: AddressSpace,
        kind: Kind,
        bytes: u32,
        pc: u32,
    },
    /// Fused `gep`+`store`: counts and spends as two instructions.
    GepStore {
        base: u32,
        index: u32,
        elem: u32,
        v: u32,
        space: AddressSpace,
        kind: Kind,
        bytes: u32,
        pc: u32,
    },
    /// `d = v[lane]` of an `f32` (`int == false`) or `i32` vector.
    Extract {
        d: u32,
        v: u32,
        lane: u8,
        int: bool,
    },
    /// `d = v` with `[lane] = x`.
    Insert {
        d: u32,
        v: u32,
        lane: u8,
        x: u32,
    },
    /// An `n`-lane vector from `n` slots of one 32-bit kind.
    BuildVector {
        d: u32,
        lanes: [u32; 4],
        n: u8,
    },
    /// Unconditional branch: apply the edge's phi moves, jump to `target`.
    Jump {
        target: u32,
        edge: u32,
    },
    /// Conditional branch on a bool slot.
    CondJump {
        c: u32,
        then_target: u32,
        then_edge: u32,
        else_target: u32,
        else_edge: u32,
    },
    /// Work-group barrier rendezvous; the op index is the identity the
    /// group must agree on (bijective with the IR barrier's value id).
    Barrier,
    /// Work-item return.
    Ret,
    /// IR instruction `iv` evaluated by the interpreter on `Val`s read from
    /// its operands' slots; `class` is its profile taxonomy tag.
    Cold {
        iv: u32,
        class: &'static str,
    },
}

/// The phi parallel-copy list of one CFG edge.
#[derive(Clone, Debug)]
struct Edge {
    /// `(dst, src)` slot moves, with parallel-copy semantics.
    moves: Box<[(u32, u32)]>,
    /// Whether some move reads a slot an earlier move writes, so sources
    /// must be read before any destination is written.
    buffered: bool,
    /// Phi count of the successor block: added to the work-item
    /// instruction counter without spending budget, like the
    /// interpreter's block-head phi batch.
    n_phis: u32,
    /// Successor block (the block whose phis this edge feeds); the
    /// profiler attributes the edge's phi executions to it.
    succ: u32,
}

/// A kernel lowered to register bytecode.
pub(crate) struct CompiledKernel {
    ops: Vec<Op>,
    edges: Vec<Edge>,
    /// Slot kind of each value, by value id (what cold ops read through).
    kinds: Vec<Option<Kind>>,
    /// First slot of each value, by value id (`u32::MAX` for none).
    slot: Vec<u32>,
    /// Register-file template with constants and `__local` buffer
    /// pointers encoded; parameters are written per launch.
    regs_base: Vec<u64>,
    /// Whether the kernel has a reachable barrier (its work-items then
    /// interleave and need one register file each).
    has_barrier: bool,
    /// Op index execution starts at.
    entry: u32,
    /// First op index of each block, in block order (non-decreasing): the
    /// profiler's op-index → block map.
    block_start: Vec<u32>,
    /// Original IR value id of each block's first instruction (the
    /// block's stable label in profiles), `u32::MAX` for empty blocks.
    block_first_value: Vec<u32>,
}

/// A compiled kernel plus the launch's parameter values already written
/// into the register template: what every worker of one launch executes.
pub(crate) struct LaunchProgram {
    compiled: CompiledKernel,
    regs_init: Vec<u64>,
}

impl LaunchProgram {
    /// Lower `f`, whose slot kinds are `kinds` ([`infer_kinds`]), and write
    /// the launch's `(value index, value)` parameter seeds into the
    /// register-file template.
    pub(crate) fn prepare(
        f: &Function,
        kinds: Vec<Option<Kind>>,
        params: &[(usize, Val)],
    ) -> Result<LaunchProgram, ExecError> {
        let compiled = compile(f, kinds);
        let mut regs_init = compiled.regs_base.clone();
        for &(i, v) in params {
            if let Some(k) = compiled.kinds[i] {
                write_val(&mut regs_init, compiled.slot[i] as usize, k, v)?;
            }
        }
        Ok(LaunchProgram {
            compiled,
            regs_init,
        })
    }
}

/// Raw profiling counters of one worker: dynamic execution counts per
/// bytecode op index and per phi edge. Merging is plain addition, so the
/// launch-wide totals are bit-identical under any work-group schedule.
#[derive(Default)]
pub(crate) struct ProfBuf {
    op_counts: Vec<u64>,
    edge_counts: Vec<u64>,
}

impl ProfBuf {
    /// A zeroed buffer sized for `prog`.
    pub(crate) fn for_program(prog: &LaunchProgram) -> ProfBuf {
        ProfBuf {
            op_counts: vec![0; prog.compiled.ops.len()],
            edge_counts: vec![0; prog.compiled.edges.len()],
        }
    }

    /// Add another worker's counts into this buffer.
    pub(crate) fn merge(&mut self, other: &ProfBuf) {
        for (a, b) in self.op_counts.iter_mut().zip(&other.op_counts) {
            *a += b;
        }
        for (a, b) in self.edge_counts.iter_mut().zip(&other.edge_counts) {
            *a += b;
        }
    }
}

/// One row of the per-opcode profile table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpKindProfile {
    /// Stable opcode-kind tag (the profiler's op taxonomy — see
    /// DESIGN.md §17): `bin`, `cmp`, `select`, `cast`, `query`, `call`,
    /// `gep`, `load`, `gep.load`, `store`, `gep.store`, `extract`,
    /// `insert`, `bvec`, `phi`, `jump`, `cjump`, `barrier`, `ret`.
    pub kind: &'static str,
    /// Dynamic executions of ops of this kind, summed over all work-items.
    pub count: u64,
    /// Charge units attributed — the contribution to
    /// [`LaunchStats::instructions`](crate::LaunchStats): 2 per fused
    /// `gep.load`/`gep.store` execution, 1 per phi, 1 otherwise.
    pub charged: u64,
}

/// One row of the per-basic-block profile table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockProfile {
    /// Block index in the original IR's block order.
    pub block: u32,
    /// Original IR value id of the block's first instruction (`None` for
    /// an empty block) — the stable label tying the row back to the IR
    /// and the golden disassembly.
    pub first_value: Option<u32>,
    /// Dynamic op executions attributed to this block (phis included).
    pub count: u64,
    /// Charge units attributed to this block.
    pub charged: u64,
}

/// The aggregated per-opcode/per-block execution profile of one bytecode
/// launch. `total_charged` reconciles exactly with
/// [`LaunchStats::instructions`](crate::LaunchStats) for a successful
/// launch — every budget charge unit (including the double charge of
/// fused memory ops and the no-spend phi count) is attributed to exactly
/// one opcode kind and one block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Per-opcode-kind rows, in taxonomy order, zero-count kinds omitted.
    pub ops: Vec<OpKindProfile>,
    /// Per-basic-block rows, in block order, zero-count blocks omitted.
    pub blocks: Vec<BlockProfile>,
    /// Total dynamic op executions (phis counted individually).
    pub total_count: u64,
    /// Total charge units — equals `LaunchStats::instructions`.
    pub total_charged: u64,
}

/// Taxonomy order of the profile table (hot kinds first).
const KIND_ORDER: [&str; 19] = [
    "gep.load",
    "gep.store",
    "load",
    "store",
    "bin",
    "cmp",
    "select",
    "cast",
    "query",
    "call",
    "gep",
    "extract",
    "insert",
    "bvec",
    "phi",
    "jump",
    "cjump",
    "barrier",
    "ret",
];

impl Op {
    /// Stable kind tag: the taxonomy of the IR instruction the op runs
    /// (one of [`KIND_ORDER`]).
    fn kind_name(&self) -> &'static str {
        match self {
            Op::AddI32(_)
            | Op::SubI32(_)
            | Op::MulI32(_)
            | Op::AddI64(_)
            | Op::SubI64(_)
            | Op::MulI64(_)
            | Op::IntI32(..)
            | Op::IntI64(..)
            | Op::FAdd(_)
            | Op::FSub(_)
            | Op::FMul(_)
            | Op::FDiv(_)
            | Op::VecF32(..) => "bin",
            Op::CmpI32(..) | Op::CmpI64(..) | Op::CmpF32(..) => "cmp",
            Op::Select { .. } => "select",
            Op::TruncI64I32(_)
            | Op::SExtI32I64(_)
            | Op::ZExtI32I64(_)
            | Op::SiToFpI32F32(_)
            | Op::FpToSiF32I32(_) => "cast",
            Op::Query { .. } => "query",
            Op::MinI32(_) | Op::MaxI32(_) | Op::FabsF32(_) => "call",
            Op::Gep { .. } => "gep",
            Op::Load { .. } => "load",
            Op::GepLoad { .. } => "gep.load",
            Op::Store { .. } => "store",
            Op::GepStore { .. } => "gep.store",
            Op::Extract { .. } => "extract",
            Op::Insert { .. } => "insert",
            Op::BuildVector { .. } => "bvec",
            Op::Jump { .. } => "jump",
            Op::CondJump { .. } => "cjump",
            Op::Barrier => "barrier",
            Op::Ret => "ret",
            Op::Cold { class, .. } => class,
        }
    }

    /// Budget charge units one execution of this op contributes to
    /// `LaunchStats::instructions`: fused memory ops charge for both
    /// original IR instructions.
    fn charge_units(&self) -> u64 {
        match self {
            Op::GepLoad { .. } | Op::GepStore { .. } => 2,
            _ => 1,
        }
    }
}

impl LaunchProgram {
    /// Fold merged raw counters into the launch's [`OpProfile`].
    pub(crate) fn aggregate(&self, prof: &ProfBuf) -> OpProfile {
        let ck = &self.compiled;
        let nb = ck.block_start.len();
        let mut by_kind: std::collections::HashMap<&'static str, (u64, u64)> =
            std::collections::HashMap::new();
        let mut by_block: Vec<(u64, u64)> = vec![(0, 0); nb];

        // The op index → block map: block_start is non-decreasing, so the
        // owning block is the *last* one starting at or before the index
        // (empty blocks share their successor's start and own no ops).
        let block_of = |i: usize| -> Option<usize> {
            let p = ck.block_start.partition_point(|&s| (s as usize) <= i);
            p.checked_sub(1)
        };

        for (i, n) in prof.op_counts.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            let op = &ck.ops[i];
            let charged = n * op.charge_units();
            let e = by_kind.entry(op.kind_name()).or_insert((0, 0));
            e.0 += n;
            e.1 += charged;
            if let Some(b) = block_of(i) {
                by_block[b].0 += n;
                by_block[b].1 += charged;
            }
        }
        // Phi executions: attributed to the edge's successor block, one
        // charge unit per phi (counted into `instructions` without a
        // budget spend, like the interpreter's block-head batch).
        for (j, n) in prof.edge_counts.iter().enumerate() {
            let e = &ck.edges[j];
            if *n == 0 || e.n_phis == 0 {
                continue;
            }
            let phis = n * u64::from(e.n_phis);
            let k = by_kind.entry("phi").or_insert((0, 0));
            k.0 += phis;
            k.1 += phis;
            if (e.succ as usize) < nb {
                by_block[e.succ as usize].0 += phis;
                by_block[e.succ as usize].1 += phis;
            }
        }

        let ops: Vec<OpKindProfile> = KIND_ORDER
            .iter()
            .filter_map(|&kind| {
                by_kind.get(kind).map(|&(count, charged)| OpKindProfile {
                    kind,
                    count,
                    charged,
                })
            })
            .collect();
        let blocks: Vec<BlockProfile> = by_block
            .iter()
            .enumerate()
            .filter(|(_, &(c, _))| c > 0)
            .map(|(b, &(count, charged))| BlockProfile {
                block: b as u32,
                first_value: match ck.block_first_value[b] {
                    u32::MAX => None,
                    v => Some(v),
                },
                count,
                charged,
            })
            .collect();
        OpProfile {
            total_count: ops.iter().map(|o| o.count).sum(),
            total_charged: ops.iter().map(|o| o.charged).sum(),
            ops,
            blocks,
        }
    }
}

fn is_float_pred(pred: CmpPred) -> bool {
    float_cmp(pred, 0.0, 0.0).is_some()
}

/// The profile taxonomy tag of an IR instruction lowered to a cold op.
fn class_of(inst: &Inst) -> &'static str {
    match inst {
        Inst::Bin { .. } => "bin",
        Inst::Cmp { .. } => "cmp",
        Inst::Select { .. } => "select",
        Inst::Cast { .. } => "cast",
        Inst::Call { .. } => "call",
        Inst::Gep { .. } => "gep",
        Inst::Load { .. } => "load",
        Inst::Store { .. } => "store",
        Inst::ExtractLane { .. } => "extract",
        Inst::InsertLane { .. } => "insert",
        Inst::BuildVector { .. } => "bvec",
        Inst::Phi { .. } => "phi",
        Inst::Barrier { .. } => "barrier",
        Inst::Br { .. } => "jump",
        Inst::CondBr { .. } => "cjump",
        Inst::Ret => "ret",
    }
}

/// Whether a `lanes`-lane load through a pointer of kind `ptr` has a hot
/// op: a scalar of any buffer, or 2 to 4 lanes of an `f32`/`i32` buffer.
fn hot_load(ptr: Kind, lanes: u8) -> bool {
    match ptr {
        Kind::Ptr(AddressSpace::Private, _) => false,
        Kind::Ptr(_, data) => lanes == 1 || (2..=4).contains(&lanes) && data != Scalar::I64,
        _ => false,
    }
}

/// Whether storing a value of kind `v` through a pointer of kind `ptr` has
/// a hot op: a global or local buffer holding exactly that kind (or `i32`
/// words for a bool).
fn hot_store(ptr: Kind, v: Kind) -> bool {
    let Kind::Ptr(AddressSpace::Global | AddressSpace::Local, data) = ptr else {
        return false;
    };
    matches!(
        (data, v),
        (Scalar::F32, Kind::F32)
            | (Scalar::I32, Kind::I32 | Kind::Bool)
            | (Scalar::I64, Kind::I64)
            | (Scalar::F32, Kind::VF32(2..=4))
            | (Scalar::I32, Kind::VI32(2..=4))
    )
}

/// Lowering state: the kernel, its slot kinds and slot assignment.
struct Lower<'a> {
    f: &'a Function,
    kinds: &'a [Option<Kind>],
    slot: &'a [u32],
}

impl Lower<'_> {
    fn k(&self, v: ValueId) -> Option<Kind> {
        self.kinds[v.index()]
    }

    fn s(&self, v: ValueId) -> u32 {
        self.slot[v.index()]
    }

    /// The kind-fixed op for a non-control instruction, if its operand
    /// kinds have one (`None` means a cold op).
    #[allow(clippy::too_many_lines)]
    fn hot(&self, iv: ValueId, inst: &Inst) -> Option<Op> {
        use Kind::{Bool, F32, I32, I64, VF32, VI32};
        let d = self.s(iv);
        let produces = !matches!(inst, Inst::Store { .. });
        if produces && self.k(iv).is_none() {
            return None;
        }
        Some(match inst {
            Inst::Bin { op, lhs, rhs } => {
                let x = Binary {
                    d,
                    a: self.s(*lhs),
                    b: self.s(*rhs),
                };
                match (*op, self.k(*lhs)?, self.k(*rhs)?) {
                    (BinOp::Add, I32, I32) => Op::AddI32(x),
                    (BinOp::Sub, I32, I32) => Op::SubI32(x),
                    (BinOp::Mul, I32, I32) => Op::MulI32(x),
                    (BinOp::Add, I64, I64) => Op::AddI64(x),
                    (BinOp::Sub, I64, I64) => Op::SubI64(x),
                    (BinOp::Mul, I64, I64) => Op::MulI64(x),
                    (op, I32, I32) if !op.is_float() => Op::IntI32(op, x),
                    (op @ (BinOp::And | BinOp::Or | BinOp::Xor), Bool, Bool) => Op::IntI32(op, x),
                    (op, I64, I64) if !op.is_float() => Op::IntI64(op, x),
                    (BinOp::FAdd, F32, F32) => Op::FAdd(x),
                    (BinOp::FSub, F32, F32) => Op::FSub(x),
                    (BinOp::FMul, F32, F32) => Op::FMul(x),
                    (BinOp::FDiv, F32, F32) => Op::FDiv(x),
                    (op, VF32(n), VF32(m)) if op.is_float() && n == m && (2..=4).contains(&n) => {
                        Op::VecF32(op, n, x)
                    }
                    _ => return None,
                }
            }
            Inst::Cmp { pred, lhs, rhs } => {
                let x = Binary {
                    d,
                    a: self.s(*lhs),
                    b: self.s(*rhs),
                };
                match (self.k(*lhs)?, self.k(*rhs)?, is_float_pred(*pred)) {
                    (I32, I32, false) | (Bool, Bool, false) => Op::CmpI32(*pred, x),
                    (I64, I64, false) => Op::CmpI64(*pred, x),
                    (F32, F32, true) => Op::CmpF32(*pred, x),
                    _ => return None,
                }
            }
            Inst::Select {
                cond,
                then_val,
                else_val,
            } => {
                if self.k(*cond)? != Bool || self.k(*then_val) != self.k(*else_val) {
                    return None;
                }
                Op::Select {
                    d,
                    c: self.s(*cond),
                    t: self.s(*then_val),
                    e: self.s(*else_val),
                    wide: self.k(*then_val)?.width() == 2,
                }
            }
            Inst::Cast { kind, value, to } => {
                let x = Unary {
                    d,
                    s: self.s(*value),
                };
                match (*kind, self.k(*value)?, *to) {
                    (CastKind::Trunc, I64, Type::I32) => Op::TruncI64I32(x),
                    (CastKind::SExt, I32, Type::I64) => Op::SExtI32I64(x),
                    (CastKind::ZExt, I32, Type::I64) => Op::ZExtI32I64(x),
                    (CastKind::SiToFp, I32, Type::F32) => Op::SiToFpI32F32(x),
                    (CastKind::FpToSi, F32, Type::I32) => Op::FpToSiF32I32(x),
                    _ => return None,
                }
            }
            Inst::Call { builtin, args } => {
                if builtin.is_workitem_query() {
                    let dim = self.f.as_const_int(args[0])?;
                    if !(0..3).contains(&dim) {
                        return None;
                    }
                    return Some(Op::Query {
                        which: *builtin,
                        dim: dim as u8,
                        d,
                    });
                }
                let s = |i: usize| self.s(args[i]);
                let kinds: Vec<Option<Kind>> = args.iter().map(|&a| self.k(a)).collect();
                match (*builtin, kinds.as_slice()) {
                    (Builtin::IMin, [Some(I32), Some(I32)]) => Op::MinI32(Binary {
                        d,
                        a: s(0),
                        b: s(1),
                    }),
                    (Builtin::IMax, [Some(I32), Some(I32)]) => Op::MaxI32(Binary {
                        d,
                        a: s(0),
                        b: s(1),
                    }),
                    (Builtin::Fabs, [Some(F32)]) => Op::FabsF32(Unary { d, s: s(0) }),
                    _ => return None,
                }
            }
            Inst::Gep { base, index } => {
                let (Kind::Ptr(..), Bool | I32 | I64) = (self.k(*base)?, self.k(*index)?) else {
                    return None;
                };
                Op::Gep {
                    d,
                    base: self.s(*base),
                    index: self.s(*index),
                    elem: self.f.ty(*base).pointee()?.size_bytes() as u32,
                }
            }
            Inst::Load { ptr } => {
                let Kind::Ptr(space, _) = self.k(*ptr)? else {
                    return None;
                };
                let ty = self.f.ty(iv);
                if !hot_load(self.k(*ptr)?, ty.lanes()) {
                    return None;
                }
                Op::Load {
                    d,
                    ptr: self.s(*ptr),
                    space,
                    lanes: ty.lanes(),
                    bytes: ty.size_bytes() as u32,
                    pc: iv.0,
                }
            }
            Inst::Store { ptr, value } => {
                let (p, kind) = (self.k(*ptr)?, self.k(*value)?);
                let Kind::Ptr(space, _) = p else { return None };
                if !hot_store(p, kind) {
                    return None;
                }
                Op::Store {
                    ptr: self.s(*ptr),
                    v: self.s(*value),
                    space,
                    kind,
                    bytes: self.f.ty(*value).size_bytes() as u32,
                    pc: iv.0,
                }
            }
            Inst::ExtractLane { vector, lane } => {
                let i = lane_index(self.f, *lane);
                let int = match self.k(*vector)? {
                    VF32(n) if i < n as usize => false,
                    VI32(n) if i < n as usize => true,
                    _ => return None,
                };
                Op::Extract {
                    d,
                    v: self.s(*vector),
                    lane: i as u8,
                    int,
                }
            }
            Inst::InsertLane {
                vector,
                lane,
                value,
            } => {
                let i = lane_index(self.f, *lane);
                match (self.k(*vector)?, self.k(*value)?) {
                    (VF32(n), F32) | (VI32(n), I32) if i < n as usize => Op::Insert {
                        d,
                        v: self.s(*vector),
                        lane: i as u8,
                        x: self.s(*value),
                    },
                    _ => return None,
                }
            }
            Inst::BuildVector { lanes } => {
                let first = self.k(lanes[0])?;
                if !(2..=4).contains(&lanes.len())
                    || !matches!(first, F32 | I32)
                    || lanes.iter().any(|&l| self.k(l) != Some(first))
                {
                    return None;
                }
                let mut a = [0u32; 4];
                for (j, &l) in lanes.iter().enumerate() {
                    a[j] = self.s(l);
                }
                Op::BuildVector {
                    d,
                    lanes: a,
                    n: lanes.len() as u8,
                }
            }
            Inst::Phi { .. }
            | Inst::Barrier { .. }
            | Inst::Br { .. }
            | Inst::CondBr { .. }
            | Inst::Ret => return None,
        })
    }

    /// The op for a `gep` fused with the memory access `next` that is its
    /// only use, when both have hot forms.
    fn fused(&self, gep: ValueId, next: ValueId, uses: &[u32]) -> Option<Op> {
        let (Some(g @ Inst::Gep { .. }), Some(access)) = (self.f.inst(gep), self.f.inst(next))
        else {
            return None;
        };
        let Op::Gep {
            base: b,
            index: x,
            elem,
            ..
        } = self.hot(gep, g)?
        else {
            return None;
        };
        if uses[gep.index()] != 1 {
            return None;
        }
        match access {
            Inst::Load { ptr } if *ptr == gep => match self.hot(next, access)? {
                Op::Load {
                    d,
                    space,
                    lanes,
                    bytes,
                    pc,
                    ..
                } => Some(Op::GepLoad {
                    d,
                    base: b,
                    index: x,
                    elem,
                    space,
                    lanes,
                    bytes,
                    pc,
                }),
                _ => None,
            },
            Inst::Store { ptr, value } if *ptr == gep && *value != gep => {
                match self.hot(next, access)? {
                    Op::Store {
                        v,
                        space,
                        kind,
                        bytes,
                        pc,
                        ..
                    } => Some(Op::GepStore {
                        base: b,
                        index: x,
                        elem,
                        v,
                        space,
                        kind,
                        bytes,
                        pc,
                    }),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

fn count_uses(f: &Function) -> Vec<u32> {
    let mut uses = vec![0u32; f.num_values()];
    for i in 0..f.num_values() {
        if let ValueDef::Inst(inst) = &f.value(ValueId(i as u32)).def {
            inst.visit_operands(|u| uses[u.index()] += 1);
        }
    }
    uses
}

/// Lower a verified `f` whose slot kinds are `kinds` to bytecode.
fn compile(f: &Function, kinds: Vec<Option<Kind>>) -> CompiledKernel {
    let nv = f.num_values();
    let mut slot = vec![u32::MAX; nv];
    let mut nslots = 0u32;
    for (i, k) in kinds.iter().enumerate() {
        if let Some(k) = k {
            slot[i] = nslots;
            nslots += k.width();
        }
    }
    let mut regs_base = vec![0u64; nslots as usize];
    for (i, k) in kinds.iter().enumerate() {
        let val = match &f.value(ValueId(i as u32)).def {
            ValueDef::Const(c) => decode_const(c),
            ValueDef::LocalBuf(id) => Val::Ptr(PtrVal {
                space: AddressSpace::Local,
                buf: id.0,
                offset: 0,
            }),
            _ => continue,
        };
        if let Some(k) = *k {
            write_val(&mut regs_base, slot[i] as usize, k, val)
                .expect("a constant has the kind it decodes to");
        }
    }

    let lower = Lower {
        f,
        kinds: &kinds,
        slot: &slot,
    };
    let reach = reachable(f);
    let uses = count_uses(f);
    let nb = f.num_blocks();

    // Prologue phis of every block (verified: phis only at a block head).
    type BlockPhis<'a> = Vec<(ValueId, &'a [(BlockId, ValueId)])>;
    let block_phis: Vec<BlockPhis<'_>> = (0..nb)
        .map(|b| {
            f.block(BlockId(b as u32))
                .insts
                .iter()
                .map_while(|&iv| match f.inst(iv) {
                    Some(Inst::Phi { incoming }) => Some((iv, incoming.as_slice())),
                    _ => None,
                })
                .collect()
        })
        .collect();

    // Edge 0 is the shared empty edge of every successor without phis.
    let mut edges = vec![Edge {
        moves: Box::new([]),
        buffered: false,
        n_phis: 0,
        succ: 0,
    }];
    let mut edge_for = |succ: BlockId, pred: BlockId| -> u32 {
        let phis = &block_phis[succ.index()];
        if phis.is_empty() {
            return 0;
        }
        let mut moves = Vec::new();
        for &(pv, incoming) in phis {
            let v = incoming
                .iter()
                .find(|(b, _)| *b == pred)
                .map(|&(_, v)| v)
                .expect("verified: a phi names every predecessor");
            // A phi or incoming value without a kind is never computed:
            // the edge is never taken.
            if let (Some(k), Some(_)) = (kinds[pv.index()], kinds[v.index()]) {
                for j in 0..k.width() {
                    moves.push((slot[pv.index()] + j, slot[v.index()] + j));
                }
            }
        }
        let buffered = moves
            .iter()
            .enumerate()
            .any(|(i, &(d, _))| moves[i + 1..].iter().any(|&(_, s)| s == d));
        edges.push(Edge {
            moves: moves.into(),
            buffered,
            n_phis: phis.len() as u32,
            succ: succ.0,
        });
        (edges.len() - 1) as u32
    };

    let mut ops: Vec<Op> = Vec::new();
    let mut block_start = vec![0u32; nb];
    let mut has_barrier = false;
    for b in 0..nb {
        block_start[b] = ops.len() as u32;
        if !reach[b] {
            continue;
        }
        let bid = BlockId(b as u32);
        let insts = &f.block(bid).insts;
        let mut i = block_phis[b].len();
        while i < insts.len() {
            let iv = insts[i];
            let inst = f.inst(iv).expect("verified: blocks hold instructions");
            if let Some(op) = insts.get(i + 1).and_then(|&nv| lower.fused(iv, nv, &uses)) {
                ops.push(op);
                i += 2;
                continue;
            }
            ops.push(match inst {
                Inst::Barrier { .. } => {
                    has_barrier = true;
                    Op::Barrier
                }
                Inst::Ret => Op::Ret,
                Inst::Br { target } => Op::Jump {
                    target: target.0,
                    edge: edge_for(*target, bid),
                },
                Inst::CondBr {
                    cond,
                    then_blk,
                    else_blk,
                } if kinds[cond.index()] == Some(Kind::Bool) => Op::CondJump {
                    c: slot[cond.index()],
                    then_target: then_blk.0,
                    then_edge: edge_for(*then_blk, bid),
                    else_target: else_blk.0,
                    else_edge: edge_for(*else_blk, bid),
                },
                _ => lower.hot(iv, inst).unwrap_or(Op::Cold {
                    iv: iv.0,
                    class: class_of(inst),
                }),
            });
            i += 1;
        }
    }

    // Patch branch targets from block ids to op indices.
    for op in &mut ops {
        match op {
            Op::Jump { target, .. } => *target = block_start[*target as usize],
            Op::CondJump {
                then_target,
                else_target,
                ..
            } => {
                *then_target = block_start[*then_target as usize];
                *else_target = block_start[*else_target as usize];
            }
            _ => {}
        }
    }

    let block_first_value: Vec<u32> = (0..nb)
        .map(|b| {
            f.block(BlockId(b as u32))
                .insts
                .first()
                .map_or(u32::MAX, |iv| iv.0)
        })
        .collect();

    CompiledKernel {
        ops,
        edges,
        entry: block_start[f.entry.index()],
        kinds,
        slot,
        regs_base,
        has_barrier,
        block_start,
        block_first_value,
    }
}

/// Per-work-item bytecode execution state (the registers live in the
/// worker's register files).
struct BcItem {
    pc: u32,
    done: bool,
    insts: u64,
    lid: [u64; 3],
    wg: [u64; 3],
    local_linear: u32,
}

/// Per-worker scratch: work-item states, register files, the group's local
/// memory and the phi parallel-copy buffer, allocated once and reset per
/// group.
#[derive(Default)]
pub(crate) struct BcScratch {
    items: Vec<BcItem>,
    /// One register file shared by every item of a barrier-free kernel,
    /// one per item otherwise; seeded from the launch template when
    /// allocated and never reseeded (no op writes a parameter or constant
    /// slot, and every instruction slot is written before it is read).
    regs: Vec<u64>,
    local_mem: Vec<BufferData>,
    copy_buf: Vec<u64>,
}

enum BcStop {
    Barrier(u32),
    Done,
}

/// Execute one work-group of a compiled launch. The exact mirror of the
/// interpreter's `run_group`: same deadline/fault hooks, local-memory
/// reset, barrier rendezvous rules and trace/statistics protocol.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_group(
    prog: &LaunchProgram,
    launch: &LaunchCtx<'_>,
    wg: [u64; 3],
    group_linear: u32,
    sink: &mut dyn TraceSink,
    budget: &mut LocalBudget<'_>,
    scratch: &mut BcScratch,
    mut prof: Option<&mut ProfBuf>,
) -> Result<GroupStats, ExecError> {
    let nd = launch.nd;
    let ck = &prog.compiled;

    launch.pool.check_deadline()?;
    #[cfg(feature = "fault-injection")]
    let corrupt_group = match &launch.fault {
        Some(i) => i.group_hook(group_linear)?,
        None => false,
    };
    #[cfg(not(feature = "fault-injection"))]
    let corrupt_group = false;
    #[cfg(feature = "fault-injection")]
    let load_offset = match &launch.fault {
        Some(i) => i.load_offset(group_linear).unwrap_or(0),
        None => 0,
    };
    #[cfg(not(feature = "fault-injection"))]
    let load_offset = 0;

    // (Re)initialise this group's local memory from the launch template.
    if scratch.local_mem.len() != launch.local_templ.len() {
        scratch.local_mem = launch
            .local_templ
            .iter()
            .map(|&(elem, elems)| match elem {
                Scalar::F32 => BufferData::F32(vec![0.0; elems]),
                Scalar::I32 | Scalar::Bool => BufferData::I32(vec![0; elems]),
                Scalar::I64 => BufferData::I64(vec![0; elems]),
            })
            .collect();
    } else {
        for data in &mut scratch.local_mem {
            match data {
                BufferData::F32(v) => v.fill(0.0),
                BufferData::I32(v) => v.fill(0),
                BufferData::I64(v) => v.fill(0),
            }
        }
    }

    // (Re)initialise the work-item states; register files are seeded only
    // when first allocated.
    let (lsx, lsy, lsz) = (nd.local[0], nd.local[1], nd.local[2]);
    let n_items = (lsx * lsy * lsz) as usize;
    let nslots = prog.regs_init.len();
    let files = if ck.has_barrier { n_items } else { 1 };
    if scratch.regs.len() != files * nslots {
        scratch.regs = prog.regs_init.repeat(files);
    }
    scratch.items.clear();
    for lz in 0..lsz {
        for ly in 0..lsy {
            for lx in 0..lsx {
                let local_linear = scratch.items.len() as u32;
                scratch.items.push(BcItem {
                    pc: ck.entry,
                    done: false,
                    insts: 0,
                    lid: [lx, ly, lz],
                    wg,
                    local_linear,
                });
            }
        }
    }

    let BcScratch {
        items,
        regs,
        local_mem,
        copy_buf,
    } = scratch;
    let mut run = GroupRun {
        launch,
        local_mem,
        group_linear,
        corrupt_stores: launch.corrupt_launch || corrupt_group,
        load_offset,
    };
    let wants = sink.wants_events();
    let mut stats = GroupStats {
        items: n_items as u64,
        ..GroupStats::default()
    };

    // Barrier-synchronised rounds, identical to the interpreter's.
    loop {
        let mut barrier_at: Option<u32> = None;
        let mut all_done = true;
        for (i, wi) in items.iter_mut().enumerate() {
            if wi.done {
                continue;
            }
            let file = if ck.has_barrier { i } else { 0 };
            let stop = run_item(
                ck,
                &mut run,
                wi,
                &mut regs[file * nslots..(file + 1) * nslots],
                copy_buf,
                sink,
                budget,
                wants,
                prof.as_deref_mut(),
            )?;
            match stop {
                BcStop::Done => {
                    wi.done = true;
                    sink.workitem_done(group_linear, wi.local_linear, wi.insts);
                    stats.instructions += wi.insts;
                    wi.insts = 0;
                }
                BcStop::Barrier(at) => {
                    all_done = false;
                    match barrier_at {
                        None => barrier_at = Some(at),
                        Some(prev) if prev == at => {}
                        Some(_) => return Err(ExecError::BarrierDivergence),
                    }
                }
            }
        }
        if all_done {
            break;
        }
        if barrier_at.is_some() && items.iter().any(|w| w.done) {
            // Some items returned while others wait at a barrier.
            return Err(ExecError::BarrierDivergence);
        }
        stats.barriers += 1;
        sink.barrier(group_linear, n_items as u32);
    }
    Ok(stats)
}

/// The dispatch loop: run one work-item until it returns or reaches a
/// barrier. Every op increments the instruction counter and spends budget
/// before executing (fused ops twice), mirroring the interpreter's
/// per-instruction accounting and fault-site order.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn run_item(
    ck: &CompiledKernel,
    r: &mut GroupRun<'_, '_>,
    wi: &mut BcItem,
    regs: &mut [u64],
    copy_buf: &mut Vec<u64>,
    sink: &mut dyn TraceSink,
    budget: &mut LocalBudget<'_>,
    wants: bool,
    mut prof: Option<&mut ProfBuf>,
) -> Result<BcStop, ExecError> {
    let ops = &ck.ops[..];
    loop {
        let op = ops[wi.pc as usize];
        if let Some(p) = prof.as_deref_mut() {
            p.op_counts[wi.pc as usize] += 1;
        }
        wi.insts += 1;
        budget.spend()?;
        macro_rules! bin {
            ($f:expr, $x:expr) => {
                regs[$x.d as usize] = $f(regs[$x.a as usize], regs[$x.b as usize])
            };
        }
        macro_rules! un {
            ($f:expr, $x:expr) => {
                regs[$x.d as usize] = $f(regs[$x.s as usize])
            };
        }
        match op {
            Op::AddI32(x) => bin!(add_i32, x),
            Op::SubI32(x) => bin!(sub_i32, x),
            Op::MulI32(x) => bin!(mul_i32, x),
            Op::AddI64(x) => bin!(u64::wrapping_add, x),
            Op::SubI64(x) => bin!(u64::wrapping_sub, x),
            Op::MulI64(x) => bin!(u64::wrapping_mul, x),
            Op::IntI32(op, x) => {
                regs[x.d as usize] = int_i32(op, regs[x.a as usize], regs[x.b as usize])?;
            }
            Op::IntI64(op, x) => {
                regs[x.d as usize] = int_i64(op, regs[x.a as usize], regs[x.b as usize])?;
            }
            Op::FAdd(x) => bin!(fadd, x),
            Op::FSub(x) => bin!(fsub, x),
            Op::FMul(x) => bin!(fmul, x),
            Op::FDiv(x) => bin!(fdiv, x),
            Op::VecF32(op, n, x) => {
                let (a, b, d) = (x.a as usize, x.b as usize, x.d as usize);
                let w = vec_f32(op, n, [regs[a], regs[a + 1]], [regs[b], regs[b + 1]]);
                regs[d] = w[0];
                regs[d + 1] = w[1];
            }
            Op::CmpI32(pred, x) => bin!(|a, b| cmp_i32(pred, a, b), x),
            Op::CmpI64(pred, x) => bin!(|a, b| cmp_i64(pred, a, b), x),
            Op::CmpF32(pred, x) => bin!(|a, b| cmp_f32(pred, a, b), x),
            Op::Select { d, c, t, e, wide } => {
                let s = if regs[c as usize] != 0 { t } else { e } as usize;
                regs[d as usize] = regs[s];
                if wide {
                    regs[d as usize + 1] = regs[s + 1];
                }
            }
            Op::TruncI64I32(x) => un!(trunc_i64_i32, x),
            Op::SExtI32I64(x) => un!(sext_i32_i64, x),
            Op::ZExtI32I64(x) => un!(zext_i32_i64, x),
            Op::SiToFpI32F32(x) => un!(sitofp_i32_f32, x),
            Op::FpToSiF32I32(x) => un!(fptosi_f32_i32, x),
            Op::MinI32(x) => bin!(min_i32, x),
            Op::MaxI32(x) => bin!(max_i32, x),
            Op::FabsF32(x) => un!(fabs_f32, x),
            Op::Query { which, dim, d } => {
                let v = workitem_query(&r.launch.nd, &wi.lid, &wi.wg, which, dim as usize);
                regs[d as usize] = v;
            }
            Op::Gep {
                d,
                base,
                index,
                elem,
            } => {
                let offset =
                    regs[base as usize] as i64 + regs[index as usize] as i64 * i64::from(elem);
                regs[d as usize] = offset as u64;
                regs[d as usize + 1] = regs[base as usize + 1];
            }
            Op::Load {
                d,
                ptr,
                space,
                lanes,
                bytes,
                pc,
            } => {
                let p = ptr_at(regs, ptr, space);
                load_to(r, regs, d, p, lanes, bytes)?;
                if wants {
                    emit_at(sink, r, wi.local_linear, TraceOp::Load, p, bytes, pc);
                }
            }
            Op::GepLoad {
                d,
                base,
                index,
                elem,
                space,
                lanes,
                bytes,
                pc,
            } => {
                let p = gep_at(regs, base, index, elem, space);
                // Second IR instruction of the fused pair.
                wi.insts += 1;
                budget.spend()?;
                load_to(r, regs, d, p, lanes, bytes)?;
                if wants {
                    emit_at(sink, r, wi.local_linear, TraceOp::Load, p, bytes, pc);
                }
            }
            Op::Store {
                ptr,
                v,
                space,
                kind,
                bytes,
                pc,
            } => {
                let p = ptr_at(regs, ptr, space);
                store_from(r, regs, p, v, kind)?;
                if wants {
                    emit_at(sink, r, wi.local_linear, TraceOp::Store, p, bytes, pc);
                }
            }
            Op::GepStore {
                base,
                index,
                elem,
                v,
                space,
                kind,
                bytes,
                pc,
            } => {
                let p = gep_at(regs, base, index, elem, space);
                // Second IR instruction of the fused pair.
                wi.insts += 1;
                budget.spend()?;
                store_from(r, regs, p, v, kind)?;
                if wants {
                    emit_at(sink, r, wi.local_linear, TraceOp::Store, p, bytes, pc);
                }
            }
            Op::Extract { d, v, lane, int } => {
                regs[d as usize] = extract(regs[v as usize + lane as usize / 2], lane, int);
            }
            Op::Insert { d, v, lane, x } => {
                let (d, v) = (d as usize, v as usize);
                let w = insert([regs[v], regs[v + 1]], lane, regs[x as usize]);
                regs[d] = w[0];
                regs[d + 1] = w[1];
            }
            Op::BuildVector { d, lanes, n } => {
                let w = build_words(n, |j| regs[lanes[j] as usize]);
                regs[d as usize] = w[0];
                regs[d as usize + 1] = w[1];
            }
            Op::Jump { target, edge } => {
                take_edge(ck, edge, wi, regs, copy_buf, prof.as_deref_mut());
                wi.pc = target;
                continue;
            }
            Op::CondJump {
                c,
                then_target,
                then_edge,
                else_target,
                else_edge,
            } => {
                let (t, e) = if regs[c as usize] != 0 {
                    (then_target, then_edge)
                } else {
                    (else_target, else_edge)
                };
                take_edge(ck, e, wi, regs, copy_buf, prof.as_deref_mut());
                wi.pc = t;
                continue;
            }
            Op::Barrier => {
                let at = wi.pc;
                wi.pc += 1;
                return Ok(BcStop::Barrier(at));
            }
            Op::Ret => return Ok(BcStop::Done),
            Op::Cold { iv, .. } => run_cold(ck, r, wi, regs, sink, ValueId(iv))?,
        }
        wi.pc += 1;
    }
}

/// Apply edge `idx`'s phi moves (parallel-copy semantics, like the
/// interpreter's phi batch) and count its phis.
#[inline(always)]
fn take_edge(
    ck: &CompiledKernel,
    idx: u32,
    wi: &mut BcItem,
    regs: &mut [u64],
    copy_buf: &mut Vec<u64>,
    prof: Option<&mut ProfBuf>,
) {
    let e = &ck.edges[idx as usize];
    if let Some(p) = prof {
        p.edge_counts[idx as usize] += 1;
    }
    if e.buffered {
        copy_buf.clear();
        copy_buf.extend(e.moves.iter().map(|&(_, s)| regs[s as usize]));
        for (&(d, _), &w) in e.moves.iter().zip(copy_buf.iter()) {
            regs[d as usize] = w;
        }
    } else {
        for &(d, s) in e.moves.iter() {
            regs[d as usize] = regs[s as usize];
        }
    }
    wi.insts += u64::from(e.n_phis);
}

/// Run IR instruction `iv` through the interpreter's evaluator on `Val`s
/// read from its operands' slots, and write its result back to its slot.
#[cold]
#[inline(never)]
fn run_cold(
    ck: &CompiledKernel,
    r: &mut GroupRun<'_, '_>,
    wi: &BcItem,
    regs: &mut [u64],
    sink: &mut dyn TraceSink,
    iv: ValueId,
) -> Result<(), ExecError> {
    let f = r.launch.f;
    let inst = f
        .inst(iv)
        .ok_or_else(|| ExecError::Internal(format!("cold op v{} is no instruction", iv.0)))?;
    let out = {
        let regs = &*regs;
        let read = |v: ValueId| match ck.kinds[v.index()] {
            Some(k) => Ok(read_val(regs, ck.slot[v.index()] as usize, k)),
            None => Err(ExecError::Internal(format!(
                "read of v{}, which is never computed",
                v.0
            ))),
        };
        if let Inst::CondBr { cond, .. } = inst {
            // Lowered cold only for a non-bool condition: raises the
            // interpreter's error.
            branch_cond(read(*cond)?)?;
            return Err(ExecError::Internal("cold branch on a bool".into()));
        }
        eval_inst(r, &wi.lid, &wi.wg, iv, inst, sink, read)?
    };
    match (out, ck.kinds[iv.index()]) {
        (Some(v), Some(k)) => write_val(regs, ck.slot[iv.index()] as usize, k, v),
        (None, _) => Ok(()),
        (Some(v), None) => Err(ExecError::Internal(format!(
            "v{} produced {v:?} but was lowered as never computed",
            iv.0
        ))),
    }
}

/// The pointer in slots `s`, `s + 1`.
#[inline(always)]
fn ptr_at(regs: &[u64], s: u32, space: AddressSpace) -> PtrVal {
    PtrVal {
        space,
        buf: regs[s as usize + 1] as u32,
        offset: regs[s as usize] as i64,
    }
}

/// `base + index * elem` bytes, as the interpreter's `gep` computes it
/// (an integer index slot of any kind reads as its `as_int` value).
#[inline(always)]
fn gep_at(regs: &[u64], base: u32, index: u32, elem: u32, space: AddressSpace) -> PtrVal {
    let p = ptr_at(regs, base, space);
    PtrVal {
        offset: p.offset + regs[index as usize] as i64 * i64::from(elem),
        ..p
    }
}

/// Load `lanes` lanes through `p` into the slots from `d` on, including
/// the load-offset fault's offset-then-fallback behaviour. The trace event
/// is emitted by the caller with the unoffset pointer, like the
/// interpreter.
#[inline(always)]
fn load_to(
    r: &GroupRun<'_, '_>,
    regs: &mut [u64],
    d: u32,
    p: PtrVal,
    lanes: u8,
    bytes: u32,
) -> Result<(), ExecError> {
    let w = if r.load_offset != 0 && p.space == AddressSpace::Global {
        let pp = PtrVal {
            offset: p.offset + r.load_offset * i64::from(bytes),
            ..p
        };
        load_words(r, pp, lanes).or_else(|_| load_words(r, p, lanes))?
    } else {
        load_words(r, p, lanes)?
    };
    regs[d as usize] = w[0];
    if lanes > 1 {
        regs[d as usize + 1] = w[1];
    }
    Ok(())
}

#[inline(always)]
fn load_words(r: &GroupRun<'_, '_>, p: PtrVal, lanes: u8) -> Result<[u64; 2], ExecError> {
    match p.space {
        AddressSpace::Local => r.local_mem[p.buf as usize].load_words(p.offset, lanes),
        _ => r.launch.mem.load_words(p.buf, p.offset, lanes),
    }
}

/// Store the value of kind `kind` in the slots from `v` on through `p`,
/// perturbed like the interpreter's store when the group corrupts global
/// stores.
#[inline(always)]
fn store_from(
    r: &mut GroupRun<'_, '_>,
    regs: &[u64],
    p: PtrVal,
    v: u32,
    kind: Kind,
) -> Result<(), ExecError> {
    if r.corrupt_stores && p.space == AddressSpace::Global {
        return mem_store(r, p, corrupt_val(read_val(regs, v as usize, kind)));
    }
    let lanes = kind.lanes();
    let w = [
        regs[v as usize],
        if lanes > 1 { regs[v as usize + 1] } else { 0 },
    ];
    match p.space {
        AddressSpace::Local => r.local_mem[p.buf as usize].store_words(p.offset, lanes, w),
        _ => r.launch.mem.store_words(p.buf, p.offset, lanes, w),
    }
}

// ---- Kind-fixed op semantics on raw slots ----------------------------------
//
// Each function is bit-identical to the `eval_*` arm it replaces for its
// operand kinds (the `typed_ops_match_eval` test checks every one on edge
// values).

/// An `i32` slot (sign-extended).
#[inline(always)]
fn sx(x: i32) -> u64 {
    x as i64 as u64
}

/// An `f32` slot (its bits).
#[inline(always)]
fn fw(x: f32) -> u64 {
    u64::from(x.to_bits())
}

#[inline(always)]
fn wf(w: u64) -> f32 {
    f32::from_bits(w as u32)
}

#[inline(always)]
fn add_i32(a: u64, b: u64) -> u64 {
    sx((a as i32).wrapping_add(b as i32))
}

#[inline(always)]
fn sub_i32(a: u64, b: u64) -> u64 {
    sx((a as i32).wrapping_sub(b as i32))
}

#[inline(always)]
fn mul_i32(a: u64, b: u64) -> u64 {
    sx((a as i32).wrapping_mul(b as i32))
}

#[inline(always)]
fn int_i32(op: BinOp, a: u64, b: u64) -> Result<u64, ExecError> {
    int_op(op, a as i64, b as i64, false).map(|v| sx(v as i32))
}

#[inline(always)]
fn int_i64(op: BinOp, a: u64, b: u64) -> Result<u64, ExecError> {
    int_op(op, a as i64, b as i64, true).map(|v| v as u64)
}

#[inline(always)]
fn fadd(a: u64, b: u64) -> u64 {
    fw(float_op(BinOp::FAdd, wf(a), wf(b)))
}

#[inline(always)]
fn fsub(a: u64, b: u64) -> u64 {
    fw(float_op(BinOp::FSub, wf(a), wf(b)))
}

#[inline(always)]
fn fmul(a: u64, b: u64) -> u64 {
    fw(float_op(BinOp::FMul, wf(a), wf(b)))
}

#[inline(always)]
fn fdiv(a: u64, b: u64) -> u64 {
    fw(float_op(BinOp::FDiv, wf(a), wf(b)))
}

/// `op` lane-wise over the first `n` lanes (the rest are zero, like the
/// interpreter's vector result).
fn vec_f32(op: BinOp, n: u8, a: [u64; 2], b: [u64; 2]) -> [u64; 2] {
    build_words(n, |j| {
        let lane = |w: [u64; 2]| f32::from_bits((w[j / 2] >> (32 * (j % 2))) as u32);
        fw(float_op(op, lane(a), lane(b)))
    })
}

#[inline(always)]
fn cmp_i32(pred: CmpPred, a: u64, b: u64) -> u64 {
    u64::from(int_cmp(pred, a as i64, b as i64, false) == Some(true))
}

#[inline(always)]
fn cmp_i64(pred: CmpPred, a: u64, b: u64) -> u64 {
    u64::from(int_cmp(pred, a as i64, b as i64, true) == Some(true))
}

#[inline(always)]
fn cmp_f32(pred: CmpPred, a: u64, b: u64) -> u64 {
    u64::from(float_cmp(pred, wf(a), wf(b)) == Some(true))
}

#[inline(always)]
fn trunc_i64_i32(w: u64) -> u64 {
    sx(w as i32)
}

/// Already sign-extended: the slot is unchanged.
#[inline(always)]
fn sext_i32_i64(w: u64) -> u64 {
    w
}

#[inline(always)]
fn zext_i32_i64(w: u64) -> u64 {
    u64::from(w as u32)
}

#[inline(always)]
fn sitofp_i32_f32(w: u64) -> u64 {
    fw(w as i32 as f32)
}

#[inline(always)]
fn fptosi_f32_i32(w: u64) -> u64 {
    sx(wf(w) as i32)
}

#[inline(always)]
fn min_i32(a: u64, b: u64) -> u64 {
    sx((a as i64).min(b as i64) as i32)
}

#[inline(always)]
fn max_i32(a: u64, b: u64) -> u64 {
    sx((a as i64).max(b as i64) as i32)
}

#[inline(always)]
fn fabs_f32(w: u64) -> u64 {
    fw(wf(w).abs())
}

/// Lane `lane` of a vector, from the slot word holding it: an `f32` as its
/// bits, an `i32` sign-extended.
#[inline(always)]
fn extract(word: u64, lane: u8, int: bool) -> u64 {
    let x = (word >> (32 * (lane % 2))) as u32;
    if int {
        sx(x as i32)
    } else {
        u64::from(x)
    }
}

/// The vector in words `v` with lane `lane` replaced by the low 32 bits of
/// slot `x`.
#[inline(always)]
fn insert(mut v: [u64; 2], lane: u8, x: u64) -> [u64; 2] {
    let (i, sh) = (lane as usize / 2, 32 * (lane % 2));
    v[i] = (v[i] & !(0xffff_ffffu64 << sh)) | (x & 0xffff_ffff) << sh;
    v
}

/// Vector words from the low 32 bits of `n` lane slots (the rest zero).
#[inline(always)]
fn build_words(n: u8, lane: impl Fn(usize) -> u64) -> [u64; 2] {
    let mut w = [0u64; 2];
    for j in 0..n as usize {
        w[j / 2] |= (lane(j) & 0xffff_ffff) << (32 * (j % 2));
    }
    w
}

/// Render the bytecode a function lowers to as stable, diffable text: the
/// register seed table, the op array and the phi edge table. Every slot
/// operand is shown with its kind (`r12:i32`). Used by the golden-snapshot
/// suite (`tests/golden/bytecode/`).
pub fn disassemble(f: &Function) -> String {
    use std::fmt::Write as _;
    let kinds = match check_kernel(f) {
        Ok(k) => k,
        Err(e) => return format!("{e}\n"),
    };
    let ck = compile(f, kinds);
    // Slot → kind of the value starting there, for operand annotations.
    let mut slot_kind = vec![None; ck.regs_base.len()];
    for (v, &s) in ck.slot.iter().enumerate() {
        if s != u32::MAX {
            slot_kind[s as usize] = ck.kinds[v];
        }
    }
    let r = |s: u32| match slot_kind.get(s as usize).copied().flatten() {
        Some(k) => format!("r{s}:{k}"),
        None => format!("r{s}"),
    };
    let mut out = String::new();
    let _ = writeln!(out, "entry @{:04}", ck.entry);
    let _ = writeln!(out, "slots {}", ck.regs_base.len());
    let mut seeds = String::new();
    for i in 0..f.num_values() {
        if ck.slot[i] == u32::MAX {
            continue;
        }
        let reg = r(ck.slot[i]);
        match &f.value(ValueId(i as u32)).def {
            ValueDef::Param(p) => {
                let _ = writeln!(seeds, "  {reg} = param {p}");
            }
            ValueDef::Const(c) => {
                let _ = writeln!(seeds, "  {reg} = const {c:?}");
            }
            ValueDef::LocalBuf(id) => {
                let _ = writeln!(seeds, "  {reg} = local {}", id.0);
            }
            ValueDef::Inst(_) => {}
        }
    }
    if !seeds.is_empty() {
        out.push_str("seeds:\n");
        out.push_str(&seeds);
    }
    out.push_str("ops:\n");
    for (i, op) in ck.ops.iter().enumerate() {
        let _ = writeln!(out, "  {i:04}: {}", fmt_op(op, &r, &ck));
    }
    if ck.edges.len() > 1 {
        out.push_str("edges:\n");
        for (i, e) in ck.edges.iter().enumerate() {
            let moves: Vec<String> = e
                .moves
                .iter()
                .map(|&(d, s)| format!("{} <- {}", r(d), r(s)))
                .collect();
            let _ = writeln!(
                out,
                "  {i}: phis={} {}",
                e.n_phis,
                if moves.is_empty() {
                    "(none)".to_string()
                } else {
                    moves.join(", ")
                }
            );
        }
    }
    out
}

fn fmt_op(op: &Op, r: &dyn Fn(u32) -> String, ck: &CompiledKernel) -> String {
    let bin = |name: &str, x: Binary| format!("{name} {}, {}, {}", r(x.d), r(x.a), r(x.b));
    let un = |name: &str, x: Unary| format!("{name} {}, {}", r(x.d), r(x.s));
    let mem = |base: u32, index: u32, elem: u32| format!("[{} + {} * {elem}]", r(base), r(index));
    match *op {
        Op::AddI32(x) => bin("add.i32", x),
        Op::SubI32(x) => bin("sub.i32", x),
        Op::MulI32(x) => bin("mul.i32", x),
        Op::AddI64(x) => bin("add.i64", x),
        Op::SubI64(x) => bin("sub.i64", x),
        Op::MulI64(x) => bin("mul.i64", x),
        Op::IntI32(op, x) => bin(&format!("{}.i32", op.mnemonic()), x),
        Op::IntI64(op, x) => bin(&format!("{}.i64", op.mnemonic()), x),
        Op::FAdd(x) => bin("fadd.f32", x),
        Op::FSub(x) => bin("fsub.f32", x),
        Op::FMul(x) => bin("fmul.f32", x),
        Op::FDiv(x) => bin("fdiv.f32", x),
        Op::VecF32(op, n, x) => bin(&format!("{}.v{n}f32", op.mnemonic()), x),
        Op::CmpI32(pred, x) => bin(&format!("cmp.{}.i32", pred.mnemonic()), x),
        Op::CmpI64(pred, x) => bin(&format!("cmp.{}.i64", pred.mnemonic()), x),
        Op::CmpF32(pred, x) => bin(&format!("cmp.{}.f32", pred.mnemonic()), x),
        Op::Select { d, c, t, e, .. } => {
            format!("select {}, {} ? {} : {}", r(d), r(c), r(t), r(e))
        }
        Op::TruncI64I32(x) => un("trunc.i64.i32", x),
        Op::SExtI32I64(x) => un("sext.i32.i64", x),
        Op::ZExtI32I64(x) => un("zext.i32.i64", x),
        Op::SiToFpI32F32(x) => un("sitofp.i32.f32", x),
        Op::FpToSiF32I32(x) => un("fptosi.f32.i32", x),
        Op::MinI32(x) => bin("min.i32", x),
        Op::MaxI32(x) => bin("max.i32", x),
        Op::FabsF32(x) => un("fabs.f32", x),
        Op::Query { which, dim, d } => format!("query.{} {}, dim={dim}", which.name(), r(d)),
        Op::Gep {
            d,
            base,
            index,
            elem,
        } => format!("gep {}, {}", r(d), mem(base, index, elem)),
        Op::Load {
            d, ptr, bytes, pc, ..
        } => format!("load {}, [{}] bytes={bytes} pc=v{pc}", r(d), r(ptr)),
        Op::GepLoad {
            d,
            base,
            index,
            elem,
            bytes,
            pc,
            ..
        } => format!(
            "gep.load {}, {} bytes={bytes} pc=v{pc}",
            r(d),
            mem(base, index, elem)
        ),
        Op::Store {
            ptr, v, bytes, pc, ..
        } => format!("store [{}], {} bytes={bytes} pc=v{pc}", r(ptr), r(v)),
        Op::GepStore {
            base,
            index,
            elem,
            v,
            bytes,
            pc,
            ..
        } => format!(
            "gep.store {}, {} bytes={bytes} pc=v{pc}",
            mem(base, index, elem),
            r(v)
        ),
        Op::Extract { d, v, lane, .. } => format!("extract {}, {}[{lane}]", r(d), r(v)),
        Op::Insert { d, v, lane, x } => format!("insert {}, {}[{lane}] = {}", r(d), r(v), r(x)),
        Op::BuildVector { d, lanes, n } => {
            let a: Vec<String> = lanes[..n as usize].iter().map(|&x| r(x)).collect();
            format!("bvec {}, [{}]", r(d), a.join(", "))
        }
        Op::Jump { target, edge } => format!("jump @{target:04} edge={edge}"),
        Op::CondJump {
            c,
            then_target,
            then_edge,
            else_target,
            else_edge,
        } => format!(
            "cjump {} ? @{then_target:04} edge={then_edge} : @{else_target:04} edge={else_edge}",
            r(c)
        ),
        Op::Barrier => "barrier".to_string(),
        Op::Ret => "ret".to_string(),
        Op::Cold { iv, class } => match ck.slot[iv as usize] {
            u32::MAX => format!("cold.{class} v{iv}"),
            s => format!("cold.{class} {} = v{iv}", r(s)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integer edge values: sign and width boundaries, every interesting
    /// shift count, and the `i32::MIN / -1` pair.
    const INTS: [i64; 22] = [
        0,
        1,
        -1,
        2,
        31,
        32,
        33,
        63,
        64,
        65,
        -31,
        -32,
        -64,
        i32::MAX as i64,
        i32::MIN as i64,
        i32::MAX as i64 + 1,
        i32::MIN as i64 - 1,
        u32::MAX as i64,
        0x5555_5555,
        0x1234_5678_9abc_def0,
        i64::MAX,
        i64::MIN,
    ];

    /// Float edge values: signed zeros, subnormals, infinities, NaN
    /// payloads and values outside the `i32` range.
    fn floats() -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.5,
            3.0,
            2.5e9,
            -2.5e9,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x8000_0001), // negative subnormal
            f32::from_bits(0x007f_ffff), // largest subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc0_0001), // quiet NaN with a payload
            f32::from_bits(0xffc0_1234), // negative quiet NaN with a payload
            f32::from_bits(0x7f80_0001), // signalling NaN
        ]
    }

    fn vals(k: Kind) -> Vec<Val> {
        match k {
            Kind::Bool => vec![Val::Bool(false), Val::Bool(true)],
            Kind::I32 => INTS.iter().map(|&x| Val::I32(x as i32)).collect(),
            Kind::I64 => INTS.iter().map(|&x| Val::I64(x)).collect(),
            Kind::F32 => floats().into_iter().map(Val::F32).collect(),
            Kind::VF32(n) => {
                let f = floats();
                (0..f.len())
                    .map(|i| {
                        let mut a = [0.0; 4];
                        for (j, x) in a.iter_mut().take(n as usize).enumerate() {
                            *x = f[(i + 5 * j) % f.len()];
                        }
                        Val::VF32(a, n)
                    })
                    .collect()
            }
            Kind::VI32(n) => (0..INTS.len())
                .map(|i| {
                    let mut a = [0; 4];
                    for (j, x) in a.iter_mut().take(n as usize).enumerate() {
                        *x = INTS[(i + 7 * j) % INTS.len()] as i32;
                    }
                    Val::VI32(a, n)
                })
                .collect(),
            Kind::Ptr(..) => unreachable!(),
        }
    }

    /// The slots of `v` as kind `k`, so results compare bit for bit.
    fn slots(k: Kind, v: Val) -> [u64; 2] {
        let mut r = [0u64; 2];
        write_val(&mut r, 0, k, v).expect("eval result of the inferred kind");
        r
    }

    /// Compare a binary typed op with the `eval_*` call it replaces over
    /// every pair of edge values: result slots and errors must agree.
    fn check2(
        name: &str,
        (kl, kr, kout): (Kind, Kind, Kind),
        typed: impl Fn([u64; 2], [u64; 2]) -> Result<[u64; 2], ExecError>,
        eval: impl Fn(Val, Val) -> Result<Val, ExecError>,
    ) -> usize {
        let mut n = 0;
        for &a in &vals(kl) {
            for &b in &vals(kr) {
                let want = eval(a, b).map(|v| slots(kout, v));
                let got = typed(slots(kl, a), slots(kr, b));
                assert_eq!(got, want, "{name} {a:?} {b:?}");
                n += 1;
            }
        }
        n
    }

    fn check1(
        name: &str,
        (kin, kout): (Kind, Kind),
        typed: impl Fn([u64; 2]) -> [u64; 2],
        eval: impl Fn(Val) -> Result<Val, ExecError>,
    ) -> usize {
        for &a in &vals(kin) {
            let want = eval(a).map(|v| slots(kout, v));
            assert_eq!(Ok(typed(slots(kin, a))), want, "{name} {a:?}");
        }
        vals(kin).len()
    }

    fn ok(f: fn(u64, u64) -> u64) -> impl Fn([u64; 2], [u64; 2]) -> Result<[u64; 2], ExecError> {
        move |a, b| Ok([f(a[0], b[0]), 0])
    }

    #[test]
    fn typed_ops_match_eval() {
        use BinOp::*;
        use Kind::{Bool, F32, I32, I64, VF32};
        let mut checked = 0;
        let i32s = (I32, I32, I32);
        let i64s = (I64, I64, I64);
        let f32s = (F32, F32, F32);
        let eb = |op: BinOp| move |a, b| eval_bin(op, a, b);
        for (name, f, op) in [
            ("add.i32", add_i32 as fn(u64, u64) -> u64, Add),
            ("sub.i32", sub_i32, Sub),
            ("mul.i32", mul_i32, Mul),
        ] {
            checked += check2(name, i32s, ok(f), eb(op));
        }
        for (name, f, op) in [
            ("add.i64", u64::wrapping_add as fn(u64, u64) -> u64, Add),
            ("sub.i64", u64::wrapping_sub, Sub),
            ("mul.i64", u64::wrapping_mul, Mul),
        ] {
            checked += check2(name, i64s, ok(f), eb(op));
        }
        let int_ops = [
            Add, Sub, Mul, SDiv, UDiv, SRem, URem, Shl, LShr, AShr, And, Or, Xor,
        ];
        for op in int_ops {
            let typed32 = move |a: [u64; 2], b: [u64; 2]| int_i32(op, a[0], b[0]).map(|w| [w, 0]);
            checked += check2(op.mnemonic(), i32s, typed32, eb(op));
            let typed64 = move |a: [u64; 2], b: [u64; 2]| int_i64(op, a[0], b[0]).map(|w| [w, 0]);
            checked += check2(op.mnemonic(), i64s, typed64, eb(op));
        }
        for op in [And, Or, Xor] {
            let typed = move |a: [u64; 2], b: [u64; 2]| int_i32(op, a[0], b[0]).map(|w| [w, 0]);
            checked += check2(op.mnemonic(), (Bool, Bool, Bool), typed, eb(op));
        }
        for (name, f, op) in [
            ("fadd.f32", fadd as fn(u64, u64) -> u64, FAdd),
            ("fsub.f32", fsub, FSub),
            ("fmul.f32", fmul, FMul),
            ("fdiv.f32", fdiv, FDiv),
        ] {
            checked += check2(name, f32s, ok(f), eb(op));
        }
        for n in 2..=4 {
            for op in [FAdd, FSub, FMul, FDiv, FMin, FMax] {
                let typed = move |a, b| Ok(vec_f32(op, n, a, b));
                checked += check2(op.mnemonic(), (VF32(n), VF32(n), VF32(n)), typed, eb(op));
            }
        }
        let int_preds = [
            CmpPred::Eq,
            CmpPred::Ne,
            CmpPred::Slt,
            CmpPred::Sle,
            CmpPred::Sgt,
            CmpPred::Sge,
            CmpPred::Ult,
            CmpPred::Ule,
            CmpPred::Ugt,
            CmpPred::Uge,
        ];
        for pred in int_preds {
            let ec = move |a, b| eval_cmp(pred, a, b);
            let t32 = move |a: [u64; 2], b: [u64; 2]| Ok([cmp_i32(pred, a[0], b[0]), 0]);
            checked += check2(pred.mnemonic(), (I32, I32, Bool), t32, ec);
            checked += check2(pred.mnemonic(), (Bool, Bool, Bool), t32, ec);
            let t64 = move |a: [u64; 2], b: [u64; 2]| Ok([cmp_i64(pred, a[0], b[0]), 0]);
            checked += check2(pred.mnemonic(), (I64, I64, Bool), t64, ec);
        }
        for pred in [
            CmpPred::FEq,
            CmpPred::FNe,
            CmpPred::FLt,
            CmpPred::FLe,
            CmpPred::FGt,
            CmpPred::FGe,
        ] {
            let t = move |a: [u64; 2], b: [u64; 2]| Ok([cmp_f32(pred, a[0], b[0]), 0]);
            checked += check2(pred.mnemonic(), (F32, F32, Bool), t, move |a, b| {
                eval_cmp(pred, a, b)
            });
        }
        let nd = NdRange::d1(1, 1);
        let call = |b: Builtin| move |x: Val, y: Val| eval_call(&nd, &[0; 3], &[0; 3], b, &[x, y]);
        checked += check2("min.i32", i32s, ok(min_i32), call(Builtin::IMin));
        checked += check2("max.i32", i32s, ok(max_i32), call(Builtin::IMax));
        checked += check1(
            "fabs.f32",
            (F32, F32),
            |a| [fabs_f32(a[0]), 0],
            |x| eval_call(&nd, &[0; 3], &[0; 3], Builtin::Fabs, &[x]),
        );
        for (name, kinds, f, kind, to) in [
            (
                "trunc.i64.i32",
                (I64, I32),
                trunc_i64_i32 as fn(u64) -> u64,
                CastKind::Trunc,
                Type::I32,
            ),
            (
                "sext.i32.i64",
                (I32, I64),
                sext_i32_i64,
                CastKind::SExt,
                Type::I64,
            ),
            (
                "zext.i32.i64",
                (I32, I64),
                zext_i32_i64,
                CastKind::ZExt,
                Type::I64,
            ),
            (
                "sitofp.i32.f32",
                (I32, F32),
                sitofp_i32_f32,
                CastKind::SiToFp,
                Type::F32,
            ),
            (
                "fptosi.f32.i32",
                (F32, I32),
                fptosi_f32_i32,
                CastKind::FpToSi,
                Type::I32,
            ),
        ] {
            checked += check1(name, kinds, |a| [f(a[0]), 0], |v| eval_cast(kind, v, to));
        }
        // Lane ops on both vector kinds and every lane count.
        for n in 2..=4u8 {
            for (vk, sk) in [(VF32(n), F32), (Kind::VI32(n), I32)] {
                for lane in 0..n {
                    let int = sk == I32;
                    checked += check1(
                        "extract",
                        (vk, sk),
                        |a| [extract(a[lane as usize / 2], lane, int), 0],
                        |v| v.lane(lane as usize).ok_or(ExecError::DivisionByZero),
                    );
                    checked += check2(
                        "insert",
                        (vk, sk, vk),
                        |v, x| Ok(insert(v, lane, x[0])),
                        |v, x| {
                            v.with_lane(lane as usize, x)
                                .ok_or(ExecError::DivisionByZero)
                        },
                    );
                }
                let typed = |a: [u64; 2], b: [u64; 2]| {
                    Ok(build_words(n, |j| if j % 2 == 0 { a[0] } else { b[0] }))
                };
                let eval = |a: Val, b: Val| {
                    let lanes: Vec<Val> = (0..n).map(|j| if j % 2 == 0 { a } else { b }).collect();
                    build_vector(&lanes)
                };
                checked += check2("bvec", (sk, sk, vk), typed, eval);
            }
        }
        assert!(checked > 20_000, "{checked}");
    }

    #[test]
    fn slots_round_trip_every_kind() {
        for k in [
            Kind::Bool,
            Kind::I32,
            Kind::I64,
            Kind::F32,
            Kind::VF32(3),
            Kind::VI32(4),
        ] {
            for v in vals(k) {
                let mut regs = [0u64; 2];
                write_val(&mut regs, 0, k, v).unwrap();
                let back = read_val(&regs, 0, k);
                assert_eq!(slots(k, back), regs, "{k} {v:?}");
            }
        }
        let p = Val::Ptr(PtrVal {
            space: AddressSpace::Local,
            buf: 3,
            offset: -8,
        });
        let k = Kind::Ptr(AddressSpace::Local, Scalar::I32);
        let mut regs = [0u64; 2];
        write_val(&mut regs, 0, k, p).unwrap();
        assert_eq!(read_val(&regs, 0, k), p);
        assert!(matches!(
            write_val(&mut regs, 0, Kind::I32, Val::I64(1)),
            Err(ExecError::Internal(_))
        ));
    }
}
