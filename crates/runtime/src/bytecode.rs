//! The register-bytecode execution backend.
//!
//! [`compile`](LaunchProgram::prepare) lowers a verified `grover-ir`
//! function into a compact, flat op array: the CFG is linearised with
//! pre-resolved branch targets, constants and `__local` buffer pointers are
//! interned into a register-file template, phi nodes become per-edge
//! parallel-copy move lists, work-item geometry queries with constant
//! dimensions are pre-resolved, and the ubiquitous `gep`+`load`/`store`
//! pairs are fused into single address-computing memory ops. The dispatch
//! loop then executes ops by index — no per-step `HashMap` or block
//! lookups, no per-instruction allocation, no `Option` unwrapping on
//! register reads.
//!
//! The backend is observably identical to the tree-walking interpreter for
//! verified kernels: same output buffers bit-for-bit, same
//! [`LaunchStats`](crate::LaunchStats), same trace streams (including
//! `pc` values, which carry the original IR value ids), same budget
//! accounting and fault-injection sites. Instruction counting mirrors the
//! interpreter exactly: every op increments the work-item instruction
//! counter and spends launch budget *before* executing (a fused op does so
//! twice — once per original IR instruction), and phi parallel-copies add
//! their count without spending budget, exactly like the interpreter's
//! block-head phi batch.
//!
//! Malformed-IR corner cases the interpreter reports at runtime (entry
//! blocks with phis, missing terminators, phis outside a block head or
//! with missing incoming edges) are lowered to dedicated failure ops that
//! raise the identical [`ExecError`] at the same point in execution, so
//! compilation itself is infallible.

use grover_ir::{
    AddressSpace, BinOp, BlockId, Builtin, CastKind, CmpPred, ConstVal, Function, Inst, Scalar,
    Type, ValueDef, ValueId,
};

use crate::buffer::BufferData;
use crate::interp::{
    corrupt_val, emit_at, eval_bin, eval_call, eval_cast, eval_cmp, mem_load, mem_store,
    workitem_query, GroupRun, GroupStats, LaunchCtx, LocalBudget,
};
use crate::trace::{TraceOp, TraceSink};
use crate::val::{PtrVal, Val};
use crate::ExecError;

/// Which execution engine a launch runs on.
///
/// Both engines produce bit-identical output buffers,
/// [`LaunchStats`](crate::LaunchStats) and trace streams for verified
/// kernels; `Bytecode` lowers the kernel once per launch and executes the
/// lowered form in a tight dispatch loop. Every entry point that names no
/// engine runs `Bytecode`. `Interp` is reachable only through
/// [`crate::enqueue_with_backend`]: it is the reference oracle of the
/// differential tests, the fuzzer and the `speedup` bench.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The tree-walking NDRange interpreter (the reference oracle).
    Interp,
    /// The compiled register-bytecode engine (the production engine).
    #[default]
    Bytecode,
}

/// One bytecode op. Operands are register indices (= IR value indices)
/// into the flat per-item register file; branch targets are op indices.
#[derive(Clone, Debug)]
enum Op {
    /// Binary arithmetic/logic: `regs[dst] = lhs <op> rhs`.
    Bin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Comparison: `regs[dst] = lhs <pred> rhs`.
    Cmp {
        pred: CmpPred,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// `regs[dst] = cond ? then_r : else_r` (`cond` must be bool).
    Select {
        dst: u32,
        cond: u32,
        then_r: u32,
        else_r: u32,
    },
    /// Scalar cast.
    Cast {
        kind: CastKind,
        dst: u32,
        src: u32,
        to: Type,
    },
    /// Work-item geometry query with a compile-time constant dimension.
    Query { which: Builtin, dim: u8, dst: u32 },
    /// Generic builtin call; argument registers gathered at dispatch.
    Call {
        builtin: Builtin,
        dst: u32,
        args: Box<[u32]>,
    },
    /// Address arithmetic: `regs[dst] = base + index * elem` bytes.
    Gep {
        dst: u32,
        base: u32,
        index: u32,
        elem: i64,
    },
    /// A `gep` whose base has a non-pointer static type: performs the
    /// interpreter's runtime operand checks, then raises its error.
    GepNoPointee { base: u32, index: u32 },
    /// Memory load; `bytes`/`lanes` pre-computed from the result type,
    /// `pc` carries the original IR value id for the trace stream.
    Load {
        dst: u32,
        ptr: u32,
        lanes: u8,
        bytes: u32,
        pc: u32,
    },
    /// Fused `gep`+`load` (gep immediately precedes its only use):
    /// counts and spends as two instructions.
    GepLoad {
        dst: u32,
        base: u32,
        index: u32,
        elem: i64,
        lanes: u8,
        bytes: u32,
        pc: u32,
    },
    /// Memory store.
    Store {
        ptr: u32,
        value: u32,
        bytes: u32,
        pc: u32,
    },
    /// Fused `gep`+`store`: counts and spends as two instructions.
    GepStore {
        base: u32,
        index: u32,
        elem: i64,
        value: u32,
        bytes: u32,
        pc: u32,
    },
    /// `regs[dst] = vector[lane]`.
    ExtractLane { dst: u32, vector: u32, lane: u32 },
    /// `regs[dst] = vector with [lane] = value`.
    InsertLane {
        dst: u32,
        vector: u32,
        lane: u32,
        value: u32,
    },
    /// Build an `n`-lane vector from scalar registers.
    BuildVector { dst: u32, lanes: [u32; 4], n: u8 },
    /// Unconditional branch: apply the edge's phi moves, jump to `target`.
    Jump { target: u32, edge: u32 },
    /// Conditional branch (`cond` must be bool).
    CondJump {
        cond: u32,
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
    /// Raise a pre-computed error after counting/spending (mirrors
    /// interpreter errors raised after the per-instruction budget spend).
    Fail(ExecError),
    /// Raise a pre-computed error without counting/spending (mirrors
    /// interpreter errors raised before the budget spend: fell-off-block,
    /// non-instruction block entries, entry-block phis).
    FailNoSpend(ExecError),
}

/// The phi parallel-copy list of one CFG edge.
#[derive(Clone, Debug)]
struct Edge {
    /// `(dst, src)` register moves, applied with parallel-copy semantics.
    moves: Box<[(u32, u32)]>,
    /// Phi count of the successor block: added to the work-item
    /// instruction counter without spending budget, like the
    /// interpreter's block-head phi batch.
    n_phis: u32,
    /// Successor block (the block whose phis this edge feeds); the
    /// profiler attributes the edge's phi executions to it.
    succ: u32,
    /// Set when some phi of the successor has no incoming entry for this
    /// edge's predecessor: taking the edge raises this error.
    fail: Option<ExecError>,
}

impl Edge {
    fn empty() -> Edge {
        Edge {
            moves: Box::new([]),
            n_phis: 0,
            succ: 0,
            fail: None,
        }
    }
}

/// A kernel lowered to register bytecode.
pub(crate) struct CompiledKernel {
    ops: Vec<Op>,
    edges: Vec<Edge>,
    /// Register-file template with constants and `__local` buffer
    /// pointers pre-decoded; parameters are seeded per launch.
    regs_base: Vec<Val>,
    /// Op index execution starts at.
    entry: u32,
    /// First op index of each block, in block order (non-decreasing): the
    /// profiler's op-index → block map. Ops past the last entry (the
    /// entry-phi / invalid-entry failure tail) belong to no block.
    block_start: Vec<u32>,
    /// Original IR value id of each block's first instruction (the
    /// block's stable label in profiles), `u32::MAX` for empty blocks.
    block_first_value: Vec<u32>,
}

/// A compiled kernel plus the launch's parameter seeds already applied to
/// the register template: what every worker of one launch executes.
pub(crate) struct LaunchProgram {
    compiled: CompiledKernel,
    regs_init: Vec<Val>,
}

impl LaunchProgram {
    /// Lower `f` and bake the launch's `(register, value)` parameter
    /// seeds into the register-file template.
    pub(crate) fn prepare(f: &Function, params: &[(usize, Val)]) -> LaunchProgram {
        let compiled = compile(f);
        let mut regs_init = compiled.regs_base.clone();
        for &(i, v) in params {
            regs_init[i] = v;
        }
        LaunchProgram {
            compiled,
            regs_init,
        }
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
const KIND_ORDER: [&str; 22] = [
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
    "gep.bad",
    "fail",
    "fail.nospend",
];

impl Op {
    /// Stable kind tag (profile taxonomy; a subset of [`KIND_ORDER`]).
    fn kind_name(&self) -> &'static str {
        match self {
            Op::Bin { .. } => "bin",
            Op::Cmp { .. } => "cmp",
            Op::Select { .. } => "select",
            Op::Cast { .. } => "cast",
            Op::Query { .. } => "query",
            Op::Call { .. } => "call",
            Op::Gep { .. } => "gep",
            Op::GepNoPointee { .. } => "gep.bad",
            Op::Load { .. } => "load",
            Op::GepLoad { .. } => "gep.load",
            Op::Store { .. } => "store",
            Op::GepStore { .. } => "gep.store",
            Op::ExtractLane { .. } => "extract",
            Op::InsertLane { .. } => "insert",
            Op::BuildVector { .. } => "bvec",
            Op::Jump { .. } => "jump",
            Op::CondJump { .. } => "cjump",
            Op::Barrier => "barrier",
            Op::Ret => "ret",
            Op::Fail(_) => "fail",
            Op::FailNoSpend(_) => "fail.nospend",
        }
    }

    /// Budget charge units one execution of this op contributes to
    /// `LaunchStats::instructions`: fused memory ops charge for both
    /// original IR instructions; `FailNoSpend` errors out before the
    /// charge.
    fn charge_units(&self) -> u64 {
        match self {
            Op::GepLoad { .. } | Op::GepStore { .. } => 2,
            Op::FailNoSpend(_) => 0,
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

fn decode_const(c: &ConstVal) -> Val {
    match c {
        ConstVal::Bool(b) => Val::Bool(*b),
        ConstVal::I32(x) => Val::I32(*x),
        ConstVal::I64(x) => Val::I64(*x),
        ConstVal::F32Bits(b) => Val::F32(f32::from_bits(*b)),
    }
}

/// Visit every value operand of `inst` (used for use-counting).
fn for_each_operand(inst: &Inst, mut f: impl FnMut(ValueId)) {
    match inst {
        Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
            f(*lhs);
            f(*rhs);
        }
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => {
            f(*cond);
            f(*then_val);
            f(*else_val);
        }
        Inst::Cast { value, .. } => f(*value),
        Inst::Call { args, .. } => args.iter().copied().for_each(f),
        Inst::Gep { base, index } => {
            f(*base);
            f(*index);
        }
        Inst::Load { ptr } => f(*ptr),
        Inst::Store { ptr, value } => {
            f(*ptr);
            f(*value);
        }
        Inst::ExtractLane { vector, lane } => {
            f(*vector);
            f(*lane);
        }
        Inst::InsertLane {
            vector,
            lane,
            value,
        } => {
            f(*vector);
            f(*lane);
            f(*value);
        }
        Inst::BuildVector { lanes } => lanes.iter().copied().for_each(f),
        Inst::Phi { incoming } => incoming.iter().for_each(|&(_, v)| f(v)),
        Inst::CondBr { cond, .. } => f(*cond),
        Inst::Barrier { .. } | Inst::Br { .. } | Inst::Ret => {}
    }
}

fn count_uses(f: &Function) -> Vec<u32> {
    let mut uses = vec![0u32; f.num_values()];
    for i in 0..f.num_values() {
        if let ValueDef::Inst(inst) = &f.value(ValueId(i as u32)).def {
            for_each_operand(inst, |u| uses[u.index()] += 1);
        }
    }
    uses
}

/// Build the phi parallel-copy edge from `pred` into a block whose
/// prologue phis are `phis`.
fn make_edge(phis: &[(ValueId, &[(BlockId, ValueId)])], pred: BlockId, succ: BlockId) -> Edge {
    let mut moves = Vec::with_capacity(phis.len());
    for (iv, incoming) in phis {
        match incoming.iter().find(|(b, _)| *b == pred) {
            Some((_, v)) => moves.push((iv.index() as u32, v.index() as u32)),
            None => {
                return Edge {
                    moves: Box::new([]),
                    n_phis: 0,
                    succ: succ.0,
                    fail: Some(ExecError::Internal("phi missing incoming edge".into())),
                }
            }
        }
    }
    Edge {
        n_phis: moves.len() as u32,
        moves: moves.into(),
        succ: succ.0,
        fail: None,
    }
}

/// Lower `f` to bytecode. Infallible: malformed-IR cases become failure
/// ops that raise the interpreter's exact error at the same point.
#[allow(clippy::too_many_lines)]
fn compile(f: &Function) -> CompiledKernel {
    let nv = f.num_values();
    let mut regs_base = vec![Val::I32(0); nv];
    for (i, reg) in regs_base.iter_mut().enumerate() {
        match &f.value(ValueId(i as u32)).def {
            ValueDef::Const(c) => *reg = decode_const(c),
            ValueDef::LocalBuf(id) => {
                *reg = Val::Ptr(PtrVal {
                    space: AddressSpace::Local,
                    buf: id.0,
                    offset: 0,
                })
            }
            _ => {}
        }
    }

    let uses = count_uses(f);
    let nb = f.num_blocks();

    // Prologue phis of every block (contiguous run from the block head,
    // terminated by the first non-phi or non-instruction entry — the same
    // scan rule the interpreter's block-head batch uses).
    type BlockPhis<'a> = Vec<(ValueId, &'a [(BlockId, ValueId)])>;
    let mut block_phis: Vec<BlockPhis<'_>> = Vec::with_capacity(nb);
    for b in 0..nb {
        let mut phis = Vec::new();
        for &iv in &f.block(BlockId(b as u32)).insts {
            match f.inst(iv) {
                Some(Inst::Phi { incoming }) => phis.push((iv, incoming.as_slice())),
                _ => break,
            }
        }
        block_phis.push(phis);
    }

    let mut edges = vec![Edge::empty()];
    let edge_for = |edges: &mut Vec<Edge>, succ: BlockId, pred: BlockId| -> u32 {
        let sb = succ.0 as usize;
        if sb >= nb || block_phis[sb].is_empty() {
            return 0;
        }
        edges.push(make_edge(&block_phis[sb], pred, succ));
        (edges.len() - 1) as u32
    };

    let mut ops: Vec<Op> = Vec::new();
    let mut block_start = vec![0u32; nb];
    let reg = |v: ValueId| v.index() as u32;
    for b in 0..nb {
        let bid = BlockId(b as u32);
        block_start[b] = ops.len() as u32;
        let insts = &f.block(bid).insts;
        let mut i = block_phis[b].len();
        while i < insts.len() {
            let iv = insts[i];
            let Some(inst) = f.inst(iv) else {
                ops.push(Op::FailNoSpend(ExecError::Internal(
                    "block entry is not an instruction".into(),
                )));
                i += 1;
                continue;
            };
            match inst {
                Inst::Bin { op, lhs, rhs } => ops.push(Op::Bin {
                    op: *op,
                    dst: reg(iv),
                    lhs: reg(*lhs),
                    rhs: reg(*rhs),
                }),
                Inst::Cmp { pred, lhs, rhs } => ops.push(Op::Cmp {
                    pred: *pred,
                    dst: reg(iv),
                    lhs: reg(*lhs),
                    rhs: reg(*rhs),
                }),
                Inst::Select {
                    cond,
                    then_val,
                    else_val,
                } => ops.push(Op::Select {
                    dst: reg(iv),
                    cond: reg(*cond),
                    then_r: reg(*then_val),
                    else_r: reg(*else_val),
                }),
                Inst::Cast { kind, value, to } => ops.push(Op::Cast {
                    kind: *kind,
                    dst: reg(iv),
                    src: reg(*value),
                    to: *to,
                }),
                Inst::Call { builtin, args } => {
                    // Pre-resolve geometry queries with a constant,
                    // in-range dimension; everything else dispatches
                    // through the shared `eval_call`.
                    let const_dim = if builtin.is_workitem_query() {
                        args.first().and_then(|&a| match &f.value(a).def {
                            ValueDef::Const(ConstVal::I32(x)) => Some(*x as i64),
                            ValueDef::Const(ConstVal::I64(x)) => Some(*x),
                            ValueDef::Const(ConstVal::Bool(x)) => Some(*x as i64),
                            _ => None,
                        })
                    } else {
                        None
                    };
                    match const_dim {
                        Some(d) if (0..3).contains(&d) => ops.push(Op::Query {
                            which: *builtin,
                            dim: d as u8,
                            dst: reg(iv),
                        }),
                        _ => ops.push(Op::Call {
                            builtin: *builtin,
                            dst: reg(iv),
                            args: args.iter().map(|&a| reg(a)).collect(),
                        }),
                    }
                }
                Inst::Gep { base, index } => {
                    let elem = f.ty(*base).pointee().map(|s| s.size_bytes() as i64);
                    let Some(elem) = elem else {
                        ops.push(Op::GepNoPointee {
                            base: reg(*base),
                            index: reg(*index),
                        });
                        i += 1;
                        continue;
                    };
                    // Fuse with an immediately following load/store that
                    // is this gep's only use: one op computes the address
                    // and touches memory (still counted and budgeted as
                    // the two original IR instructions).
                    let next = insts.get(i + 1).copied();
                    let fused = match next.and_then(|nv| f.inst(nv).map(|ni| (nv, ni))) {
                        Some((nv, Inst::Load { ptr })) if *ptr == iv && uses[iv.index()] == 1 => {
                            let ty = f.ty(nv);
                            ops.push(Op::GepLoad {
                                dst: reg(nv),
                                base: reg(*base),
                                index: reg(*index),
                                elem,
                                lanes: ty.lanes(),
                                bytes: ty.size_bytes() as u32,
                                pc: nv.0,
                            });
                            true
                        }
                        Some((nv, Inst::Store { ptr, value }))
                            if *ptr == iv && *value != iv && uses[iv.index()] == 1 =>
                        {
                            ops.push(Op::GepStore {
                                base: reg(*base),
                                index: reg(*index),
                                elem,
                                value: reg(*value),
                                bytes: f.ty(*value).size_bytes() as u32,
                                pc: nv.0,
                            });
                            true
                        }
                        _ => {
                            ops.push(Op::Gep {
                                dst: reg(iv),
                                base: reg(*base),
                                index: reg(*index),
                                elem,
                            });
                            false
                        }
                    };
                    if fused {
                        i += 2;
                        continue;
                    }
                }
                Inst::Load { ptr } => {
                    let ty = f.ty(iv);
                    ops.push(Op::Load {
                        dst: reg(iv),
                        ptr: reg(*ptr),
                        lanes: ty.lanes(),
                        bytes: ty.size_bytes() as u32,
                        pc: iv.0,
                    });
                }
                Inst::Store { ptr, value } => ops.push(Op::Store {
                    ptr: reg(*ptr),
                    value: reg(*value),
                    bytes: f.ty(*value).size_bytes() as u32,
                    pc: iv.0,
                }),
                Inst::ExtractLane { vector, lane } => ops.push(Op::ExtractLane {
                    dst: reg(iv),
                    vector: reg(*vector),
                    lane: reg(*lane),
                }),
                Inst::InsertLane {
                    vector,
                    lane,
                    value,
                } => ops.push(Op::InsertLane {
                    dst: reg(iv),
                    vector: reg(*vector),
                    lane: reg(*lane),
                    value: reg(*value),
                }),
                Inst::BuildVector { lanes } => {
                    if lanes.len() > 4 {
                        ops.push(Op::Fail(ExecError::Unsupported(
                            "vectors wider than 4 lanes".into(),
                        )));
                    } else {
                        let mut a = [0u32; 4];
                        for (j, &l) in lanes.iter().enumerate() {
                            a[j] = reg(l);
                        }
                        ops.push(Op::BuildVector {
                            dst: reg(iv),
                            lanes: a,
                            n: lanes.len() as u8,
                        });
                    }
                }
                Inst::Phi { .. } => ops.push(Op::Fail(ExecError::Internal(
                    "phi outside block head".into(),
                ))),
                Inst::Barrier { .. } => ops.push(Op::Barrier),
                Inst::Ret => ops.push(Op::Ret),
                Inst::Br { target } => {
                    if (target.0 as usize) < nb {
                        let edge = edge_for(&mut edges, *target, bid);
                        ops.push(Op::Jump {
                            target: target.0,
                            edge,
                        });
                    } else {
                        ops.push(Op::Fail(ExecError::Internal(
                            "branch to invalid block".into(),
                        )));
                    }
                }
                Inst::CondBr {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    if (then_blk.0 as usize) < nb && (else_blk.0 as usize) < nb {
                        let then_edge = edge_for(&mut edges, *then_blk, bid);
                        let else_edge = edge_for(&mut edges, *else_blk, bid);
                        ops.push(Op::CondJump {
                            cond: reg(*cond),
                            then_target: then_blk.0,
                            then_edge,
                            else_target: else_blk.0,
                            else_edge,
                        });
                    } else {
                        ops.push(Op::Fail(ExecError::Internal(
                            "branch to invalid block".into(),
                        )));
                    }
                }
            }
            i += 1;
        }
        // The interpreter raises this (without spending budget) whenever
        // control reaches the end of a block's instruction list; only an
        // unconditional terminator as the last instruction makes the slot
        // unreachable.
        let terminated = matches!(
            insts.last().and_then(|&last| f.inst(last)),
            Some(Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret)
        );
        if !terminated {
            ops.push(Op::FailNoSpend(ExecError::Internal(
                "fell off the end of a block".into(),
            )));
        }
    }

    // Function entry: a phi in the entry block has no predecessor — the
    // interpreter fails on the first instruction without spending budget.
    // Back edges into the entry block still use its normal start.
    let eb = f.entry.0 as usize;
    let entry = if eb < nb && block_phis[eb].is_empty() {
        block_start[eb]
    } else if eb < nb {
        ops.push(Op::FailNoSpend(ExecError::Internal(
            "phi executed with no predecessor".into(),
        )));
        (ops.len() - 1) as u32
    } else {
        ops.push(Op::FailNoSpend(ExecError::Internal(
            "branch to invalid block".into(),
        )));
        (ops.len() - 1) as u32
    };

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
        regs_base,
        entry,
        block_start,
        block_first_value,
    }
}

/// Per-work-item bytecode execution state.
struct BcItem {
    regs: Vec<Val>,
    pc: u32,
    done: bool,
    insts: u64,
    lid: [u64; 3],
    wg: [u64; 3],
    local_linear: u32,
}

/// Per-worker scratch: work-item register files, the group's local memory
/// and the phi parallel-copy buffer, allocated once and reset per group.
#[derive(Default)]
pub(crate) struct BcScratch {
    items: Vec<BcItem>,
    local_mem: Vec<BufferData>,
    copy_buf: Vec<Val>,
}

enum BcStop {
    Barrier(u32),
    Done,
}

#[inline]
fn apply_edge(
    edges: &[Edge],
    idx: u32,
    wi: &mut BcItem,
    copy_buf: &mut Vec<Val>,
    prof: Option<&mut ProfBuf>,
) -> Result<(), ExecError> {
    let e = &edges[idx as usize];
    if let Some(err) = &e.fail {
        return Err(err.clone());
    }
    if let Some(p) = prof {
        p.edge_counts[idx as usize] += 1;
    }
    if !e.moves.is_empty() {
        // Parallel-copy semantics: read every source before writing any
        // destination, exactly like the interpreter's phi batch.
        copy_buf.clear();
        copy_buf.extend(e.moves.iter().map(|&(_, s)| wi.regs[s as usize]));
        for (j, &(d, _)) in e.moves.iter().enumerate() {
            wi.regs[d as usize] = copy_buf[j];
        }
    }
    wi.insts += u64::from(e.n_phis);
    Ok(())
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

    launch.pool.check_deadline()?;
    #[cfg(feature = "fault-injection")]
    let corrupt_group = match &launch.fault {
        Some(i) => crate::fault::group_hook(i, group_linear)?,
        None => false,
    };
    #[cfg(not(feature = "fault-injection"))]
    let corrupt_group = false;
    #[cfg(feature = "fault-injection")]
    let load_offset = match &launch.fault {
        Some(i) => crate::fault::load_offset(i, group_linear).unwrap_or(0),
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

    // (Re)initialise the work-item states; register files are seeded by a
    // flat copy of the launch template (params and constants included).
    let (lsx, lsy, lsz) = (nd.local[0], nd.local[1], nd.local[2]);
    let n_items = (lsx * lsy * lsz) as usize;
    let regs_init = &prog.regs_init;
    if scratch.items.len() != n_items
        || scratch
            .items
            .first()
            .is_some_and(|it| it.regs.len() != regs_init.len())
    {
        scratch.items = (0..n_items)
            .map(|_| BcItem {
                regs: regs_init.clone(),
                pc: prog.compiled.entry,
                done: false,
                insts: 0,
                lid: [0, 0, 0],
                wg,
                local_linear: 0,
            })
            .collect();
    }
    let mut i = 0;
    for lz in 0..lsz {
        for ly in 0..lsy {
            for lx in 0..lsx {
                let wi = &mut scratch.items[i];
                wi.regs.copy_from_slice(regs_init);
                wi.pc = prog.compiled.entry;
                wi.done = false;
                wi.insts = 0;
                wi.lid = [lx, ly, lz];
                wi.wg = wg;
                wi.local_linear = i as u32;
                i += 1;
            }
        }
    }

    let BcScratch {
        items,
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
        for wi in items.iter_mut() {
            if wi.done {
                continue;
            }
            let stop = run_item(
                &prog.compiled,
                &mut run,
                wi,
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
    prog: &CompiledKernel,
    r: &mut GroupRun<'_, '_>,
    wi: &mut BcItem,
    copy_buf: &mut Vec<Val>,
    sink: &mut dyn TraceSink,
    budget: &mut LocalBudget<'_>,
    wants: bool,
    mut prof: Option<&mut ProfBuf>,
) -> Result<BcStop, ExecError> {
    let ops = &prog.ops;
    let edges = &prog.edges;
    loop {
        let op = &ops[wi.pc as usize];
        if let Op::FailNoSpend(e) = op {
            return Err(e.clone());
        }
        if let Some(p) = prof.as_deref_mut() {
            p.op_counts[wi.pc as usize] += 1;
        }
        wi.insts += 1;
        budget.spend()?;
        match op {
            Op::Bin { op, dst, lhs, rhs } => {
                let (l, r) = (wi.regs[*lhs as usize], wi.regs[*rhs as usize]);
                wi.regs[*dst as usize] = match bin_fast(*op, l, r) {
                    Some(v) => v,
                    None => eval_bin(*op, l, r)?,
                };
            }
            Op::Cmp {
                pred,
                dst,
                lhs,
                rhs,
            } => {
                wi.regs[*dst as usize] =
                    eval_cmp(*pred, wi.regs[*lhs as usize], wi.regs[*rhs as usize])?;
            }
            Op::Select {
                dst,
                cond,
                then_r,
                else_r,
            } => {
                let c = wi.regs[*cond as usize]
                    .as_bool()
                    .ok_or_else(|| ExecError::TypeMismatch("select on non-bool".into()))?;
                wi.regs[*dst as usize] = if c {
                    wi.regs[*then_r as usize]
                } else {
                    wi.regs[*else_r as usize]
                };
            }
            Op::Cast { kind, dst, src, to } => {
                wi.regs[*dst as usize] = eval_cast(*kind, wi.regs[*src as usize], *to)?;
            }
            Op::Query { which, dim, dst } => {
                let v = workitem_query(&r.launch.nd, &wi.lid, &wi.wg, *which, *dim as usize);
                wi.regs[*dst as usize] = Val::I64(v as i64);
            }
            Op::Call { builtin, dst, args } => {
                let mut buf = [Val::I32(0); 4];
                let vals: &[Val] = if args.len() <= 4 {
                    for (j, &a) in args.iter().enumerate() {
                        buf[j] = wi.regs[a as usize];
                    }
                    &buf[..args.len()]
                } else {
                    copy_buf.clear();
                    copy_buf.extend(args.iter().map(|&a| wi.regs[a as usize]));
                    copy_buf
                };
                wi.regs[*dst as usize] = eval_call(&r.launch.nd, &wi.lid, &wi.wg, *builtin, vals)?;
            }
            Op::Gep {
                dst,
                base,
                index,
                elem,
            } => {
                let p = wi.regs[*base as usize]
                    .as_ptr()
                    .ok_or_else(|| ExecError::TypeMismatch("gep base not a pointer".into()))?;
                let idx = wi.regs[*index as usize]
                    .as_int()
                    .ok_or_else(|| ExecError::TypeMismatch("gep index not an integer".into()))?;
                wi.regs[*dst as usize] = Val::Ptr(PtrVal {
                    space: p.space,
                    buf: p.buf,
                    offset: p.offset + idx * elem,
                });
            }
            Op::GepNoPointee { base, index } => {
                wi.regs[*base as usize]
                    .as_ptr()
                    .ok_or_else(|| ExecError::TypeMismatch("gep base not a pointer".into()))?;
                wi.regs[*index as usize]
                    .as_int()
                    .ok_or_else(|| ExecError::TypeMismatch("gep index not an integer".into()))?;
                return Err(ExecError::TypeMismatch(
                    "gep through non-pointer type".into(),
                ));
            }
            Op::Load {
                dst,
                ptr,
                lanes,
                bytes,
                pc,
            } => {
                let p = wi.regs[*ptr as usize]
                    .as_ptr()
                    .ok_or_else(|| ExecError::TypeMismatch("load through non-pointer".into()))?;
                let v = load_with_fault(r, p, *lanes, *bytes)?;
                if wants {
                    emit_at(sink, r, wi.local_linear, TraceOp::Load, p, *bytes, *pc);
                }
                wi.regs[*dst as usize] = v;
            }
            Op::GepLoad {
                dst,
                base,
                index,
                elem,
                lanes,
                bytes,
                pc,
            } => {
                let bp = wi.regs[*base as usize]
                    .as_ptr()
                    .ok_or_else(|| ExecError::TypeMismatch("gep base not a pointer".into()))?;
                let idx = wi.regs[*index as usize]
                    .as_int()
                    .ok_or_else(|| ExecError::TypeMismatch("gep index not an integer".into()))?;
                let p = PtrVal {
                    space: bp.space,
                    buf: bp.buf,
                    offset: bp.offset + idx * elem,
                };
                // Second IR instruction of the fused pair.
                wi.insts += 1;
                budget.spend()?;
                let v = load_with_fault(r, p, *lanes, *bytes)?;
                if wants {
                    emit_at(sink, r, wi.local_linear, TraceOp::Load, p, *bytes, *pc);
                }
                wi.regs[*dst as usize] = v;
            }
            Op::Store {
                ptr,
                value,
                bytes,
                pc,
            } => {
                let p = wi.regs[*ptr as usize]
                    .as_ptr()
                    .ok_or_else(|| ExecError::TypeMismatch("store through non-pointer".into()))?;
                let mut v = wi.regs[*value as usize];
                if r.corrupt_stores && p.space == AddressSpace::Global {
                    v = corrupt_val(v);
                }
                mem_store(r, p, v)?;
                if wants {
                    emit_at(sink, r, wi.local_linear, TraceOp::Store, p, *bytes, *pc);
                }
            }
            Op::GepStore {
                base,
                index,
                elem,
                value,
                bytes,
                pc,
            } => {
                let bp = wi.regs[*base as usize]
                    .as_ptr()
                    .ok_or_else(|| ExecError::TypeMismatch("gep base not a pointer".into()))?;
                let idx = wi.regs[*index as usize]
                    .as_int()
                    .ok_or_else(|| ExecError::TypeMismatch("gep index not an integer".into()))?;
                let p = PtrVal {
                    space: bp.space,
                    buf: bp.buf,
                    offset: bp.offset + idx * elem,
                };
                // Second IR instruction of the fused pair.
                wi.insts += 1;
                budget.spend()?;
                let mut v = wi.regs[*value as usize];
                if r.corrupt_stores && p.space == AddressSpace::Global {
                    v = corrupt_val(v);
                }
                mem_store(r, p, v)?;
                if wants {
                    emit_at(sink, r, wi.local_linear, TraceOp::Store, p, *bytes, *pc);
                }
            }
            Op::ExtractLane { dst, vector, lane } => {
                let v = wi.regs[*vector as usize];
                let i = wi.regs[*lane as usize].as_int().unwrap_or(0) as usize;
                wi.regs[*dst as usize] = v
                    .lane(i)
                    .ok_or_else(|| ExecError::TypeMismatch("extractlane out of range".into()))?;
            }
            Op::InsertLane {
                dst,
                vector,
                lane,
                value,
            } => {
                let v = wi.regs[*vector as usize];
                let i = wi.regs[*lane as usize].as_int().unwrap_or(0) as usize;
                let x = wi.regs[*value as usize];
                wi.regs[*dst as usize] = v
                    .with_lane(i, x)
                    .ok_or_else(|| ExecError::TypeMismatch("insertlane mismatch".into()))?;
            }
            Op::BuildVector { dst, lanes, n } => {
                let n = *n as usize;
                let mut gathered = [Val::I32(0); 4];
                for j in 0..n {
                    gathered[j] = wi.regs[lanes[j] as usize];
                }
                let vals = &gathered[..n];
                wi.regs[*dst as usize] = build_vector(vals)?;
            }
            Op::Jump { target, edge } => {
                apply_edge(edges, *edge, wi, copy_buf, prof.as_deref_mut())?;
                wi.pc = *target;
                continue;
            }
            Op::CondJump {
                cond,
                then_target,
                then_edge,
                else_target,
                else_edge,
            } => {
                let c = wi.regs[*cond as usize]
                    .as_bool()
                    .ok_or_else(|| ExecError::TypeMismatch("condbr on non-bool".into()))?;
                let (t, e) = if c {
                    (*then_target, *then_edge)
                } else {
                    (*else_target, *else_edge)
                };
                apply_edge(edges, e, wi, copy_buf, prof.as_deref_mut())?;
                wi.pc = t;
                continue;
            }
            Op::Barrier => {
                let at = wi.pc;
                wi.pc += 1;
                return Ok(BcStop::Barrier(at));
            }
            Op::Ret => return Ok(BcStop::Done),
            Op::Fail(e) => return Err(e.clone()),
            Op::FailNoSpend(_) => unreachable!("handled before the budget spend"),
        }
        wi.pc += 1;
    }
}

/// The common scalar forms of `Bin`, inline: `I32`/`I32` and `I64`/`I64`
/// with `Add`/`Sub`/`Mul`/`And`/`Or`/`Xor`/`Shl`, and `F32`/`F32` with
/// `FAdd`/`FSub`/`FMul`/`FDiv`. Bit-identical to [`eval_bin`]: i32 ops are
/// computed at i64 width and truncated, and `Shl` is `wrapping_shl` at i64
/// width. Everything else (vectors, bools, mixed widths, division and
/// remainder with their errors) is `None` and goes through `eval_bin`.
#[inline(always)]
fn bin_fast(op: BinOp, l: Val, r: Val) -> Option<Val> {
    use BinOp::*;
    let int = |a: i64, b: i64| -> Option<i64> {
        Some(match op {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Shl => a.wrapping_shl(b as u32),
            _ => return None,
        })
    };
    match (l, r) {
        (Val::I32(a), Val::I32(b)) => int(a.into(), b.into()).map(|v| Val::I32(v as i32)),
        (Val::I64(a), Val::I64(b)) => int(a, b).map(Val::I64),
        (Val::F32(a), Val::F32(b)) => Some(Val::F32(match op {
            FAdd => a + b,
            FSub => a - b,
            FMul => a * b,
            FDiv => a / b,
            _ => return None,
        })),
        _ => None,
    }
}

/// Global-load path shared by `Load` and `GepLoad`, including the
/// load-offset fault's offset-then-fallback behaviour. The trace event is
/// emitted by the caller with the unoffset pointer, like the interpreter.
#[inline]
fn load_with_fault(
    r: &GroupRun<'_, '_>,
    p: PtrVal,
    lanes: u8,
    bytes: u32,
) -> Result<Val, ExecError> {
    if r.load_offset != 0 && p.space == AddressSpace::Global {
        let pp = PtrVal {
            offset: p.offset + r.load_offset * bytes as i64,
            ..p
        };
        mem_load(r, pp, lanes).or_else(|_| mem_load(r, p, lanes))
    } else {
        mem_load(r, p, lanes)
    }
}

/// `BuildVector` semantics, byte-for-byte the interpreter's (including the
/// panic on an empty lane list, which becomes a `WorkerPanic`).
fn build_vector(vals: &[Val]) -> Result<Val, ExecError> {
    let n = vals.len() as u8;
    match vals[0] {
        Val::F32(_) => {
            let mut a = [0.0f32; 4];
            for (i, v) in vals.iter().enumerate() {
                a[i] = v
                    .as_f32()
                    .ok_or_else(|| ExecError::TypeMismatch("mixed vector lanes".into()))?;
            }
            Ok(Val::VF32(a, n))
        }
        Val::I32(_) => {
            let mut a = [0i32; 4];
            for (i, v) in vals.iter().enumerate() {
                a[i] = v
                    .as_i32()
                    .ok_or_else(|| ExecError::TypeMismatch("mixed vector lanes".into()))?;
            }
            Ok(Val::VI32(a, n))
        }
        _ => Err(ExecError::Unsupported("vector of this kind".into())),
    }
}

/// Render the bytecode a function lowers to as stable, diffable text:
/// the register seed table, the op array and the phi edge table. Used by
/// the golden-snapshot suite (`tests/golden/bytecode/`).
pub fn disassemble(f: &Function) -> String {
    use std::fmt::Write as _;
    let ck = compile(f);
    let mut out = String::new();
    let _ = writeln!(out, "entry @{:04}", ck.entry);
    let _ = writeln!(out, "regs {}", ck.regs_base.len());
    let mut seeds = String::new();
    for i in 0..f.num_values() {
        match &f.value(ValueId(i as u32)).def {
            ValueDef::Param(p) => {
                let _ = writeln!(seeds, "  r{i} = param {p}");
            }
            ValueDef::Const(c) => {
                let _ = writeln!(seeds, "  r{i} = const {c:?}");
            }
            ValueDef::LocalBuf(id) => {
                let _ = writeln!(seeds, "  r{i} = local {}", id.0);
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
        let _ = writeln!(out, "  {i:04}: {}", fmt_op(op));
    }
    if ck.edges.len() > 1 {
        out.push_str("edges:\n");
        for (i, e) in ck.edges.iter().enumerate() {
            if let Some(err) = &e.fail {
                let _ = writeln!(out, "  {i}: fail {err}");
                continue;
            }
            let moves: Vec<String> = e
                .moves
                .iter()
                .map(|&(d, s)| format!("r{d} <- r{s}"))
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

fn fmt_op(op: &Op) -> String {
    match op {
        Op::Bin { op, dst, lhs, rhs } => format!("bin.{op:?} r{dst}, r{lhs}, r{rhs}"),
        Op::Cmp {
            pred,
            dst,
            lhs,
            rhs,
        } => format!("cmp.{pred:?} r{dst}, r{lhs}, r{rhs}"),
        Op::Select {
            dst,
            cond,
            then_r,
            else_r,
        } => format!("select r{dst}, r{cond} ? r{then_r} : r{else_r}"),
        Op::Cast { kind, dst, src, to } => format!("cast.{kind:?} r{dst}, r{src} -> {to}"),
        Op::Query { which, dim, dst } => format!("query.{} r{dst}, dim={dim}", which.name()),
        Op::Call { builtin, dst, args } => {
            let a: Vec<String> = args.iter().map(|x| format!("r{x}")).collect();
            format!("call.{} r{dst}, [{}]", builtin.name(), a.join(", "))
        }
        Op::Gep {
            dst,
            base,
            index,
            elem,
        } => format!("gep r{dst}, r{base} + r{index}*{elem}"),
        Op::GepNoPointee { base, index } => format!("gep.bad r{base}, r{index}"),
        Op::Load {
            dst,
            ptr,
            lanes,
            bytes,
            pc,
        } => format!("load r{dst}, [r{ptr}] lanes={lanes} bytes={bytes} pc=v{pc}"),
        Op::GepLoad {
            dst,
            base,
            index,
            elem,
            lanes,
            bytes,
            pc,
        } => format!(
            "gep.load r{dst}, [r{base} + r{index}*{elem}] lanes={lanes} bytes={bytes} pc=v{pc}"
        ),
        Op::Store {
            ptr,
            value,
            bytes,
            pc,
        } => format!("store [r{ptr}], r{value} bytes={bytes} pc=v{pc}"),
        Op::GepStore {
            base,
            index,
            elem,
            value,
            bytes,
            pc,
        } => format!("gep.store [r{base} + r{index}*{elem}], r{value} bytes={bytes} pc=v{pc}"),
        Op::ExtractLane { dst, vector, lane } => format!("extract r{dst}, r{vector}[r{lane}]"),
        Op::InsertLane {
            dst,
            vector,
            lane,
            value,
        } => format!("insert r{dst}, r{vector}[r{lane}] = r{value}"),
        Op::BuildVector { dst, lanes, n } => {
            let a: Vec<String> = lanes[..*n as usize]
                .iter()
                .map(|x| format!("r{x}"))
                .collect();
            format!("bvec r{dst}, [{}]", a.join(", "))
        }
        Op::Jump { target, edge } => format!("jump @{target:04} edge={edge}"),
        Op::CondJump {
            cond,
            then_target,
            then_edge,
            else_target,
            else_edge,
        } => format!(
            "cjump r{cond} ? @{then_target:04} edge={then_edge} : @{else_target:04} edge={else_edge}"
        ),
        Op::Barrier => "barrier".to_string(),
        Op::Ret => "ret".to_string(),
        Op::Fail(e) => format!("fail {e}"),
        Op::FailNoSpend(e) => format!("fail.nospend {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value's bits, so results compare exactly (NaN payloads, the sign
    /// of zero) rather than by float equality.
    fn bits(v: Val) -> (u8, u64) {
        match v {
            Val::I32(x) => (0, x as u32 as u64),
            Val::I64(x) => (1, x as u64),
            Val::F32(x) => (2, u64::from(x.to_bits())),
            other => panic!("fast path produced {other:?}"),
        }
    }

    #[test]
    fn fast_paths_are_bit_identical_to_eval_bin() {
        use BinOp::*;
        let ints: Vec<i64> = vec![
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
        let floats: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.5,
            3.0,
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
        ];
        let i32s: Vec<Val> = ints.iter().map(|&x| Val::I32(x as i32)).collect();
        let i64s: Vec<Val> = ints.iter().map(|&x| Val::I64(x)).collect();
        let f32s: Vec<Val> = floats.iter().map(|&x| Val::F32(x)).collect();
        let int_ops = [Add, Sub, Mul, And, Or, Xor, Shl];
        let float_ops = [FAdd, FSub, FMul, FDiv];
        let mut checked = 0;
        for (ops, vals) in [
            (&int_ops[..], &i32s),
            (&int_ops[..], &i64s),
            (&float_ops[..], &f32s),
        ] {
            for &op in ops {
                for &l in vals {
                    for &r in vals {
                        let fast = bin_fast(op, l, r)
                            .unwrap_or_else(|| panic!("{op:?} {l:?} {r:?} not covered"));
                        let slow = eval_bin(op, l, r).expect("eval_bin");
                        assert_eq!(bits(fast), bits(slow), "{op:?} {l:?} {r:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 5000);
    }

    #[test]
    fn fast_paths_leave_everything_else_to_eval_bin() {
        use BinOp::*;
        let declined = [
            // Division and remainder (and their errors).
            (SDiv, Val::I32(7), Val::I32(0)),
            (SRem, Val::I64(7), Val::I64(2)),
            (UDiv, Val::I32(-7), Val::I32(2)),
            // Ops outside the covered set.
            (LShr, Val::I32(-8), Val::I32(1)),
            (AShr, Val::I64(-8), Val::I64(1)),
            (FMin, Val::F32(1.0), Val::F32(2.0)),
            // Bools, mixed widths, mixed kinds and vectors.
            (And, Val::Bool(true), Val::Bool(false)),
            (Add, Val::I32(1), Val::I64(2)),
            (Add, Val::I64(1), Val::I32(2)),
            (FAdd, Val::I32(1), Val::I32(2)),
            (Add, Val::F32(1.0), Val::F32(2.0)),
            (FAdd, Val::VF32([1.0; 4], 4), Val::F32(2.0)),
            (Add, Val::VI32([1; 4], 2), Val::VI32([2; 4], 2)),
        ];
        for (op, l, r) in declined {
            assert_eq!(bin_fast(op, l, r), None, "{op:?} {l:?} {r:?}");
        }
    }
}
