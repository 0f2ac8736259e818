//! The NDRange interpreter: executes kernels with OpenCL work-group
//! semantics. Work-items of a group run serially between barriers (the way
//! CPU OpenCL runtimes schedule them [paper §VI-C]); at a barrier every
//! item of the group must arrive before any proceeds.
//!
//! Work-groups of one launch are independent (OpenCL gives no ordering or
//! synchronisation between groups), so the engine can execute them either
//! serially on the calling thread or partitioned across a pool of worker
//! threads — see [`ExecPolicy`] and [`Launch::policy`]. Both schedules
//! produce bit-identical output buffers, [`LaunchStats`] and trace streams.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use grover_ir::{
    AddressSpace, BinOp, BlockId, Builtin, CastKind, CmpPred, ConstVal, Function, Inst, Scalar,
    Type, ValueDef, ValueId,
};
use grover_obs::{Recorder, SpanId, NOOP};

use crate::buffer::{Buffer, BufferData, Context, GlobalMem};
use crate::bytecode::{self, Backend};
use crate::fault::Faults;
use crate::trace::{AccessEvent, TraceOp, TraceSink};
use crate::val::{PtrVal, Val};
use crate::ExecError;

/// Kernel launch geometry (`clEnqueueNDRangeKernel`).
#[derive(Clone, Copy, Debug)]
pub struct NdRange {
    /// Global work size per dimension.
    pub global: [u64; 3],
    /// Work-group size per dimension.
    pub local: [u64; 3],
}

impl NdRange {
    /// A 1-D launch.
    pub fn d1(global: u64, local: u64) -> NdRange {
        NdRange {
            global: [global, 1, 1],
            local: [local, 1, 1],
        }
    }

    /// A 2-D launch.
    pub fn d2(gx: u64, gy: u64, lx: u64, ly: u64) -> NdRange {
        NdRange {
            global: [gx, gy, 1],
            local: [lx, ly, 1],
        }
    }

    /// A 3-D launch.
    pub fn d3(g: [u64; 3], l: [u64; 3]) -> NdRange {
        NdRange {
            global: g,
            local: l,
        }
    }

    /// Work-groups per dimension.
    pub fn num_groups(&self) -> [u64; 3] {
        [
            self.global[0] / self.local[0],
            self.global[1] / self.local[1],
            self.global[2] / self.local[2],
        ]
    }

    /// Work-items per group.
    pub fn items_per_group(&self) -> u64 {
        self.local.iter().product()
    }

    /// Total work-items in the launch.
    pub fn total_items(&self) -> u64 {
        self.global.iter().product()
    }

    fn validate(&self) -> Result<(), ExecError> {
        for d in 0..3 {
            if self.local[d] == 0 || self.global[d] == 0 {
                return Err(ExecError::BadNdRange("zero dimension".into()));
            }
            if !self.global[d].is_multiple_of(self.local[d]) {
                return Err(ExecError::BadNdRange(format!(
                    "global size {} not divisible by local size {} in dim {d}",
                    self.global[d], self.local[d]
                )));
            }
        }
        Ok(())
    }
}

/// A kernel argument.
#[derive(Clone, Copy, Debug)]
pub enum ArgValue {
    /// A device buffer (pointer parameters).
    Buffer(Buffer),
    /// A 32-bit integer scalar.
    I32(i32),
    /// A 64-bit integer scalar.
    I64(i64),
    /// A 32-bit float scalar.
    F32(f32),
}

/// Aggregate statistics of one launch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Total IR instructions executed.
    pub instructions: u64,
    /// Barrier rendezvous executed (one per group per barrier).
    pub barriers: u64,
    /// Work-items run.
    pub work_items: u64,
    /// Work-groups run.
    pub work_groups: u64,
    /// The per-opcode profile, for a successful bytecode launch with
    /// [`Launch::profile`] set.
    pub profile: Option<bytecode::OpProfile>,
}

/// Execution limits.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum total IR instructions across the launch.
    pub max_instructions: u64,
    /// Optional wall-clock deadline for the whole launch. The watchdog is
    /// checked at every work-group start and at budget-refill granularity
    /// (every [`BUDGET_CHUNK`] instructions per worker), so a launch
    /// overshoots the deadline by at most one chunk's execution time; on
    /// expiry the shared instruction budget is drained so every worker
    /// stops at its next refill with [`ExecError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_instructions: 20_000_000_000,
            deadline: None,
        }
    }
}

/// How the work-groups of a launch are scheduled onto host threads.
///
/// OpenCL defines no ordering or synchronisation between the work-groups of
/// one launch, so they may run concurrently. A kernel in which work-items of
/// *different* groups touch the same global-memory location without
/// synchronisation (at least one of them writing) is already undefined
/// behaviour in the source program; such kernels get no extra serialisation
/// here — exactly as on a real device.
///
/// Whatever the policy, a successful launch is deterministic: output
/// buffers, [`LaunchStats`] and the trace stream a [`TraceSink`] observes
/// are bit-identical between `Serial` and `Parallel` (per-group trace
/// events are buffered and replayed in group-linear order). The only
/// scheduling-visible difference is *which* instruction trips
/// [`Limits::max_instructions`]: the budget is shared by all workers, so
/// under `Parallel` the launch still stops within one claim-chunk of the
/// limit, but not on a deterministic instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Run work-groups one after another on the calling thread.
    #[default]
    Serial,
    /// Partition the work-group index space across a pool of worker
    /// threads (scoped; no detached threads survive the launch).
    Parallel {
        /// Worker-thread count; `0` means one per available CPU.
        threads: usize,
    },
}

impl ExecPolicy {
    /// `Parallel` with the thread count taken from the host CPU.
    pub fn parallel_auto() -> ExecPolicy {
        ExecPolicy::Parallel { threads: 0 }
    }

    /// The number of worker threads this policy resolves to on this host.
    pub fn worker_count(self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel { threads: 0 } => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            ExecPolicy::Parallel { threads } => threads,
        }
    }
}

/// Per-worker execution statistics, collected only by an observed launch
/// ([`enqueue`] with an enabled [`Launch::recorder`]). The
/// serial engine reports itself as a single worker.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStat {
    /// Work-groups this worker claimed and executed.
    pub groups: u64,
    /// Wall time spent inside group execution (excludes idle waits on the
    /// claim counter — `busy / launch wall time` is the utilisation).
    pub busy: Duration,
    /// The longest single group this worker executed.
    pub max_group: Duration,
}

impl WorkerStat {
    fn note(&mut self, dt: Duration) {
        self.groups += 1;
        self.busy += dt;
        if dt > self.max_group {
            self.max_group = dt;
        }
    }
}

/// Instructions a parallel worker claims from the shared launch budget per
/// refill. Small enough that a launch overshoots `max_instructions` by at
/// most `workers * BUDGET_CHUNK`, large enough that the shared counter is
/// touched ~once per million instructions.
const BUDGET_CHUNK: u64 = 1 << 20;

/// The launch-wide instruction budget ([`Limits::max_instructions`]) and
/// wall-clock watchdog ([`Limits::deadline`]), shared by every worker.
pub(crate) struct BudgetPool {
    avail: AtomicU64,
    start: Instant,
    deadline: Option<Duration>,
    deadline_hit: AtomicBool,
}

impl BudgetPool {
    fn new(limits: &Limits) -> BudgetPool {
        BudgetPool {
            avail: AtomicU64::new(limits.max_instructions),
            start: Instant::now(),
            deadline: limits.deadline,
            deadline_hit: AtomicBool::new(false),
        }
    }

    /// Watchdog check; on expiry, drain the pool so every other worker
    /// stops at its next refill too.
    pub(crate) fn check_deadline(&self) -> Result<(), ExecError> {
        if let Some(d) = self.deadline {
            if self.start.elapsed() > d {
                self.deadline_hit.store(true, Ordering::Relaxed);
                self.avail.store(0, Ordering::Relaxed);
                return Err(ExecError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Why the pool is empty: a drained-by-watchdog pool reports the
    /// deadline, a genuinely spent one the instruction limit.
    fn exhausted_error(&self) -> ExecError {
        if self.deadline_hit.load(Ordering::Relaxed) {
            ExecError::DeadlineExceeded
        } else {
            ExecError::InstructionLimit
        }
    }
}

/// A worker's claim on the [`BudgetPool`]: spends locally and refills in
/// chunks, so the hot interpreter loop performs no atomic ops. The serial
/// engine uses the same chunking — with a single worker the refills are
/// sequential, so the exact single-counter semantics are preserved: the
/// instruction *after* the budget runs out fails with
/// [`ExecError::InstructionLimit`] — and each refill doubles as a
/// watchdog check.
pub(crate) struct LocalBudget<'a> {
    pool: &'a BudgetPool,
    left: u64,
    chunk: u64,
    /// Injected instruction-site fault: countdown and plan.
    #[cfg(feature = "fault-injection")]
    fault: Option<(u64, std::sync::Arc<crate::fault::ArmedPlan>)>,
}

impl<'a> LocalBudget<'a> {
    fn new(launch: &'a LaunchCtx<'_>, chunk: u64) -> LocalBudget<'a> {
        LocalBudget {
            pool: &launch.pool,
            left: 0,
            chunk,
            #[cfg(feature = "fault-injection")]
            fault: launch
                .fault
                .as_ref()
                .and_then(|i| i.instruction_trigger().map(|n| (n, i.clone()))),
        }
    }

    #[inline]
    pub(crate) fn spend(&mut self) -> Result<(), ExecError> {
        #[cfg(feature = "fault-injection")]
        if let Some((countdown, inst)) = &mut self.fault {
            *countdown -= 1;
            if *countdown == 0 {
                let inst = inst.clone();
                self.fault = None;
                inst.instruction_hook()?;
            }
        }
        if self.left == 0 {
            self.refill()?;
        }
        self.left -= 1;
        Ok(())
    }

    fn refill(&mut self) -> Result<(), ExecError> {
        self.pool.check_deadline()?;
        let mut avail = self.pool.avail.load(Ordering::Relaxed);
        loop {
            if avail == 0 {
                return Err(self.pool.exhausted_error());
            }
            let take = avail.min(self.chunk);
            match self.pool.avail.compare_exchange_weak(
                avail,
                avail - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.left = take;
                    return Ok(());
                }
                Err(now) => avail = now,
            }
        }
    }
}

impl Drop for LocalBudget<'_> {
    fn drop(&mut self) {
        // Return the unspent part of the claim so other workers can use it
        // — unless the watchdog drained the pool to stop the launch.
        if self.left > 0 && !self.pool.deadline_hit.load(Ordering::Relaxed) {
            self.pool.avail.fetch_add(self.left, Ordering::Relaxed);
        }
    }
}

enum Stop {
    Barrier(ValueId),
    Done,
}

struct WorkItem {
    regs: Vec<Option<Val>>,
    block: BlockId,
    inst_idx: usize,
    prev_block: Option<BlockId>,
    done: bool,
    insts: u64,
    lid: [u64; 3],
    wg: [u64; 3],
}

/// Launch-wide immutable state, computed once per `enqueue` and shared by
/// every worker: kernel, geometry, the global-memory view (buffer base
/// addresses included — no per-group probing of the [`Context`]), the
/// pre-resolved parameter seeds and the `__local` buffer layout.
pub(crate) struct LaunchCtx<'a> {
    pub(crate) f: &'a Function,
    pub(crate) nd: NdRange,
    pub(crate) mem: GlobalMem<'a>,
    /// `(register index, value)` seeds applied to every work-item.
    pub(crate) params: Vec<(usize, Val)>,
    /// Element kind and element count of each `__local` buffer.
    pub(crate) local_templ: Vec<(Scalar, usize)>,
    /// Byte offset of each `__local` buffer inside the group-local region.
    pub(crate) local_bases: Vec<u64>,
    pub(crate) pool: BudgetPool,
    /// Whether every group's global stores are perturbed
    /// ([`crate::fault::FaultKind::CorruptStores`] at launch scope; always
    /// `false` without the `fault-injection` feature).
    pub(crate) corrupt_launch: bool,
    /// The fault plan matched against this launch's kernel, if any.
    #[cfg(feature = "fault-injection")]
    pub(crate) fault: Option<std::sync::Arc<crate::fault::ArmedPlan>>,
}

/// Per-worker scratch reused across the groups that worker executes: the
/// work-item states (register files in particular) and the group's local
/// memory are allocated once and reset per group instead of reallocated.
#[derive(Default)]
struct Scratch {
    items: Vec<WorkItem>,
    local_mem: Vec<BufferData>,
}

/// What one group contributed to the launch statistics.
#[derive(Clone, Copy, Default)]
pub(crate) struct GroupStats {
    pub(crate) items: u64,
    pub(crate) barriers: u64,
    pub(crate) instructions: u64,
}

/// What a parallel worker hands back for one claimed group: the linear
/// group index plus either the group's stats and buffered trace or the
/// error that stopped it.
type GroupOutcome = (usize, Result<(GroupStats, GroupBuf), ExecError>);

/// One buffered trace event of a group (the group id is implicit).
enum GroupEvent {
    Access(AccessEvent),
    Barrier { items: u32 },
    ItemDone { local: u32, insts: u64 },
}

/// Per-group trace buffer used by the parallel engine. Workers record into
/// it; the launch thread replays the buffers in group-linear order so the
/// real sink observes exactly the serial event stream.
struct GroupBuf {
    /// Whether the real sink consumes access events
    /// ([`TraceSink::wants_events`]); barrier/item-done events are always
    /// kept — they are few and carry the launch statistics.
    wants_access: bool,
    events: Vec<GroupEvent>,
}

impl TraceSink for GroupBuf {
    fn access(&mut self, ev: &AccessEvent) {
        if self.wants_access {
            self.events.push(GroupEvent::Access(*ev));
        }
    }

    fn barrier(&mut self, _group: u32, items: u32) {
        self.events.push(GroupEvent::Barrier { items });
    }

    fn workitem_done(&mut self, _group: u32, local: u32, instructions: u64) {
        self.events.push(GroupEvent::ItemDone {
            local,
            insts: instructions,
        });
    }
}

impl GroupBuf {
    fn replay(self, group: u32, sink: &mut dyn TraceSink) {
        for ev in self.events {
            match ev {
                GroupEvent::Access(ev) => sink.access(&ev),
                GroupEvent::Barrier { items } => sink.barrier(group, items),
                GroupEvent::ItemDone { local, insts } => sink.workitem_done(group, local, insts),
            }
        }
        sink.workgroup_done(group);
    }
}

/// Group linear id → 3-D group id, matching the serial `wz/wy/wx` loop
/// nest (`x` fastest).
fn delinearize(gl: usize, ng: [u64; 3]) -> [u64; 3] {
    let gl = gl as u64;
    [gl % ng[0], (gl / ng[0]) % ng[1], gl / (ng[0] * ng[1])]
}

/// How to run one launch: everything [`enqueue`] needs besides the kernel,
/// its arguments, the geometry and the trace sink. `Launch::default()` is
/// the production launch: default [`Limits`], [`ExecPolicy::Serial`],
/// [`Backend::Bytecode`], the no-op recorder, no profile and no faults.
#[derive(Clone)]
pub struct Launch<'a> {
    /// Instruction budget and wall-clock deadline.
    pub limits: Limits,
    /// Work-group schedule.
    pub policy: ExecPolicy,
    /// Execution engine. [`Backend::Interp`] is the reference oracle of
    /// the differential tests, the fuzzer and the `speedup` bench.
    pub backend: Backend,
    /// Telemetry sink. When it is enabled the launch records one `launch`
    /// span (see [`enqueue`]); the default no-op recorder reads no clock
    /// and wraps no sink.
    pub recorder: &'a dyn Recorder,
    /// Parent of the `launch` span (`None` = a root span).
    pub parent: Option<SpanId>,
    /// Collect a per-opcode profile into [`LaunchStats::profile`]
    /// (bytecode engine only).
    pub profile: bool,
    /// The fault plan this launch consults; without the `fault-injection`
    /// feature always empty and zero-sized.
    pub faults: Faults,
}

impl Default for Launch<'_> {
    fn default() -> Self {
        Launch {
            limits: Limits::default(),
            policy: ExecPolicy::Serial,
            backend: Backend::Bytecode,
            recorder: &NOOP,
            parent: None,
            profile: false,
            faults: Faults::default(),
        }
    }
}

/// Launch a kernel (the `clEnqueueNDRangeKernel` + `clFinish` pair).
///
/// See [`ExecPolicy`] for the determinism guarantees. On failure the error
/// of the lowest-numbered failing group is returned (the same one the
/// serial schedule would report), and the sink has observed the complete
/// event streams of every group before it. Both engines produce
/// bit-identical output buffers, [`LaunchStats`] and trace streams for
/// well-formed kernels.
///
/// With [`Launch::profile`] set, a successful bytecode launch returns its
/// per-opcode [`bytecode::OpProfile`] in [`LaunchStats::profile`]; its
/// `total_charged` equals [`LaunchStats::instructions`], and it is
/// bit-identical under both schedules.
///
/// With an enabled [`Launch::recorder`], the launch records one `launch`
/// span under [`Launch::parent`]. Span attributes on success: `kernel`,
/// `policy`, `workers`, the geometry (`work_groups`, `work_items`),
/// `instructions`, `barriers`, per-space access counts (`global_loads`,
/// `local_stores`, ...), per-space byte tallies (`global_bytes_loaded`,
/// ...), totals (`bytes_loaded`, `bytes_stored`) and `wall_us`. On failure
/// the metrics observed up to the error are still recorded, plus `error`.
/// Each worker emits one `worker` event with `groups`, `busy_us`,
/// `max_group_us` and `util` (busy time over launch wall time), and a
/// profiled launch one `profile` event with `total_count`/`total_charged`
/// plus `count.<kind>` and `charged.<kind>` per executed opcode kind.
pub fn enqueue(
    ctx: &mut Context,
    kernel: &Function,
    args: &[ArgValue],
    nd: &NdRange,
    sink: &mut dyn TraceSink,
    launch: &Launch,
) -> Result<LaunchStats, ExecError> {
    if launch.recorder.enabled() {
        crate::obs::observed(ctx, kernel, args, nd, sink, launch)
    } else {
        enqueue_impl(ctx, kernel, args, nd, sink, launch, None)
    }
}

/// The launch engine behind [`enqueue`]. When `workers_out` is `Some`,
/// each worker additionally times its group executions and pushes one
/// [`WorkerStat`] (the serial engine pushes exactly one); when `None` —
/// the production path — no clock is read and no stat is kept. With
/// [`Launch::profile`] and the bytecode engine, each worker counts
/// op/edge executions into a private buffer; the buffers are merged and
/// aggregated into the result's profile iff the launch succeeds.
pub(crate) fn enqueue_impl(
    ctx: &mut Context,
    kernel: &Function,
    args: &[ArgValue],
    nd: &NdRange,
    sink: &mut dyn TraceSink,
    launch: &Launch,
    workers_out: Option<&mut Vec<WorkerStat>>,
) -> Result<LaunchStats, ExecError> {
    nd.validate()?;
    validate_args(ctx, kernel, args)?;
    // Both engines run only kernels the bytecode can lower, so the two
    // stay interchangeable.
    let kinds = bytecode::check_kernel(kernel)?;

    let params = param_seeds(kernel, args)?;
    let mut local_templ = Vec::new();
    let mut local_bases = Vec::new();
    let mut off = 0u64;
    for lb in kernel.local_bufs() {
        local_templ.push((lb.elem, (lb.len() * lb.lanes as u64) as usize));
        local_bases.push(off);
        off += lb.size_bytes();
    }
    let (policy, backend, profile) = (launch.policy, launch.backend, launch.profile);
    #[cfg(feature = "fault-injection")]
    let fault = launch.faults.for_kernel(kernel);
    #[cfg(feature = "fault-injection")]
    let corrupt_launch = match &fault {
        // A launch-entry panic deliberately propagates out of `enqueue`:
        // it models a failure of the launching thread itself (e.g. one
        // side of a tuner race), not of a work-group worker.
        Some(i) => i.launch_hook()?,
        None => false,
    };
    #[cfg(not(feature = "fault-injection"))]
    let corrupt_launch = false;
    let launch = LaunchCtx {
        f: kernel,
        nd: *nd,
        mem: ctx.global_mem(),
        params,
        local_templ,
        local_bases,
        pool: BudgetPool::new(&launch.limits),
        corrupt_launch,
        #[cfg(feature = "fault-injection")]
        fault,
    };

    // Bytecode backend: lower the kernel once per launch; every worker
    // executes the same compiled program.
    let program = match backend {
        Backend::Interp => None,
        Backend::Bytecode => Some(bytecode::LaunchProgram::prepare(
            kernel,
            kinds,
            &launch.params,
        )?),
    };
    let program = program.as_ref();

    let ng = nd.num_groups();
    let n_groups = (ng[0] * ng[1] * ng[2]) as usize;

    let observe = workers_out.is_some();

    if policy == ExecPolicy::Serial {
        let mut budget = LocalBudget::new(&launch, BUDGET_CHUNK);
        let mut scratch = AnyScratch::new(program.is_some());
        let mut prof = if profile {
            program.map(bytecode::ProfBuf::for_program)
        } else {
            None
        };
        let mut stats = LaunchStats::default();
        let mut wstat = WorkerStat::default();
        for gl in 0..n_groups {
            let t0 = observe.then(Instant::now);
            let gs = run_group_any(
                &launch,
                program,
                delinearize(gl, ng),
                gl as u32,
                sink,
                &mut budget,
                &mut scratch,
                prof.as_mut(),
            )?;
            if let Some(t0) = t0 {
                wstat.note(t0.elapsed());
            }
            stats.instructions += gs.instructions;
            stats.barriers += gs.barriers;
            stats.work_items += gs.items;
            stats.work_groups += 1;
            sink.workgroup_done(gl as u32);
        }
        if let Some(out) = workers_out {
            out.push(wstat);
        }
        if let (Some(buf), Some(p)) = (&prof, program) {
            stats.profile = Some(p.aggregate(buf));
        }
        return Ok(stats);
    }

    let workers = policy.worker_count().clamp(1, n_groups);
    let wants_access = sink.wants_events();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let launch_ref = &launch;

    // Workers claim group indices from a shared counter (dynamic load
    // balancing) and run each claimed group to completion. `fetch_add` is
    // monotonic, so when a group fails, every lower-numbered group was
    // claimed earlier by some worker that finishes it before exiting —
    // which is what makes the first-error-in-group-order guarantee hold.
    let mut escaped_panic: Option<String> = None;
    let worker_outputs: Vec<(Vec<GroupOutcome>, WorkerStat, Option<bytecode::ProfBuf>)> =
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        let mut wstat = WorkerStat::default();
                        let mut budget = LocalBudget::new(launch_ref, BUDGET_CHUNK);
                        let mut scratch = AnyScratch::new(program.is_some());
                        let mut prof = if profile {
                            program.map(bytecode::ProfBuf::for_program)
                        } else {
                            None
                        };
                        while !stop.load(Ordering::Relaxed) {
                            let gl = next.fetch_add(1, Ordering::Relaxed);
                            if gl >= n_groups {
                                break;
                            }
                            let mut buf = GroupBuf {
                                wants_access,
                                events: Vec::new(),
                            };
                            let t0 = observe.then(Instant::now);
                            let r = run_group_any(
                                launch_ref,
                                program,
                                delinearize(gl, ng),
                                gl as u32,
                                &mut buf,
                                &mut budget,
                                &mut scratch,
                                prof.as_mut(),
                            );
                            if let Some(t0) = t0 {
                                wstat.note(t0.elapsed());
                            }
                            let failed = r.is_err();
                            out.push((gl, r.map(|gs| (gs, buf))));
                            if failed {
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                        (out, wstat, prof)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(out) => out,
                    // Per-group isolation catches every panic inside the
                    // worker loop, so this arm is unreachable short of a bug
                    // in the loop itself; degrade to an error regardless.
                    Err(p) => {
                        escaped_panic = Some(panic_message(p.as_ref()));
                        (Vec::new(), WorkerStat::default(), None)
                    }
                })
                .collect()
        });
    if let Some(message) = escaped_panic {
        return Err(ExecError::WorkerPanic {
            group: u32::MAX,
            message,
        });
    }

    let mut slots: Vec<Option<Result<(GroupStats, GroupBuf), ExecError>>> = Vec::new();
    slots.resize_with(n_groups, || None);
    let mut worker_stats = Vec::with_capacity(worker_outputs.len());
    // Merging the per-worker counters is element-wise addition, so the
    // launch-wide profile is independent of which worker ran which group.
    let mut merged_prof = if profile {
        program.map(bytecode::ProfBuf::for_program)
    } else {
        None
    };
    for (outcomes, wstat, wprof) in worker_outputs {
        worker_stats.push(wstat);
        if let (Some(m), Some(w)) = (merged_prof.as_mut(), wprof.as_ref()) {
            m.merge(w);
        }
        for (gl, r) in outcomes {
            slots[gl] = Some(r);
        }
    }
    if let Some(out) = workers_out {
        *out = worker_stats;
    }

    // Replay traces in group-linear order; stop at the first failing group.
    let mut stats = LaunchStats::default();
    for (gl, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok((gs, buf))) => {
                stats.instructions += gs.instructions;
                stats.barriers += gs.barriers;
                stats.work_items += gs.items;
                stats.work_groups += 1;
                buf.replay(gl as u32, sink);
            }
            Some(Err(e)) => return Err(e),
            None => {
                return Err(ExecError::Internal(
                    "work-group skipped without a preceding error".into(),
                ))
            }
        }
    }
    if let (Some(buf), Some(p)) = (&merged_prof, program) {
        stats.profile = Some(p.aggregate(buf));
    }
    Ok(stats)
}

fn validate_args(ctx: &Context, kernel: &Function, args: &[ArgValue]) -> Result<(), ExecError> {
    if args.len() != kernel.params().len() {
        return Err(ExecError::ArgCount {
            expected: kernel.params().len(),
            got: args.len(),
        });
    }
    for (p, a) in kernel.params().iter().zip(args) {
        let ok = match (p.ty, a) {
            (Type::Ptr { elem, space, .. }, ArgValue::Buffer(b)) => {
                if space == AddressSpace::Local || space == AddressSpace::Private {
                    return Err(ExecError::Unsupported(
                        "local/private pointer kernel arguments".into(),
                    ));
                }
                ctx.scalar_of(*b) == elem
            }
            (Type::Scalar(Scalar::I32), ArgValue::I32(_)) => true,
            (Type::Scalar(Scalar::I64), ArgValue::I64(_)) => true,
            (Type::Scalar(Scalar::F32), ArgValue::F32(_)) => true,
            _ => false,
        };
        if !ok {
            return Err(ExecError::TypeMismatch(format!(
                "argument `{}` expects {}, got {a:?}",
                p.name, p.ty
            )));
        }
    }
    Ok(())
}

/// Resolve every kernel argument to its register seed, once per launch.
fn param_seeds(f: &Function, args: &[ArgValue]) -> Result<Vec<(usize, Val)>, ExecError> {
    let mut seeds = Vec::with_capacity(args.len());
    for (i, _) in f.params().iter().enumerate() {
        let pv = f.param_value(i);
        let v = match (f.ty(pv), args[i]) {
            (Type::Ptr { space, .. }, ArgValue::Buffer(b)) => Val::Ptr(PtrVal {
                space,
                buf: b.0,
                offset: 0,
            }),
            (_, ArgValue::I32(x)) => Val::I32(x),
            (_, ArgValue::I64(x)) => Val::I64(x),
            (_, ArgValue::F32(x)) => Val::F32(x),
            _ => return Err(ExecError::TypeMismatch("param seed".into())),
        };
        seeds.push((pv.index(), v));
    }
    Ok(seeds)
}

/// The mutable state `run_item`/`eval_inst` need for one group: the shared
/// launch context plus this group's local memory and id. The bytecode
/// backend builds the same struct so the shared memory/trace helpers
/// ([`mem_load`], [`mem_store`], [`emit_at`]) serve both engines.
pub(crate) struct GroupRun<'a, 'l> {
    pub(crate) launch: &'a LaunchCtx<'l>,
    pub(crate) local_mem: &'a mut Vec<BufferData>,
    pub(crate) group_linear: u32,
    /// Fault injection: perturb this group's global stores.
    pub(crate) corrupt_stores: bool,
    /// Fault injection: offset this group's global loads by this many
    /// elements (`0` = none).
    pub(crate) load_offset: i64,
}

/// Best-effort stringification of a caught panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Per-worker scratch for whichever engine the launch selected. A worker
/// keeps one variant for its whole lifetime, so register files and local
/// memory are still reused across the groups it executes.
enum AnyScratch {
    Interp(Scratch),
    Bytecode(bytecode::BcScratch),
}

impl AnyScratch {
    fn new(bytecode: bool) -> AnyScratch {
        if bytecode {
            AnyScratch::Bytecode(bytecode::BcScratch::default())
        } else {
            AnyScratch::Interp(Scratch::default())
        }
    }
}

/// Run one group on the backend selected at launch, with panic isolation:
/// a panic anywhere inside the group — either engine, a trace sink, or an
/// injected fault — becomes [`ExecError::WorkerPanic`] instead of
/// unwinding through the launch machinery (and, on a worker thread,
/// aborting the process via `std::thread::scope`).
#[allow(clippy::too_many_arguments)]
fn run_group_any(
    launch: &LaunchCtx<'_>,
    program: Option<&bytecode::LaunchProgram>,
    wg: [u64; 3],
    group_linear: u32,
    sink: &mut dyn TraceSink,
    budget: &mut LocalBudget<'_>,
    scratch: &mut AnyScratch,
    prof: Option<&mut bytecode::ProfBuf>,
) -> Result<GroupStats, ExecError> {
    match catch_unwind(AssertUnwindSafe(|| match (program, &mut *scratch) {
        (None, AnyScratch::Interp(s)) => run_group(launch, wg, group_linear, sink, budget, s),
        (Some(p), AnyScratch::Bytecode(s)) => {
            bytecode::run_group(p, launch, wg, group_linear, sink, budget, s, prof)
        }
        _ => Err(ExecError::Internal(
            "worker scratch does not match the launch backend".into(),
        )),
    })) {
        Ok(r) => r,
        Err(p) => Err(ExecError::WorkerPanic {
            group: group_linear,
            message: panic_message(p.as_ref()),
        }),
    }
}

fn run_group(
    launch: &LaunchCtx<'_>,
    wg: [u64; 3],
    group_linear: u32,
    sink: &mut dyn TraceSink,
    budget: &mut LocalBudget<'_>,
    scratch: &mut Scratch,
) -> Result<GroupStats, ExecError> {
    let f = launch.f;
    let nd = launch.nd;

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

    // (Re)initialise the work-item states. Register files are allocated on
    // the worker's first group and merely cleared afterwards.
    let (lsx, lsy, lsz) = (nd.local[0], nd.local[1], nd.local[2]);
    let n_items = (lsx * lsy * lsz) as usize;
    if scratch.items.len() != n_items {
        scratch.items = (0..n_items)
            .map(|_| WorkItem {
                regs: vec![None; f.num_values()],
                block: f.entry,
                inst_idx: 0,
                prev_block: None,
                done: false,
                insts: 0,
                lid: [0, 0, 0],
                wg,
            })
            .collect();
    }
    let mut i = 0;
    for lz in 0..lsz {
        for ly in 0..lsy {
            for lx in 0..lsx {
                let wi = &mut scratch.items[i];
                wi.regs.fill(None);
                for &(idx, v) in &launch.params {
                    wi.regs[idx] = Some(v);
                }
                wi.block = f.entry;
                wi.inst_idx = 0;
                wi.prev_block = None;
                wi.done = false;
                wi.insts = 0;
                wi.lid = [lx, ly, lz];
                wi.wg = wg;
                i += 1;
            }
        }
    }

    let Scratch { items, local_mem } = scratch;
    let mut run = GroupRun {
        launch,
        local_mem,
        group_linear,
        corrupt_stores: launch.corrupt_launch || corrupt_group,
        load_offset,
    };
    let mut stats = GroupStats {
        items: n_items as u64,
        ..GroupStats::default()
    };

    // Barrier-synchronised rounds.
    loop {
        let mut barrier_at: Option<ValueId> = None;
        let mut all_done = true;
        for (i, wi) in items.iter_mut().enumerate() {
            if wi.done {
                continue;
            }
            let stop = run_item(&mut run, wi, sink, budget)?;
            match stop {
                Stop::Done => {
                    wi.done = true;
                    let local_linear = i as u32;
                    sink.workitem_done(group_linear, local_linear, wi.insts);
                    stats.instructions += wi.insts;
                    wi.insts = 0;
                }
                Stop::Barrier(at) => {
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

fn run_item(
    r: &mut GroupRun<'_, '_>,
    wi: &mut WorkItem,
    sink: &mut dyn TraceSink,
    budget: &mut LocalBudget<'_>,
) -> Result<Stop, ExecError> {
    let f = r.launch.f;
    loop {
        // Batch-evaluate phis at a block head (parallel-copy semantics).
        if wi.inst_idx == 0 {
            let insts = &f.block(wi.block).insts;
            let mut updates: Vec<(ValueId, Val)> = Vec::new();
            let mut n_phis = 0;
            for &iv in insts {
                let Some(Inst::Phi { incoming }) = f.inst(iv) else {
                    break;
                };
                let prev = wi.prev_block.ok_or_else(|| {
                    ExecError::Internal("phi executed with no predecessor".into())
                })?;
                let (_, v) = incoming
                    .iter()
                    .find(|(b, _)| *b == prev)
                    .ok_or_else(|| ExecError::Internal("phi missing incoming edge".into()))?;
                updates.push((iv, value_of(f, wi, *v)?));
                n_phis += 1;
            }
            for (iv, v) in updates {
                wi.regs[iv.index()] = Some(v);
            }
            wi.inst_idx = n_phis;
            wi.insts += n_phis as u64;
        }

        let insts = &f.block(wi.block).insts;
        if wi.inst_idx >= insts.len() {
            return Err(ExecError::Internal("fell off the end of a block".into()));
        }
        let iv = insts[wi.inst_idx];
        let inst = f
            .inst(iv)
            .ok_or_else(|| ExecError::Internal("block entry is not an instruction".into()))?;
        wi.insts += 1;
        budget.spend()?;

        match inst {
            Inst::Barrier { .. } => {
                wi.inst_idx += 1;
                return Ok(Stop::Barrier(iv));
            }
            Inst::Ret => return Ok(Stop::Done),
            Inst::Br { target } => {
                wi.prev_block = Some(wi.block);
                wi.block = *target;
                wi.inst_idx = 0;
                continue;
            }
            Inst::CondBr {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = branch_cond(value_of(f, wi, *cond)?)?;
                wi.prev_block = Some(wi.block);
                wi.block = if c { *then_blk } else { *else_blk };
                wi.inst_idx = 0;
                continue;
            }
            _ => {}
        }

        let result = eval_inst(r, &wi.lid, &wi.wg, iv, inst, sink, |v| value_of(f, wi, v))?;
        if let Some(v) = result {
            wi.regs[iv.index()] = Some(v);
        }
        wi.inst_idx += 1;
    }
}

fn value_of(f: &Function, wi: &WorkItem, v: ValueId) -> Result<Val, ExecError> {
    match &f.value(v).def {
        ValueDef::Const(c) => Ok(match c {
            ConstVal::Bool(b) => Val::Bool(*b),
            ConstVal::I32(x) => Val::I32(*x),
            ConstVal::I64(x) => Val::I64(*x),
            ConstVal::F32Bits(b) => Val::F32(f32::from_bits(*b)),
        }),
        ValueDef::Param(_) => {
            wi.regs[v.index()].ok_or_else(|| ExecError::Internal("parameter not seeded".into()))
        }
        ValueDef::LocalBuf(id) => Ok(Val::Ptr(PtrVal {
            space: AddressSpace::Local,
            buf: id.0,
            offset: 0,
        })),
        ValueDef::Inst(_) => wi.regs[v.index()]
            .ok_or_else(|| ExecError::Internal(format!("use of unevaluated value v{}", v.0))),
    }
}

/// The condition of a conditional branch.
pub(crate) fn branch_cond(v: Val) -> Result<bool, ExecError> {
    v.as_bool()
        .ok_or_else(|| ExecError::TypeMismatch("condbr on non-bool".into()))
}

/// Evaluate one non-control instruction of the work-item at local id `lid`
/// in group `wg`, reading operands through `val`. The interpreter reads its
/// `Val` register file; the bytecode engine's cold ops read their typed
/// slots, so each piece of semantics has this one implementation.
#[allow(clippy::too_many_lines)]
pub(crate) fn eval_inst(
    r: &mut GroupRun<'_, '_>,
    lid: &[u64; 3],
    wg: &[u64; 3],
    iv: ValueId,
    inst: &Inst,
    sink: &mut dyn TraceSink,
    val: impl Fn(ValueId) -> Result<Val, ExecError>,
) -> Result<Option<Val>, ExecError> {
    let f = r.launch.f;
    match inst {
        Inst::Bin { op, lhs, rhs } => {
            let l = val(*lhs)?;
            let rr = val(*rhs)?;
            Ok(Some(eval_bin(*op, l, rr)?))
        }
        Inst::Cmp { pred, lhs, rhs } => {
            let l = val(*lhs)?;
            let rr = val(*rhs)?;
            Ok(Some(eval_cmp(*pred, l, rr)?))
        }
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => {
            let c = val(*cond)?
                .as_bool()
                .ok_or_else(|| ExecError::TypeMismatch("select on non-bool".into()))?;
            Ok(Some(if c { val(*then_val)? } else { val(*else_val)? }))
        }
        Inst::Cast { kind, value, to } => {
            let v = val(*value)?;
            Ok(Some(eval_cast(*kind, v, *to)?))
        }
        Inst::Call { builtin, args } => {
            let a: Vec<Val> = args.iter().map(|&x| val(x)).collect::<Result<_, _>>()?;
            Ok(Some(eval_call(&r.launch.nd, lid, wg, *builtin, &a)?))
        }
        Inst::Gep { base, index } => {
            let p = val(*base)?
                .as_ptr()
                .ok_or_else(|| ExecError::TypeMismatch("gep base not a pointer".into()))?;
            let idx = val(*index)?
                .as_int()
                .ok_or_else(|| ExecError::TypeMismatch("gep index not an integer".into()))?;
            let elem = f
                .ty(*base)
                .pointee()
                .ok_or_else(|| ExecError::TypeMismatch("gep through non-pointer type".into()))?;
            Ok(Some(Val::Ptr(PtrVal {
                space: p.space,
                buf: p.buf,
                offset: p.offset + idx * elem.size_bytes() as i64,
            })))
        }
        Inst::Load { ptr } => {
            let p = val(*ptr)?
                .as_ptr()
                .ok_or_else(|| ExecError::TypeMismatch("load through non-pointer".into()))?;
            let ty = f.ty(iv);
            let lanes = ty.lanes();
            let v = if r.load_offset != 0 && p.space == AddressSpace::Global {
                let pp = PtrVal {
                    offset: p.offset + r.load_offset * ty.size_bytes() as i64,
                    ..p
                };
                mem_load(r, pp, lanes).or_else(|_| mem_load(r, p, lanes))?
            } else {
                mem_load(r, p, lanes)?
            };
            emit(sink, r, lid, TraceOp::Load, p, ty.size_bytes() as u32, iv);
            Ok(Some(v))
        }
        Inst::Store { ptr, value } => {
            let p = val(*ptr)?
                .as_ptr()
                .ok_or_else(|| ExecError::TypeMismatch("store through non-pointer".into()))?;
            let mut v = val(*value)?;
            if r.corrupt_stores && p.space == AddressSpace::Global {
                v = corrupt_val(v);
            }
            let bytes = f.ty(*value).size_bytes() as u32;
            mem_store(r, p, v)?;
            emit(sink, r, lid, TraceOp::Store, p, bytes, iv);
            Ok(None)
        }
        Inst::ExtractLane { vector, lane } => {
            let v = val(*vector)?;
            let i = val(*lane)?.as_int().unwrap_or(0) as usize;
            v.lane(i)
                .map(Some)
                .ok_or_else(|| ExecError::TypeMismatch("extractlane out of range".into()))
        }
        Inst::InsertLane {
            vector,
            lane,
            value,
        } => {
            let v = val(*vector)?;
            let i = val(*lane)?.as_int().unwrap_or(0) as usize;
            let x = val(*value)?;
            v.with_lane(i, x)
                .map(Some)
                .ok_or_else(|| ExecError::TypeMismatch("insertlane mismatch".into()))
        }
        Inst::BuildVector { lanes } => {
            if lanes.len() > 4 {
                return Err(ExecError::Unsupported("vectors wider than 4 lanes".into()));
            }
            let vals: Vec<Val> = lanes.iter().map(|&x| val(x)).collect::<Result<_, _>>()?;
            build_vector(&vals).map(Some)
        }
        Inst::Phi { .. } => Err(ExecError::Internal("phi outside block head".into())),
        Inst::Barrier { .. } | Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret => {
            Err(ExecError::Internal("control handled by run_item".into()))
        }
    }
}

/// `BuildVector` of at most four lanes (the panic on an empty lane list
/// becomes a `WorkerPanic`).
pub(crate) fn build_vector(vals: &[Val]) -> Result<Val, ExecError> {
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

/// Store perturbation for [`crate::fault::FaultKind::CorruptStores`]:
/// deterministic, value-only (addresses and trace shape are unchanged, so
/// cycle measurements stay comparable while outputs diverge).
pub(crate) fn corrupt_val(v: Val) -> Val {
    match v {
        Val::F32(x) => Val::F32(x + 1.0),
        Val::I32(x) => Val::I32(x ^ 1),
        Val::I64(x) => Val::I64(x ^ 1),
        Val::Bool(b) => Val::Bool(!b),
        Val::VF32(mut a, n) => {
            for x in &mut a {
                *x += 1.0;
            }
            Val::VF32(a, n)
        }
        Val::VI32(mut a, n) => {
            for x in &mut a {
                *x ^= 1;
            }
            Val::VI32(a, n)
        }
        Val::VBool(mut a, n) => {
            for x in &mut a {
                *x = !*x;
            }
            Val::VBool(a, n)
        }
        Val::Ptr(_) => v,
    }
}

pub(crate) fn mem_load(r: &GroupRun<'_, '_>, p: PtrVal, lanes: u8) -> Result<Val, ExecError> {
    match p.space {
        AddressSpace::Global | AddressSpace::Constant => r.launch.mem.load(p.buf, p.offset, lanes),
        AddressSpace::Local => load_from(&r.local_mem[p.buf as usize], p.offset, lanes),
        AddressSpace::Private => Err(ExecError::Unsupported("private memory pointers".into())),
    }
}

pub(crate) fn mem_store(r: &mut GroupRun<'_, '_>, p: PtrVal, v: Val) -> Result<(), ExecError> {
    match p.space {
        AddressSpace::Global => r.launch.mem.store(p.buf, p.offset, v),
        AddressSpace::Constant => Err(ExecError::TypeMismatch("store to __constant".into())),
        AddressSpace::Local => store_to(&mut r.local_mem[p.buf as usize], p.offset, v),
        AddressSpace::Private => Err(ExecError::Unsupported("private memory pointers".into())),
    }
}

fn load_from(data: &BufferData, offset: i64, lanes: u8) -> Result<Val, ExecError> {
    let esz = data.scalar().size_bytes() as i64;
    if offset < 0 || offset % esz != 0 {
        return Err(ExecError::BadAddress(offset));
    }
    let idx = (offset / esz) as usize;
    let n = lanes as usize;
    if idx + n > data.len() {
        return Err(ExecError::OutOfBounds {
            buffer: u32::MAX,
            index: idx + n - 1,
            len: data.len(),
        });
    }
    Ok(match data {
        BufferData::F32(v) => {
            if n == 1 {
                Val::F32(v[idx])
            } else {
                let mut a = [0.0f32; 4];
                a[..n].copy_from_slice(&v[idx..idx + n]);
                Val::VF32(a, lanes)
            }
        }
        BufferData::I32(v) => {
            if n == 1 {
                Val::I32(v[idx])
            } else {
                let mut a = [0i32; 4];
                a[..n].copy_from_slice(&v[idx..idx + n]);
                Val::VI32(a, lanes)
            }
        }
        BufferData::I64(v) => Val::I64(v[idx]),
    })
}

fn store_to(data: &mut BufferData, offset: i64, v: Val) -> Result<(), ExecError> {
    let esz = data.scalar().size_bytes() as i64;
    if offset < 0 || offset % esz != 0 {
        return Err(ExecError::BadAddress(offset));
    }
    let idx = (offset / esz) as usize;
    let n = v.lanes() as usize;
    if idx + n > data.len() {
        return Err(ExecError::OutOfBounds {
            buffer: u32::MAX,
            index: idx + n - 1,
            len: data.len(),
        });
    }
    match (data, v) {
        (BufferData::F32(d), Val::F32(x)) => d[idx] = x,
        (BufferData::F32(d), Val::VF32(a, l)) => {
            d[idx..idx + l as usize].copy_from_slice(&a[..l as usize])
        }
        (BufferData::I32(d), Val::I32(x)) => d[idx] = x,
        (BufferData::I32(d), Val::Bool(x)) => d[idx] = x as i32,
        (BufferData::I32(d), Val::VI32(a, l)) => {
            d[idx..idx + l as usize].copy_from_slice(&a[..l as usize])
        }
        (BufferData::I64(d), Val::I64(x)) => d[idx] = x,
        _ => return Err(ExecError::TypeMismatch("local store kind mismatch".into())),
    }
    Ok(())
}

fn emit(
    sink: &mut dyn TraceSink,
    r: &GroupRun<'_, '_>,
    lid: &[u64; 3],
    op: TraceOp,
    p: PtrVal,
    bytes: u32,
    pc: ValueId,
) {
    let nd = &r.launch.nd;
    let local_linear = (lid[2] * nd.local[1] * nd.local[0] + lid[1] * nd.local[0] + lid[0]) as u32;
    emit_at(sink, r, local_linear, op, p, bytes, pc.0);
}

/// The access-event emitter behind [`emit`], shared with the bytecode
/// backend (which precomputes each item's linear local id).
pub(crate) fn emit_at(
    sink: &mut dyn TraceSink,
    r: &GroupRun<'_, '_>,
    local_linear: u32,
    op: TraceOp,
    p: PtrVal,
    bytes: u32,
    pc: u32,
) {
    let addr = match p.space {
        AddressSpace::Local => r.launch.local_bases[p.buf as usize].wrapping_add(p.offset as u64),
        _ => {
            // Device-wide address: buffer base + offset.
            r.launch.mem.base(p.buf).wrapping_add(p.offset as u64)
        }
    };
    sink.access(&AccessEvent {
        op,
        space: p.space,
        addr,
        bytes,
        group: r.group_linear,
        local: local_linear,
        pc,
    });
}

pub(crate) fn eval_bin(op: BinOp, l: Val, r: Val) -> Result<Val, ExecError> {
    // Vector ops: elementwise over lanes.
    if l.lanes() > 1 || r.lanes() > 1 {
        let n = l.lanes().max(r.lanes());
        let lane_err = || ExecError::Internal("vector lane out of range".into());
        let mut out: Option<Val> = None;
        for i in 0..n as usize {
            let a = l
                .lane(if l.lanes() > 1 { i } else { 0 })
                .ok_or_else(lane_err)?;
            let b = r
                .lane(if r.lanes() > 1 { i } else { 0 })
                .ok_or_else(lane_err)?;
            let x = eval_bin(op, a, b)?;
            out = Some(match out {
                None => match x {
                    Val::F32(v) => {
                        let mut a = [0.0f32; 4];
                        a[0] = v;
                        Val::VF32(a, n)
                    }
                    Val::I32(v) => {
                        let mut a = [0i32; 4];
                        a[0] = v;
                        Val::VI32(a, n)
                    }
                    _ => return Err(ExecError::Unsupported("vector bin kind".into())),
                },
                Some(acc) => acc
                    .with_lane(i, x)
                    .ok_or_else(|| ExecError::TypeMismatch("vector lane mismatch".into()))?,
            });
        }
        // `n >= 2` here (some operand is a vector), so the loop ran and
        // `out` was seeded on its first iteration.
        return out.ok_or_else(|| ExecError::Internal("empty vector op".into()));
    }

    if op.is_float() {
        return match (l.as_f32(), r.as_f32()) {
            (Some(a), Some(b)) => Ok(Val::F32(float_op(op, a, b))),
            _ => Err(ExecError::TypeMismatch("float op on non-floats".into())),
        };
    }
    // Integer ops preserve the width of the left operand.
    let wide = matches!(l, Val::I64(_));
    let (a, b) = match (l.as_int(), r.as_int()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(ExecError::TypeMismatch("int op on non-ints".into())),
    };
    // Bool And/Or/Xor keep bool.
    if matches!(l, Val::Bool(_)) && matches!(op, BinOp::And | BinOp::Or | BinOp::Xor) {
        return Ok(Val::Bool(int_op(op, a, b, false)? != 0));
    }
    let v = int_op(op, a, b, wide)?;
    Ok(if wide {
        Val::I64(v)
    } else {
        Val::I32(v as i32)
    })
}

/// A scalar float operation (`op` is one of the float ops).
///
/// Rust leaves the payload of a NaN result unspecified, and the compiler
/// may commute the operands of `fadd`/`fmul` differently wherever this is
/// inlined; when both operands are NaN, x86 returns the first one. So a
/// NaN result with a NaN `a` is `a` quieted, in every engine.
#[inline(always)]
pub(crate) fn float_op(op: BinOp, a: f32, b: f32) -> f32 {
    use BinOp::*;
    let r = match op {
        FAdd => a + b,
        FSub => a - b,
        FMul => a * b,
        FDiv => a / b,
        FMin => a.min(b),
        FMax => a.max(b),
        _ => unreachable!("{op:?} is not a float op"),
    };
    if r.is_nan() && a.is_nan() {
        f32::from_bits(a.to_bits() | 0x0040_0000)
    } else {
        r
    }
}

/// An integer operation on operands widened to `i64`. Narrow (`i32`)
/// operations keep their unsigned forms at 32 bits; the caller truncates
/// a narrow result.
#[inline(always)]
pub(crate) fn int_op(op: BinOp, a: i64, b: i64, wide: bool) -> Result<i64, ExecError> {
    use BinOp::*;
    if matches!(op, SDiv | UDiv | SRem | URem) && b == 0 {
        return Err(ExecError::DivisionByZero);
    }
    Ok(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        SDiv => a.wrapping_div(b),
        UDiv => {
            if wide {
                ((a as u64) / (b as u64)) as i64
            } else {
                ((a as u32) / (b as u32)) as i64
            }
        }
        SRem => a.wrapping_rem(b),
        URem => {
            if wide {
                ((a as u64) % (b as u64)) as i64
            } else {
                ((a as u32) % (b as u32)) as i64
            }
        }
        Shl => a.wrapping_shl(b as u32),
        LShr => {
            if wide {
                ((a as u64) >> (b as u32 & 63)) as i64
            } else {
                (((a as u32) >> (b as u32 & 31)) as i32) as i64
            }
        }
        AShr => a.wrapping_shr(b as u32),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        _ => unreachable!("{op:?} is not an integer op"),
    })
}

pub(crate) fn eval_cmp(pred: CmpPred, l: Val, r: Val) -> Result<Val, ExecError> {
    if let (Some(a), Some(b)) = (l.as_f32(), r.as_f32()) {
        return float_cmp(pred, a, b)
            .map(Val::Bool)
            .ok_or_else(|| ExecError::TypeMismatch("int predicate on floats".into()));
    }
    let (a, b) = match (l.as_int(), r.as_int()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(ExecError::TypeMismatch("cmp kind mismatch".into())),
    };
    // Unsigned comparisons act on the operand width.
    let wide = matches!(l, Val::I64(_));
    int_cmp(pred, a, b, wide)
        .map(Val::Bool)
        .ok_or_else(|| ExecError::TypeMismatch("float predicate on ints".into()))
}

/// A float comparison; `None` for an integer predicate.
#[inline(always)]
pub(crate) fn float_cmp(pred: CmpPred, a: f32, b: f32) -> Option<bool> {
    use CmpPred::*;
    Some(match pred {
        FEq => a == b,
        FNe => a != b,
        FLt => a < b,
        FLe => a <= b,
        FGt => a > b,
        FGe => a >= b,
        _ => return None,
    })
}

/// An integer comparison of operands widened to `i64`; unsigned
/// predicates compare at 32 bits unless `wide`. `None` for a float
/// predicate.
#[inline(always)]
pub(crate) fn int_cmp(pred: CmpPred, a: i64, b: i64, wide: bool) -> Option<bool> {
    use CmpPred::*;
    let (ua, ub) = if wide {
        (a as u64, b as u64)
    } else {
        (a as u32 as u64, b as u32 as u64)
    };
    Some(match pred {
        Eq => a == b,
        Ne => a != b,
        Slt => a < b,
        Sle => a <= b,
        Sgt => a > b,
        Sge => a >= b,
        Ult => ua < ub,
        Ule => ua <= ub,
        Ugt => ua > ub,
        Uge => ua >= ub,
        _ => return None,
    })
}

pub(crate) fn eval_cast(kind: CastKind, v: Val, to: Type) -> Result<Val, ExecError> {
    use CastKind::*;
    let t = match to {
        Type::Scalar(s) => s,
        _ => return Err(ExecError::Unsupported("vector casts".into())),
    };
    Ok(match (kind, v, t) {
        (SExt, Val::I32(x), Scalar::I64) => Val::I64(x as i64),
        (SExt, Val::Bool(x), Scalar::I32) => Val::I32(-(x as i32)),
        (ZExt, Val::I32(x), Scalar::I64) => Val::I64(x as u32 as i64),
        (ZExt, Val::Bool(x), Scalar::I32) => Val::I32(x as i32),
        (ZExt, Val::Bool(x), Scalar::I64) => Val::I64(x as i64),
        (Trunc, Val::I64(x), Scalar::I32) => Val::I32(x as i32),
        (Trunc, Val::I32(x), Scalar::Bool) => Val::Bool(x & 1 != 0),
        (SiToFp, Val::I32(x), Scalar::F32) => Val::F32(x as f32),
        (SiToFp, Val::I64(x), Scalar::F32) => Val::F32(x as f32),
        (FpToSi, Val::F32(x), Scalar::I32) => Val::I32(x as i32),
        (FpToSi, Val::F32(x), Scalar::I64) => Val::I64(x as i64),
        (Bitcast, Val::I32(x), Scalar::F32) => Val::F32(f32::from_bits(x as u32)),
        (Bitcast, Val::F32(x), Scalar::I32) => Val::I32(x.to_bits() as i32),
        (k, v, t) => return Err(ExecError::Unsupported(format!("cast {k:?} {v:?} -> {t:?}"))),
    })
}

/// The value of one work-item geometry query, shared by the interpreter's
/// [`eval_call`] and the bytecode backend's pre-resolved query op. `b` must
/// be a work-item query builtin and `d` a validated dimension (`0..3`).
pub(crate) fn workitem_query(
    nd: &NdRange,
    lid: &[u64; 3],
    wg: &[u64; 3],
    b: Builtin,
    d: usize,
) -> u64 {
    use Builtin::*;
    match b {
        LocalId => lid[d],
        GroupId => wg[d],
        GlobalId => wg[d] * nd.local[d] + lid[d],
        LocalSize => nd.local[d],
        GlobalSize => nd.global[d],
        NumGroups => nd.global[d] / nd.local[d],
        _ => unreachable!(),
    }
}

pub(crate) fn eval_call(
    nd: &NdRange,
    lid: &[u64; 3],
    wg: &[u64; 3],
    b: Builtin,
    args: &[Val],
) -> Result<Val, ExecError> {
    use Builtin::*;
    if b.is_workitem_query() {
        let d = args[0]
            .as_int()
            .ok_or_else(|| ExecError::TypeMismatch("query dim not integer".into()))?;
        if !(0..3).contains(&d) {
            return Err(ExecError::TypeMismatch(format!(
                "query dim {d} out of range"
            )));
        }
        let d = d as usize;
        let v = workitem_query(nd, lid, wg, b, d);
        return Ok(Val::I64(v as i64));
    }
    let f1 = |x: Val| {
        x.as_f32()
            .ok_or_else(|| ExecError::TypeMismatch("math builtin on non-float".into()))
    };
    // Vector math: elementwise.
    if args[0].lanes() > 1 && matches!(b, Sqrt | Rsqrt | Fabs | Exp | Log | Floor | Mad) {
        let n = args[0].lanes();
        let mut out = args[0];
        for i in 0..n as usize {
            let la: Vec<Val> = args
                .iter()
                .map(|a| {
                    a.lane(i)
                        .ok_or_else(|| ExecError::TypeMismatch("vector math lanes".into()))
                })
                .collect::<Result<_, _>>()?;
            let x = eval_call(nd, lid, wg, b, &la)?;
            out = out
                .with_lane(i, x)
                .ok_or_else(|| ExecError::TypeMismatch("vector math lanes".into()))?;
        }
        return Ok(out);
    }
    Ok(match b {
        Sqrt => Val::F32(f1(args[0])?.sqrt()),
        Rsqrt => Val::F32(1.0 / f1(args[0])?.sqrt()),
        Fabs => Val::F32(f1(args[0])?.abs()),
        Exp => Val::F32(f1(args[0])?.exp()),
        Log => Val::F32(f1(args[0])?.ln()),
        Floor => Val::F32(f1(args[0])?.floor()),
        Mad => Val::F32(f1(args[0])? * f1(args[1])? + f1(args[2])?),
        IMin | IMax => {
            let (a, bb) = (
                args[0]
                    .as_int()
                    .ok_or_else(|| ExecError::TypeMismatch("min on non-int".into()))?,
                args[1]
                    .as_int()
                    .ok_or_else(|| ExecError::TypeMismatch("min on non-int".into()))?,
            );
            let v = if b == IMin { a.min(bb) } else { a.max(bb) };
            match args[0] {
                Val::I64(_) => Val::I64(v),
                _ => Val::I32(v as i32),
            }
        }
        Clamp => {
            if let (Some(x), Some(lo), Some(hi)) =
                (args[0].as_f32(), args[1].as_f32(), args[2].as_f32())
            {
                Val::F32(x.clamp(lo, hi))
            } else {
                let x = args[0].as_int().unwrap_or(0);
                let lo = args[1].as_int().unwrap_or(0);
                let hi = args[2].as_int().unwrap_or(0);
                Val::I32(x.clamp(lo, hi) as i32)
            }
        }
        Dot => {
            let n = args[0].lanes() as usize;
            let lane_err = || ExecError::TypeMismatch("dot operand lanes".into());
            let mut acc = 0.0f32;
            for i in 0..n {
                acc += f1(args[0].lane(i).ok_or_else(lane_err)?)?
                    * f1(args[1].lane(i).ok_or_else(lane_err)?)?;
            }
            Val::F32(acc)
        }
        _ => return Err(ExecError::Unsupported(format!("builtin {}", b.name()))),
    })
}
