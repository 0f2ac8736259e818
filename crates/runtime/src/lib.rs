#![warn(missing_docs)]
//! # grover-runtime
//!
//! An OpenCL-like host API and NDRange interpreter for [`grover_ir`]
//! kernels — the stand-in for the vendor OpenCL runtimes of the Grover
//! paper's experimental pipeline (paper §V-A).
//!
//! * [`Context`] owns device buffers (`clCreateBuffer`-style).
//! * [`enqueue`] launches a kernel over an [`NdRange`] with full work-group
//!   semantics: work-items of a group execute serially between barriers and
//!   rendezvous at each [`grover_ir::value::Inst::Barrier`]. It is the one
//!   launch entry point; a [`Launch`] carries everything else about the
//!   launch — [`Limits`], the work-group schedule ([`ExecPolicy`]: serial,
//!   or partitioned across a pool of worker threads with deterministic
//!   group-linear trace replay), the engine ([`Backend`]), an optional
//!   telemetry recorder and opcode profile, and the launch's own
//!   [`fault::Faults`] plan.
//! * Every memory access streams an [`AccessEvent`] into a [`TraceSink`];
//!   the device simulator (`grover-devsim`) replays these events against
//!   cache/scratch-pad models to estimate per-device performance.
//!
//! ```
//! use grover_frontend::{compile, BuildOptions};
//! use grover_runtime::{enqueue, ArgValue, Context, Launch, NdRange, NullSink};
//!
//! let module = compile(
//!     "__kernel void scale(__global float* a, float s) {
//!          int i = get_global_id(0);
//!          a[i] = a[i] * s;
//!      }",
//!     &BuildOptions::new(),
//! ).unwrap();
//! let kernel = module.kernel("scale").unwrap();
//!
//! let mut ctx = Context::new();
//! let buf = ctx.buffer_f32(&[1.0, 2.0, 3.0, 4.0]);
//! enqueue(
//!     &mut ctx,
//!     kernel,
//!     &[ArgValue::Buffer(buf), ArgValue::F32(2.0)],
//!     &NdRange::d1(4, 2),
//!     &mut NullSink,
//!     &Launch::default(),
//! ).unwrap();
//! assert_eq!(ctx.read_f32(buf), &[2.0, 4.0, 6.0, 8.0]);
//! ```

pub mod buffer;
pub mod bytecode;
pub mod fault;
pub mod interp;
pub mod obs;
pub mod trace;
pub mod val;

pub use buffer::{Buffer, BufferData, Context};
pub use bytecode::{disassemble, Backend, BlockProfile, OpKindProfile, OpProfile};
pub use interp::{enqueue, ArgValue, ExecPolicy, Launch, LaunchStats, Limits, NdRange, WorkerStat};
pub use trace::{AccessEvent, CountingSink, NullSink, SpaceBytes, TraceOp, TraceSink, VecSink};
pub use val::{PtrVal, Val};

/// Execution failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Wrong number of kernel arguments.
    ArgCount {
        /// Parameters the kernel declares.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// Argument/operation type mismatch.
    TypeMismatch(String),
    /// Memory access outside a buffer.
    OutOfBounds {
        /// Buffer index (`u32::MAX` = a local buffer).
        buffer: u32,
        /// Offending element index.
        index: usize,
        /// Buffer length in elements.
        len: usize,
    },
    /// Misaligned or negative address.
    BadAddress(i64),
    /// Integer division by zero.
    DivisionByZero,
    /// Work-items of one group reached different barriers (or some returned
    /// while others wait) — undefined behaviour in OpenCL, an error here.
    BarrierDivergence,
    /// The launch exceeded [`Limits::max_instructions`].
    InstructionLimit,
    /// The launch exceeded [`Limits::deadline`] (wall clock). The watchdog
    /// drains the shared instruction budget, so every worker stops within
    /// one budget chunk of the deadline being noticed.
    DeadlineExceeded,
    /// Invalid NDRange geometry.
    BadNdRange(String),
    /// The kernel fails [`grover_ir::verify`], or its values do not hold
    /// one kind of value each (a phi or select merging, say, an `i32` and
    /// an `i64`): no engine runs it.
    InvalidKernel(String),
    /// A construct the interpreter does not support.
    Unsupported(String),
    /// A panic while executing a work-group (in the interpreter, a trace
    /// sink, or an injected fault) was caught and converted instead of
    /// unwinding through — or aborting — the process.
    WorkerPanic {
        /// Linear id of the group being executed (`u32::MAX` = the panic
        /// escaped per-group isolation; provably unreachable short of a
        /// bug in the launch machinery itself).
        group: u32,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Interpreter invariant violation (a bug).
    Internal(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ArgCount { expected, got } => {
                write!(f, "kernel expects {expected} arguments, got {got}")
            }
            ExecError::TypeMismatch(s) => write!(f, "type mismatch: {s}"),
            ExecError::OutOfBounds { buffer, index, len } => {
                write!(
                    f,
                    "out-of-bounds access: buffer {buffer}, element {index}, length {len}"
                )
            }
            ExecError::BadAddress(a) => write!(f, "misaligned or negative address {a}"),
            ExecError::DivisionByZero => f.write_str("integer division by zero"),
            ExecError::BarrierDivergence => {
                f.write_str("work-items reached different barriers (divergent barrier)")
            }
            ExecError::InstructionLimit => f.write_str("instruction limit exceeded"),
            ExecError::DeadlineExceeded => f.write_str("launch exceeded its wall-clock deadline"),
            ExecError::BadNdRange(s) => write!(f, "invalid NDRange: {s}"),
            ExecError::InvalidKernel(s) => write!(f, "invalid kernel: {s}"),
            ExecError::Unsupported(s) => write!(f, "unsupported: {s}"),
            ExecError::WorkerPanic { group, message } => {
                if *group == u32::MAX {
                    write!(f, "worker panicked: {message}")
                } else {
                    write!(f, "worker panicked in work-group {group}: {message}")
                }
            }
            ExecError::Internal(s) => write!(f, "internal interpreter error: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}
