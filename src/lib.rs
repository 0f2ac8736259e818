//! # grover
//!
//! Facade crate for the **Grover** toolchain — a full reproduction of
//! *"Grover: Looking for Performance Improvement by Disabling Local Memory
//! Usage in OpenCL Kernels"* (Fang, Sips, Jääskeläinen, Varbanescu — ICPP
//! 2014), built from scratch in Rust.
//!
//! The toolchain mirrors the paper's pipeline (Fig. 9):
//!
//! ```text
//! OpenCL C ──frontend──▶ SSA IR ──grover pass──▶ IR without local memory
//!                          │                         │
//!                       runtime (NDRange interpreter + memory trace)
//!                          │                         │
//!                       devsim (SNB / Nehalem / MIC / Fermi / Kepler / Tahiti)
//!                          ▼                         ▼
//!                     cycles(with LM)  vs  cycles(without LM)  → np
//! ```
//!
//! * [`frontend`] — the OpenCL C subset compiler (Clang stand-in)
//! * [`ir`] — typed SSA IR with address spaces (LLVM/SPIR stand-in)
//! * [`pass`] — the Grover transformation itself
//! * [`runtime`] — OpenCL-like host API + interpreter (vendor-runtime stand-in)
//! * [`devsim`] — trace-driven device performance models (hardware stand-in)
//! * [`kernels`] — the 11 benchmark applications of Table I
//! * [`tuner`] — the auto-tuning framework of §VIII (future work, implemented)
//! * [`obs`] — telemetry: spans, events, launch metrics, JSONL export
//! * [`serve`] — persistent tuning-cache service with an HTTP compile/tune API
//! * [`predict`] — architecture-independent features + zero-launch predictive tuning
//!
//! ## Quickstart
//!
//! ```
//! use grover::frontend::{compile, BuildOptions};
//! use grover::pass::Grover;
//!
//! let mut module = compile(
//!     "__kernel void stage(__global float* in, __global float* out) {
//!          __local float lm[64];
//!          int lx = get_local_id(0);
//!          int gx = get_global_id(0);
//!          lm[lx] = in[gx];
//!          barrier(CLK_LOCAL_MEM_FENCE);
//!          out[gx] = lm[63 - lx];
//!      }",
//!     &BuildOptions::new(),
//! ).unwrap();
//!
//! let kernel = module.kernel_mut("stage").unwrap();
//! let report = Grover::new().run_on(kernel);
//! assert!(report.all_removed());
//! assert_eq!(kernel.local_mem_bytes(), 0);
//! ```

pub use grover_core as pass;
pub use grover_devsim as devsim;
pub use grover_frontend as frontend;
pub use grover_fuzz as fuzz;
pub use grover_ir as ir;
pub use grover_kernels as kernels;
pub use grover_obs as obs;
pub use grover_predict as predict;
pub use grover_runtime as runtime;
pub use grover_serve as serve;
pub use grover_tuner as tuner;

pub use grover_core::{Grover, GroverOptions, GroverReport};
pub use grover_frontend::{compile, BuildOptions};
pub use grover_runtime::{enqueue, ArgValue, Context, Launch, Limits, NdRange};
