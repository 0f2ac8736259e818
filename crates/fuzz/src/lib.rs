//! Differential kernel fuzzing for the Grover pass.
//!
//! The paper's argument rests on one invariant: disabling local-memory
//! usage must be *semantically invisible* — a transformed kernel computes
//! bit-identical outputs under any schedule. This crate tests that
//! invariant generatively rather than by hand-picked examples:
//!
//! 1. [`spec`] describes randomized kernels built around the software-cache
//!    pattern (global load → local store → barrier → local load), with
//!    varying tile shapes, index maps, offsets, halo strips, broadcast
//!    loops and multiple local buffers — plus deliberately invalid
//!    "poison" variants the pass must refuse.
//! 2. [`oracle`] runs each kernel through frontend → pass → interpreter
//!    and bit-compares original vs transformed outputs across serial and
//!    parallel work-group schedules, then re-runs both on the bytecode
//!    engine against the same bits; must-reject kernels are checked for
//!    the exact [`BufferOutcome`](grover_core::BufferOutcome) kind and
//!    reason, and for untouched IR.
//! 3. [`shrink`] minimizes failing specs; [`campaign`] orchestrates a
//!    seeded run, writes shrunk reproducers as standalone `.cl` files, and
//!    emits a stable JSON summary.
//! 4. [`replay`] re-runs reproducers and the checked-in corpus from their
//!    embedded `// fuzz:` directives, so past failures become ordinary
//!    `cargo test` cases.
//!
//! Everything is deterministic and dependency-free: randomness comes from
//! the re-exported SplitMix64 [`Gen`], and a campaign is a pure function of
//! `(seed, cases)`.

pub mod campaign;
pub mod gen;
pub mod oracle;
pub mod replay;
pub mod shrink;
pub mod spec;

pub use campaign::{run_campaign, CampaignOptions, CaseFailure, Summary};
pub use gen::Gen;
pub use oracle::{
    check_source, check_source_seqs, check_spec, check_spec_seqs, random_sequence, CaseOutcome,
    Expectation, Failure, FailureKind,
};
pub use replay::{parse_directives, replay_dir, replay_source, Directives};
pub use shrink::shrink;
pub use spec::{BufSpec, ExecShape, KernelSpec, Poison, ReadMap, ALL_POISONS};
