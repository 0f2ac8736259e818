#![warn(missing_docs)]
//! # grover-devsim
//!
//! Trace-driven device performance models standing in for the paper's real
//! hardware (SNB, Nehalem, MIC, Fermi, Kepler, Tahiti — paper Table II and
//! Fig. 2). The [`grover_runtime`] interpreter streams every memory access
//! into a model implementing [`grover_runtime::TraceSink`]; the model
//! replays it through set-associative caches (CPU) or a coalescer + SPM +
//! shared L2 (GPU) and reports estimated cycles.
//!
//! The models capture the first-order effects the paper attributes its
//! results to:
//!
//! * CPUs map `__local` onto ordinary cached memory, so staging data
//!   through it costs real loads/stores plus per-barrier work-item
//!   switching (§VI-C's 1.67× NVD-MT win comes from removing exactly this).
//! * Column-major global access patterns thrash CPU caches unless the
//!   kernel stages/transposes tiles through local memory first (the AMD-MM
//!   44 % loss when Grover removes it).
//! * MIC's distributed last-level cache flattens the difference between
//!   versions (§VI-C).
//! * GPUs coalesce per-warp accesses into transactions; local memory is an
//!   on-chip scratch-pad, so de-staging uncoalesced patterns is ruinous
//!   there (Fig. 2's MT losses on Fermi/Kepler/Tahiti).

mod accum;
pub mod cache;
pub mod cpu;
pub mod cpu_simd;
pub mod gpu;
pub mod hierarchy;
pub mod model;
pub mod profiles;

pub use cache::{Cache, CacheConfig, CacheStats, Probe};
pub use cpu::CpuModel;
pub use cpu_simd::SimdCpuModel;
pub use gpu::GpuModel;
pub use model::{agreement, Agreement, AnalyticCpuModel, OpCounts};
pub use profiles::{candidate_sequences, CpuProfile, GpuProfile, ALL_DEVICES, CPU_DEVICES};

use grover_runtime::{AccessEvent, TraceSink};

/// Estimated performance of one kernel launch on one device.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfReport {
    /// Device name the report describes.
    pub device: String,
    /// Estimated wall cycles: the maximum over cores/SMs.
    pub cycles: u64,
    /// Per-core (CPU) or per-SM (GPU) cycle totals.
    pub core_cycles: Vec<u64>,
    /// Cycles attributed to instruction execution.
    pub compute_cycles: u64,
    /// Cycles attributed to memory accesses.
    pub mem_cycles: u64,
    /// Cycles attributed to barrier handling.
    pub barrier_cycles: u64,
    /// Aggregated cache statistics (CPU: across private caches; GPU: `l2`).
    pub l1: CacheStats,
    /// Second-level / GPU-shared-L2 statistics.
    pub l2: CacheStats,
    /// Last-level statistics (CPU only).
    pub llc: CacheStats,
    /// Accesses served by DRAM.
    pub dram_accesses: u64,
    /// Global memory transactions after coalescing (GPU only).
    pub transactions: u64,
}

/// Whether `name` is one of the six modelled devices. Validates a device
/// name without building a model, as [`Device::by_name`] would; the
/// serve front end checks request names with it, so a cache hit runs no
/// device-model code.
pub fn is_device(name: &str) -> bool {
    ALL_DEVICES.contains(&name)
}

/// Any simulated device.
pub enum Device {
    /// A cache-only processor (scalar runtime model).
    Cpu(CpuModel),
    /// A GPU.
    Gpu(GpuModel),
}

impl Device {
    /// Instantiate a device by its paper name
    /// (`SNB`, `Nehalem`, `MIC`, `Fermi`, `Kepler`, `Tahiti`).
    pub fn by_name(name: &str) -> Option<Device> {
        if let Some(p) = profiles::cpu_by_name(name) {
            return Some(Device::Cpu(CpuModel::new(p)));
        }
        profiles::gpu_by_name(name).map(|p| Device::Gpu(GpuModel::new(p)))
    }

    /// Whether this is a cache-only (CPU-class) device.
    pub fn is_cpu(&self) -> bool {
        matches!(self, Device::Cpu(_))
    }

    /// Finish simulation and report.
    pub fn finish(&mut self) -> PerfReport {
        match self {
            Device::Cpu(m) => m.finish(),
            Device::Gpu(m) => m.finish(),
        }
    }
}

impl TraceSink for Device {
    fn access(&mut self, ev: &AccessEvent) {
        match self {
            Device::Cpu(m) => m.access(ev),
            Device::Gpu(m) => m.access(ev),
        }
    }

    fn barrier(&mut self, group: u32, items: u32) {
        match self {
            Device::Cpu(m) => m.barrier(group, items),
            Device::Gpu(m) => m.barrier(group, items),
        }
    }

    fn workitem_done(&mut self, group: u32, local: u32, instructions: u64) {
        match self {
            Device::Cpu(m) => m.workitem_done(group, local, instructions),
            Device::Gpu(m) => m.workitem_done(group, local, instructions),
        }
    }

    fn workgroup_done(&mut self, group: u32) {
        match self {
            Device::Cpu(m) => m.workgroup_done(group),
            Device::Gpu(m) => m.workgroup_done(group),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_lookup() {
        for n in ALL_DEVICES {
            assert!(Device::by_name(n).is_some(), "{n}");
        }
        assert!(Device::by_name("TPU").is_none());
        assert!(Device::by_name("SNB").unwrap().is_cpu());
        assert!(!Device::by_name("Fermi").unwrap().is_cpu());
    }

    #[test]
    fn name_check_agrees_with_model_lookup() {
        for n in ALL_DEVICES.into_iter().chain(["TPU"]) {
            assert_eq!(is_device(n), Device::by_name(n).is_some(), "{n}");
        }
        assert!(!is_device("TPU"));
    }

    #[test]
    fn finish_produces_named_report() {
        let mut d = Device::by_name("Nehalem").unwrap();
        d.workitem_done(0, 0, 10);
        let r = d.finish();
        assert_eq!(r.device, "Nehalem");
        assert!(r.cycles > 0);
    }
}
