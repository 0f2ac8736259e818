//! Implicit-SIMD CPU runtime model.
//!
//! Intel's OpenCL CPU runtime (the paper's measurement platform, §V-A)
//! does not execute work-items one by one: its implicit vectorization
//! module fuses `simd_width` consecutive work-items into one vectorised
//! iteration. Memory accesses issued by the *same instruction* across the
//! fused work-items become:
//!
//! * a **vector** access when the lanes touch consecutive addresses,
//! * a **broadcast** when all lanes touch the same address,
//! * a **gather/scatter** otherwise (one probe per lane plus overhead).
//!
//! Barriers become loop fission instead of per-item context switches, so
//! their cost is divided by the vector width.
//!
//! This model exists alongside the scalar [`crate::cpu::CpuModel`] to
//! quantify how much the runtime's execution style changes the
//! with/without-local-memory verdicts (the `ablations` binary compares
//! them). It shares the cache hierarchy, so differences come purely from
//! access fusion.

use grover_ir::AddressSpace;
use grover_runtime::{AccessEvent, TraceOp, TraceSink};

use crate::accum::{InFlight, IntMap, IssueOrder};
use crate::hierarchy::CoreMemory;
use crate::profiles::CpuProfile;
use crate::PerfReport;

/// Extra cycles per lane of a gather/scatter beyond the cache probes.
const GATHER_LANE_OVERHEAD: u64 = 2;

/// Classification of one fused access group.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessClass {
    /// Lanes touch consecutive addresses: one wide access.
    Vector,
    /// All lanes touch the same address: one access.
    Broadcast,
    /// Lanes scatter: one probe per lane plus overhead.
    Gather,
}

/// Classify the per-lane addresses of one instruction across a SIMD group.
pub fn classify(addrs: &[(u64, u32)]) -> AccessClass {
    if addrs.len() <= 1 {
        return AccessClass::Vector;
    }
    let first = addrs[0].0;
    if addrs.iter().all(|&(a, _)| a == first) {
        return AccessClass::Broadcast;
    }
    let elem = addrs[0].1 as u64;
    let consecutive = addrs
        .windows(2)
        .all(|w| w[1].0 == w[0].0 + elem && w[1].1 == w[0].1);
    if consecutive {
        AccessClass::Vector
    } else {
        AccessClass::Gather
    }
}

#[derive(Default)]
struct GroupAccum {
    /// (local, pc) -> how many accesses this work-item issued at this pc.
    counters: IntMap<(u32, u32), u32>,
    /// (pc, occurrence, simd_group) -> fused per-lane `(addr, bytes,
    /// is_store)` accesses in lane order; slots retire in first-issue
    /// order.
    fused: IssueOrder<(u32, u32, u32), (u64, u32, bool)>,
    instructions: u64,
    barriers: u64,
}

/// Trace-driven CPU model with implicit work-item vectorisation.
pub struct SimdCpuModel {
    mem: CoreMemory,
    cycles: Vec<u64>,
    mem_cycles: u64,
    compute_cycles: u64,
    barrier_cycles: u64,
    /// Fused groups classified as vector.
    pub vector_accesses: u64,
    /// Fused groups classified as broadcast.
    pub broadcast_accesses: u64,
    /// Fused groups classified as gather.
    pub gather_accesses: u64,
    pending: InFlight<GroupAccum>,
}

impl SimdCpuModel {
    /// A fresh model for one device profile.
    pub fn new(profile: CpuProfile) -> SimdCpuModel {
        let cores = profile.cores;
        SimdCpuModel {
            mem: CoreMemory::new(profile),
            cycles: vec![0; cores],
            mem_cycles: 0,
            compute_cycles: 0,
            barrier_cycles: 0,
            vector_accesses: 0,
            broadcast_accesses: 0,
            gather_accesses: 0,
            pending: InFlight::default(),
        }
    }

    fn core_of(&self, group: u32) -> usize {
        group as usize % self.mem.profile().cores
    }

    fn retire_group(&mut self, group: u32) {
        let Some(acc) = self.pending.take(group) else {
            return;
        };
        let core = self.core_of(group);
        let p = self.mem.profile().clone();
        let mut cycles = 0u64;

        for lanes in acc.fused.lists() {
            let addrs: Vec<(u64, u32)> = lanes.iter().map(|&(a, b, _)| (a, b)).collect();
            let is_store = lanes.iter().any(|&(_, _, s)| s);
            let clock = self.cycles[core] + cycles;
            let cost = match classify(&addrs) {
                AccessClass::Vector => {
                    self.vector_accesses += 1;
                    let start = addrs[0].0;
                    let total: u64 = addrs.iter().map(|&(_, b)| b as u64).sum();
                    self.mem.access_cost(core, start, total, is_store, clock)
                }
                AccessClass::Broadcast => {
                    self.broadcast_accesses += 1;
                    self.mem
                        .access_cost(core, addrs[0].0, addrs[0].1 as u64, is_store, clock)
                }
                AccessClass::Gather => {
                    self.gather_accesses += 1;
                    let mut c = 0;
                    for &(a, b) in &addrs {
                        c += self.mem.access_cost(core, a, b as u64, is_store, clock)
                            / 2 // lanes overlap in the memory pipeline
                            + GATHER_LANE_OVERHEAD;
                    }
                    c
                }
            };
            cycles += cost;
        }
        self.mem_cycles += cycles;

        // Vectorised compute: one instruction covers simd_width items.
        let comp = (acc.instructions as f64 * p.cpi / p.simd_width as f64) as u64;
        self.compute_cycles += comp;
        cycles += comp;

        // Barriers via loop fission: per-item switching divided by width.
        let bar = acc.barriers * p.barrier_switch_cycles / p.simd_width as u64;
        self.barrier_cycles += bar;
        cycles += bar;

        self.cycles[core] += cycles;
    }

    /// Finish the simulation (retiring pending groups in ascending id) and
    /// report.
    pub fn finish(&mut self) -> PerfReport {
        for g in self.pending.open_groups() {
            self.retire_group(g);
        }
        PerfReport {
            device: self.mem.profile().name.to_string(),
            cycles: self.cycles.iter().copied().max().unwrap_or(0),
            core_cycles: self.cycles.clone(),
            compute_cycles: self.compute_cycles,
            mem_cycles: self.mem_cycles,
            barrier_cycles: self.barrier_cycles,
            l1: self.mem.l1_stats(),
            l2: self.mem.l2_stats(),
            llc: self.mem.llc_stats(),
            dram_accesses: self.mem.dram_accesses,
            transactions: 0,
        }
    }
}

impl TraceSink for SimdCpuModel {
    fn access(&mut self, ev: &AccessEvent) {
        let core = self.core_of(ev.group);
        let addr = match ev.space {
            AddressSpace::Local => self.mem.phys(core, ev.space, ev.addr),
            _ => ev.addr,
        };
        let width = self.mem.profile().simd_width;
        let acc = self.pending.get(ev.group);
        let occ = {
            let c = acc.counters.entry((ev.local, ev.pc)).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        let sgroup = ev.local / width;
        acc.fused
            .entry((ev.pc, occ, sgroup))
            .push((addr, ev.bytes, ev.op == TraceOp::Store));
    }

    fn barrier(&mut self, group: u32, items: u32) {
        let acc = self.pending.get(group);
        acc.barriers += items as u64;
    }

    fn workitem_done(&mut self, group: u32, _local: u32, instructions: u64) {
        let acc = self.pending.get(group);
        acc.instructions += instructions;
    }

    fn workgroup_done(&mut self, group: u32) {
        self.retire_group(group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::snb;

    fn ev(addr: u64, local: u32, pc: u32) -> AccessEvent {
        AccessEvent {
            op: TraceOp::Load,
            space: AddressSpace::Global,
            addr,
            bytes: 4,
            group: 0,
            local,
            pc,
        }
    }

    #[test]
    fn classify_shapes() {
        assert_eq!(
            classify(&[(0, 4), (4, 4), (8, 4), (12, 4)]),
            AccessClass::Vector
        );
        assert_eq!(
            classify(&[(100, 4), (100, 4), (100, 4)]),
            AccessClass::Broadcast
        );
        assert_eq!(
            classify(&[(0, 4), (1024, 4), (2048, 4)]),
            AccessClass::Gather
        );
        assert_eq!(classify(&[(0, 4)]), AccessClass::Vector);
    }

    #[test]
    fn consecutive_lanes_fuse_to_vector() {
        let mut m = SimdCpuModel::new(snb());
        for lane in 0..8 {
            m.access(&ev(lane as u64 * 4, lane, 1));
        }
        m.workgroup_done(0);
        let r = m.finish();
        assert_eq!(m.vector_accesses, 1);
        assert_eq!(m.gather_accesses, 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn uniform_lanes_fuse_to_broadcast() {
        let mut m = SimdCpuModel::new(snb());
        for lane in 0..8 {
            m.access(&ev(0x400, lane, 1));
        }
        m.workgroup_done(0);
        let _ = m.finish();
        assert_eq!(m.broadcast_accesses, 1);
    }

    #[test]
    fn strided_lanes_become_gathers_and_cost_more() {
        let mut a = SimdCpuModel::new(snb());
        let mut b = SimdCpuModel::new(snb());
        for lane in 0..8 {
            a.access(&ev(lane as u64 * 4, lane, 1)); // vector
            b.access(&ev(lane as u64 * 4096, lane, 1)); // gather
        }
        a.workgroup_done(0);
        b.workgroup_done(0);
        let ra = a.finish();
        let rb = b.finish();
        assert_eq!(b.gather_accesses, 1);
        assert!(rb.cycles > ra.cycles, "{} vs {}", rb.cycles, ra.cycles);
    }

    #[test]
    fn compute_is_divided_by_width() {
        let mut m = SimdCpuModel::new(snb());
        m.workitem_done(0, 0, 800);
        m.workgroup_done(0);
        let r = m.finish();
        // 800 insts * cpi 0.7 / width 8 = 70
        assert_eq!(r.compute_cycles, 70);
    }

    #[test]
    fn barriers_are_cheap_under_fission() {
        let mut simd = SimdCpuModel::new(snb());
        simd.barrier(0, 256);
        simd.workgroup_done(0);
        let rs = simd.finish();
        let mut scalar = crate::cpu::CpuModel::new(snb());
        scalar.barrier(0, 256);
        let rc = scalar.finish();
        assert!(rs.barrier_cycles < rc.barrier_cycles);
    }

    #[test]
    fn replay_order_is_first_issue_and_repeats_exactly() {
        // One-line caches at every level and no prefetcher: only the last
        // line group 0 touches survives, so whether group 1's re-read of
        // the first one hits depends on the order group 0's eight fused
        // slots retire in.
        let one_line = crate::cache::CacheConfig::new(64, 64, 1, 1);
        let tiny = CpuProfile {
            cores: 1,
            l1: one_line,
            l2: one_line,
            llc: one_line,
            prefetch_streams: 0,
            ..snb()
        };
        let run = || {
            let mut m = SimdCpuModel::new(tiny.clone());
            for pc in 0..8u32 {
                m.access(&ev(u64::from(pc) * 4096, 0, pc));
            }
            m.workgroup_done(0);
            m.access(&AccessEvent {
                group: 1,
                ..ev(0, 0, 0)
            });
            m.workgroup_done(1);
            m.finish()
        };
        let first = run();
        // First-issue order: slot 0 retires first and is evicted by slot 7.
        assert_eq!(first.l1.hits, 0);
        assert_eq!(first.dram_accesses, 9);
        for _ in 0..20 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn different_pcs_do_not_fuse() {
        let mut m = SimdCpuModel::new(snb());
        m.access(&ev(0, 0, 1));
        m.access(&ev(4, 1, 2));
        m.workgroup_done(0);
        let _ = m.finish();
        assert_eq!(
            m.vector_accesses + m.broadcast_accesses + m.gather_accesses,
            2
        );
    }
}
