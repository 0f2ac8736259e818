//! Trace-driven GPU model (Fermi / Kepler / Tahiti).
//!
//! Work-groups are assigned round-robin to SMs. Within a group, accesses
//! issued by the *same instruction* (`pc`) across the work-items of one
//! warp coalesce: the warp pays one memory transaction per distinct
//! `transaction_bytes`-aligned segment the lanes touch (NVIDIA/AMD
//! coalescing rules, first order). `__local` accesses go to the on-chip
//! scratch-pad at a couple of cycles per warp — the reason staging pays off
//! on GPUs. Global transactions probe a shared L2 and then DRAM; latency is
//! divided by the profile's memory-level parallelism (warps in flight).
//!
//! A retiring group probes the L2 in first-issue order: coalescing slots
//! in the order their first access arrived, each slot's segments in the
//! order its lanes first touched them. Groups still open at `finish`
//! retire in ascending id. The replay is therefore deterministic.

use grover_ir::AddressSpace;
use grover_runtime::{AccessEvent, TraceSink};

use crate::accum::{InFlight, IntMap, IssueOrder};
use crate::cache::{Cache, CacheStats, Probe};
use crate::profiles::GpuProfile;
use crate::PerfReport;

/// GPU performance model (coalescer + SPM + shared L2).
pub struct GpuModel {
    profile: GpuProfile,
    l2: Cache,
    sm_cycles: Vec<u64>,
    mem_cycles: u64,
    compute_cycles: u64,
    barrier_cycles: u64,
    dram_accesses: u64,
    transactions: u64,
    /// Per-group buffered state (one group in flight at a time from a
    /// launch's replay, but any number is handled).
    pending: InFlight<GroupAccum>,
}

#[derive(Default)]
struct GroupAccum {
    /// `(local, pc)` -> how many accesses this work-item has issued at
    /// this pc so far (the occurrence of its next one).
    counters: IntMap<(u32, u32), u32>,
    /// `(pc, occurrence, warp)` -> distinct transaction segments.
    segments: IssueOrder<(u32, u32, u32), u64>,
    spm_accesses: u64,
    instructions: u64,
    barriers: u64,
    items: u64,
}

impl GpuModel {
    /// A fresh model for one device profile.
    pub fn new(profile: GpuProfile) -> GpuModel {
        GpuModel {
            l2: Cache::new(profile.l2),
            sm_cycles: vec![0; profile.sms],
            profile,
            mem_cycles: 0,
            compute_cycles: 0,
            barrier_cycles: 0,
            dram_accesses: 0,
            transactions: 0,
            pending: InFlight::default(),
        }
    }

    fn sm_of(&self, group: u32) -> usize {
        group as usize % self.profile.sms
    }

    /// Finish and report. Any still-pending groups are flushed.
    pub fn finish(&mut self) -> PerfReport {
        for g in self.pending.open_groups() {
            self.retire_group(g);
        }
        PerfReport {
            device: self.profile.name.to_string(),
            cycles: self.sm_cycles.iter().copied().max().unwrap_or(0),
            core_cycles: self.sm_cycles.clone(),
            compute_cycles: self.compute_cycles,
            mem_cycles: self.mem_cycles,
            barrier_cycles: self.barrier_cycles,
            l1: CacheStats::default(),
            l2: self.l2.stats,
            llc: CacheStats::default(),
            dram_accesses: self.dram_accesses,
            transactions: self.transactions,
        }
    }

    fn retire_group(&mut self, group: u32) {
        let Some(acc) = self.pending.take(group) else {
            return;
        };
        let p = &self.profile;
        let sm = self.sm_of(group);
        let mut cycles = 0u64;

        // Global transactions through L2/DRAM.
        let mut mem = 0u64;
        for segs in acc.segments.lists() {
            for &seg in segs {
                self.transactions += 1;
                let lat = if self.l2.access(seg * p.transaction_bytes, false) == Probe::Hit {
                    p.l2_latency
                } else {
                    self.dram_accesses += 1;
                    p.dram_latency
                };
                mem += lat;
            }
        }
        let mem = (mem as f64 / p.mlp) as u64;
        self.mem_cycles += mem;
        cycles += mem;

        // Scratch-pad traffic: warp-parallel lanes.
        let spm = acc.spm_accesses * p.spm_latency / p.warp_width as u64;
        self.mem_cycles += spm;
        cycles += spm;

        // Compute throughput.
        let comp = (acc.instructions as f64 * p.cpi_warp / p.warp_width as f64) as u64;
        self.compute_cycles += comp;
        cycles += comp;

        // Barriers.
        let warps = acc.items.div_ceil(p.warp_width as u64).max(1);
        let bar = acc.barriers * p.barrier_cycles * warps;
        self.barrier_cycles += bar;
        cycles += bar;

        self.sm_cycles[sm] += cycles;
    }
}

impl TraceSink for GpuModel {
    fn access(&mut self, ev: &AccessEvent) {
        let p_warp = self.profile.warp_width;
        let tb = self.profile.transaction_bytes;
        let acc = self.pending.get(ev.group);
        match ev.space {
            AddressSpace::Local => acc.spm_accesses += 1,
            _ => {
                let warp = ev.local / p_warp;
                let occ = {
                    let c = acc.counters.entry((ev.local, ev.pc)).or_insert(0);
                    let v = *c;
                    *c += 1;
                    v
                };
                let segs = acc.segments.entry((ev.pc, occ, warp));
                let first = ev.addr / tb;
                let last = (ev.addr + ev.bytes.max(1) as u64 - 1) / tb;
                for s in first..=last {
                    if !segs.contains(&s) {
                        segs.push(s);
                    }
                }
            }
        }
    }

    fn barrier(&mut self, group: u32, items: u32) {
        let acc = self.pending.get(group);
        acc.barriers += 1;
        acc.items = acc.items.max(items as u64);
    }

    fn workitem_done(&mut self, group: u32, _local: u32, instructions: u64) {
        let acc = self.pending.get(group);
        acc.instructions += instructions;
        acc.items += 1;
    }

    fn workgroup_done(&mut self, group: u32) {
        self.retire_group(group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{fermi, kepler, tahiti};
    use grover_runtime::TraceOp;

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
    fn coalesced_warp_is_one_transaction() {
        let mut m = GpuModel::new(fermi());
        // 32 lanes reading consecutive floats: one 128 B transaction.
        for lane in 0..32 {
            m.access(&ev(lane as u64 * 4, lane, 7));
        }
        m.workgroup_done(0);
        let r = m.finish();
        assert_eq!(r.transactions, 1);
    }

    #[test]
    fn strided_warp_explodes_transactions() {
        let mut m = GpuModel::new(fermi());
        // 32 lanes striding 1 KiB apart (column access): 32 transactions.
        for lane in 0..32 {
            m.access(&ev(lane as u64 * 1024, lane, 7));
        }
        m.workgroup_done(0);
        let r = m.finish();
        assert_eq!(r.transactions, 32);
    }

    #[test]
    fn occurrences_do_not_merge() {
        let mut m = GpuModel::new(fermi());
        // Same pc executed twice by the same lane at different addrs:
        // two occurrences -> two transactions even though same warp.
        m.access(&ev(0, 0, 7));
        m.access(&ev(4096, 0, 7));
        m.workgroup_done(0);
        let r = m.finish();
        assert_eq!(r.transactions, 2);
    }

    #[test]
    fn spm_traffic_is_cheap() {
        let mut a = GpuModel::new(fermi());
        for lane in 0..32 {
            a.access(&AccessEvent {
                op: TraceOp::Load,
                space: AddressSpace::Local,
                addr: lane as u64 * 4,
                bytes: 4,
                group: 0,
                local: lane,
                pc: 3,
            });
        }
        a.workgroup_done(0);
        let ra = a.finish();

        let mut b = GpuModel::new(fermi());
        for lane in 0..32 {
            b.access(&ev(lane as u64 * 1024, lane, 3));
        }
        b.workgroup_done(0);
        let rb = b.finish();
        assert!(
            ra.cycles < rb.cycles,
            "spm {} vs strided global {}",
            ra.cycles,
            rb.cycles
        );
    }

    #[test]
    fn l2_reuse_hits() {
        let mut m = GpuModel::new(tahiti());
        // Two groups touching the same segment: second goes to L2.
        m.access(&ev(0, 0, 1));
        m.workgroup_done(0);
        m.access(&AccessEvent {
            group: 1,
            ..ev(0, 0, 1)
        });
        m.workgroup_done(1);
        let r = m.finish();
        assert_eq!(r.transactions, 2);
        assert_eq!(r.dram_accesses, 1);
        assert_eq!(r.l2.hits, 1);
    }

    #[test]
    fn groups_round_robin_sms() {
        let mut m = GpuModel::new(fermi());
        for g in 0..4u32 {
            m.access(&AccessEvent {
                group: g,
                ..ev(g as u64 * 4096, 0, 1)
            });
            m.workgroup_done(g);
        }
        let r = m.finish();
        assert!(r.core_cycles[0] > 0);
        assert!(r.core_cycles[1] > 0);
    }

    #[test]
    fn vector_access_spanning_segments_counts_two() {
        let mut m = GpuModel::new(tahiti()); // 64-byte segments
                                             // One 16-byte access straddling a segment boundary.
        m.access(&AccessEvent {
            op: TraceOp::Load,
            space: AddressSpace::Global,
            addr: 56,
            bytes: 16,
            group: 0,
            local: 0,
            pc: 1,
        });
        m.workgroup_done(0);
        let r = m.finish();
        assert_eq!(r.transactions, 2);
    }

    #[test]
    fn float4_warp_still_coalesces() {
        let mut m = GpuModel::new(fermi());
        // 32 lanes of float4 (16 B each) = 512 B = four 128 B transactions.
        for lane in 0..32 {
            m.access(&AccessEvent {
                op: TraceOp::Load,
                space: AddressSpace::Global,
                addr: lane as u64 * 16,
                bytes: 16,
                group: 0,
                local: lane,
                pc: 2,
            });
        }
        m.workgroup_done(0);
        let r = m.finish();
        assert_eq!(r.transactions, 4);
    }

    #[test]
    fn different_pcs_do_not_coalesce_together() {
        let mut m = GpuModel::new(fermi());
        m.access(&ev(0, 0, 1));
        m.access(&ev(4, 1, 2)); // adjacent address, different instruction
        m.workgroup_done(0);
        let r = m.finish();
        assert_eq!(r.transactions, 2);
    }

    #[test]
    fn replay_order_is_first_issue_and_repeats_exactly() {
        // A one-line L2: only the last segment group 0 probes survives,
        // so whether group 1's re-read of the first one hits depends on
        // the order group 0's eight coalescing slots retire in.
        let tiny = GpuProfile {
            l2: crate::cache::CacheConfig::new(128, 128, 1, 1),
            ..fermi()
        };
        let run = || {
            let mut m = GpuModel::new(tiny.clone());
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
        // First-issue order: slot 0 probes first and is evicted by slot 7.
        assert_eq!(first.l2.hits, 0);
        assert_eq!(first.dram_accesses, 9);
        for _ in 0..20 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn open_groups_retire_in_ascending_id() {
        let tiny = GpuProfile {
            l2: crate::cache::CacheConfig::new(128, 128, 1, 1),
            ..fermi()
        };
        let mut m = GpuModel::new(tiny);
        // Groups 5, 2 and 9 stay open; `finish` retires 2, 5, 9, so 9's
        // segment is the one left in the L2 and 2's re-read misses.
        for g in [5u32, 2, 9] {
            m.access(&AccessEvent {
                group: g,
                ..ev(u64::from(g) * 4096, 0, 1)
            });
        }
        let _ = m.finish();
        assert_eq!(m.l2.access(9 * 4096, false), Probe::Hit);
        assert!(matches!(m.l2.access(2 * 4096, false), Probe::Miss { .. }));
    }

    /// The transactions a GPU routes to its L2 reach every one of its sets.
    #[test]
    fn the_l2_reaches_all_of_its_sets() {
        for p in [fermi(), kepler(), tahiti()] {
            let segments = 2 * p.l2.size_bytes / p.transaction_bytes;
            let (name, sets) = (p.name, p.l2.num_sets());
            let mut m = GpuModel::new(p.clone());
            for seg in 0..segments {
                let group = seg as u32;
                m.access(&AccessEvent {
                    group,
                    ..ev(seg * p.transaction_bytes, 0, 1)
                });
                m.workgroup_done(group);
            }
            assert_eq!(m.l2.touched_sets() as u64, sets, "{name}");
        }
    }

    #[test]
    fn barrier_and_compute_counted() {
        let mut m = GpuModel::new(fermi());
        m.barrier(0, 64);
        m.workitem_done(0, 0, 320);
        m.workgroup_done(0);
        let r = m.finish();
        assert!(r.barrier_cycles > 0);
        assert!(r.compute_cycles > 0);
    }
}
