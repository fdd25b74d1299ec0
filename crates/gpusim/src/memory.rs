//! Per-SM memory system: L1 → L2 slice → bandwidth-limited DRAM.
//!
//! The model captures exactly the mechanisms occupancy tuning interacts
//! with: latency that more warps can hide, cache capacity that more
//! warps thrash, and DRAM bandwidth that saturates. DRAM is a queue with
//! a fixed per-transaction service time (the SM's share of device
//! bandwidth); queueing delay emerges when many warps miss at once.

use crate::cache::Cache;
use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Which address space a transaction belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Global memory (L1-cached only on Fermi).
    Global,
    /// Per-thread local memory (spills) — L1-cached on both devices.
    Local,
}

/// Dynamic memory counters (feed the power model and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub dram_transactions: u64,
    pub dram_bytes: u64,
}

/// One SM's view of the memory hierarchy.
#[derive(Debug)]
pub struct MemSystem {
    l1: Cache,
    l2: Cache,
    l1_caches_global: bool,
    l1_latency: u64,
    l2_latency: u64,
    dram_latency: u64,
    dram_service: u64,
    /// Next cycle at which the DRAM channel share is free.
    dram_free: u64,
    line: u64,
    pub stats: MemStats,
}

impl MemSystem {
    /// Build the memory system for one SM of `dev`.
    pub fn new(dev: &DeviceSpec) -> MemSystem {
        MemSystem {
            l1: Cache::new(dev.l1_per_sm(), dev.l1_line, dev.l1_ways),
            l2: Cache::new(dev.l2_slice_bytes, dev.l2_line, dev.l2_ways),
            l1_caches_global: dev.l1_caches_global,
            l1_latency: dev.l1_latency,
            l2_latency: dev.l2_latency,
            dram_latency: dev.dram_latency,
            dram_service: dev.dram_cycles_per_transaction,
            dram_free: 0,
            line: u64::from(dev.l1_line),
            stats: MemStats::default(),
        }
    }

    /// Issue one 128-byte transaction at cycle `now`; returns its
    /// completion cycle. Stores consume the same bandwidth but callers
    /// typically ignore the completion time (store buffering).
    pub fn access(&mut self, addr: u64, now: u64, kind: MemKind) -> u64 {
        let use_l1 = match kind {
            MemKind::Global => self.l1_caches_global,
            MemKind::Local => true,
        };
        if use_l1 {
            if self.l1.access(addr) {
                self.stats.l1_hits += 1;
                return now + self.l1_latency;
            }
            self.stats.l1_misses += 1;
        }
        if self.l2.access(addr) {
            self.stats.l2_hits += 1;
            return now + self.l2_latency;
        }
        self.stats.l2_misses += 1;
        // DRAM: wait for the channel, occupy it for the service time.
        let start = now.max(self.dram_free);
        self.dram_free = start + self.dram_service;
        self.stats.dram_transactions += 1;
        self.stats.dram_bytes += self.line;
        start + self.dram_latency
    }

    /// Coalesce per-lane byte addresses into unique cache-line
    /// transactions (the hardware's 128-byte segment rule).
    pub fn coalesce(&self, addrs: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut lines = Vec::new();
        self.coalesce_into(addrs, &mut lines);
        lines
    }

    /// [`coalesce`](Self::coalesce) into a caller-owned buffer, so hot
    /// paths can recycle one allocation across every warp access.
    pub fn coalesce_into(&self, addrs: impl Iterator<Item = u64>, lines: &mut Vec<u64>) {
        lines.clear();
        lines.extend(addrs.map(|a| a & !(self.line - 1)));
        // Unit-stride warps arrive already ascending: skip the sort.
        if !lines.is_sorted() {
            lines.sort_unstable();
        }
        lines.dedup();
    }

    /// Drop all cached state (between launches).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }

    /// L1 hit/miss counters of this SM.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(global_in_l1: bool) -> MemSystem {
        let mut dev = DeviceSpec::c2075();
        dev.l1_caches_global = global_in_l1;
        MemSystem::new(&dev)
    }

    #[test]
    fn dram_queueing_serializes() {
        let mut m = sys(false);
        // Two cold misses to distinct lines at the same cycle: the second
        // completes later because the channel is busy.
        let t1 = m.access(0, 0, MemKind::Global);
        let t2 = m.access(1 << 20, 0, MemKind::Global);
        assert!(t2 > t1);
        assert_eq!(m.stats.dram_transactions, 2);
    }

    #[test]
    fn l2_hit_is_faster_than_dram() {
        let mut m = sys(false);
        let cold = m.access(0, 0, MemKind::Global);
        let warm = m.access(0, cold, MemKind::Global) - cold;
        assert!(warm < cold);
        assert_eq!(m.stats.l2_hits, 1);
    }

    #[test]
    fn local_always_uses_l1() {
        let mut m = sys(false); // Kepler-style: global bypasses L1
        m.access(0, 0, MemKind::Local);
        let t = m.access(0, 1000, MemKind::Local);
        assert_eq!(t, 1000 + m.l1_latency);
        assert_eq!(m.stats.l1_hits, 1);
    }

    #[test]
    fn global_bypasses_l1_on_kepler() {
        let mut m = sys(false);
        m.access(0, 0, MemKind::Global);
        m.access(0, 1000, MemKind::Global);
        assert_eq!(m.stats.l1_hits + m.stats.l1_misses, 0);
        assert_eq!(m.stats.l2_hits, 1);
    }

    #[test]
    fn coalescing_dedups_lines() {
        let m = sys(true);
        // 32 lanes × 4B stride from base 256: one 128B line.
        let lines = m.coalesce((0..32u64).map(|i| 256 + i * 4));
        assert_eq!(lines, vec![256]);
        // Stride 128: 32 distinct lines.
        let lines = m.coalesce((0..32u64).map(|i| i * 128));
        assert_eq!(lines.len(), 32);
    }
}
