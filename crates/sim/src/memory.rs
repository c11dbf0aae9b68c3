//! The timed memory subsystem: hierarchy + MSHRs + memory bus +
//! prefetch timeliness.

use pmt_cachesim::{AccessOutcome, HierarchySim, Mshr, StridePrefetcher};
use pmt_uarch::{DataLevel, MachineConfig};
use std::collections::HashMap;

/// Where a load was served from (with DRAM flattened in).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedBy {
    /// L1-D hit.
    L1,
    /// L2 hit.
    L2,
    /// L3 (LLC) hit.
    L3,
    /// DRAM access.
    Memory,
}

/// Result of a timed load access.
#[derive(Clone, Copy, Debug)]
pub struct LoadResult {
    /// Cycle at which the data is available.
    pub done: u64,
    /// Serving level.
    pub served_by: ServedBy,
    /// True when this load issued a *new* DRAM request (not coalesced with
    /// an outstanding fill) — the unit of MLP counting.
    pub new_dram: bool,
}

/// The timed memory subsystem.
pub struct TimedMemory {
    hier: HierarchySim,
    mshr: Mshr,
    bus_free_at: u64,
    /// Lines currently being filled (prefetches and demand misses) and
    /// their completion cycles; accesses to an in-flight line wait for it.
    inflight: HashMap<u64, u64>,
    prefetcher: Option<StridePrefetcher>,
    l1_lat: u64,
    l2_lat: u64,
    l3_lat: u64,
    dram_lat: u64,
    bus_transfer: u64,
    line_shift: u32,
    page_bytes: u64,
    /// Counters.
    pub dram_accesses: u64,
    pub bus_transfers: u64,
    pub prefetches: u64,
}

impl TimedMemory {
    /// Build from the machine configuration.
    pub fn new(machine: &MachineConfig) -> TimedMemory {
        // The functional hierarchy is used without its own prefetcher —
        // prefetch timing is handled here.
        let hier = HierarchySim::new(machine.caches, None);
        TimedMemory {
            hier,
            mshr: Mshr::new(machine.mem.mshr_entries as usize),
            bus_free_at: 0,
            inflight: HashMap::new(),
            prefetcher: if machine.prefetcher.enabled {
                Some(StridePrefetcher::new(
                    machine.prefetcher.table_entries as usize,
                ))
            } else {
                None
            },
            l1_lat: machine.caches.l1d.latency as u64,
            l2_lat: machine.caches.l2.latency as u64,
            l3_lat: machine.caches.l3.latency as u64,
            dram_lat: machine.mem.dram_latency as u64,
            bus_transfer: machine.mem.bus_transfer_cycles as u64,
            line_shift: machine.caches.l1d.line_bytes.trailing_zeros(),
            page_bytes: machine.mem.dram_page_bytes as u64,
            dram_accesses: 0,
            bus_transfers: 0,
            prefetches: 0,
        }
    }

    /// The functional hierarchy (for stats).
    pub fn hierarchy(&self) -> &HierarchySim {
        &self.hier
    }

    /// Claim the memory bus for one line transfer starting no earlier than
    /// `earliest`; returns the transfer completion cycle.
    fn claim_bus(&mut self, earliest: u64) -> u64 {
        let start = self.bus_free_at.max(earliest);
        self.bus_free_at = start + self.bus_transfer;
        self.bus_transfers += 1;
        self.bus_free_at
    }

    /// A timed load. `now` is the issue cycle. Returns `Err(retry_at)`
    /// when no MSHR entry is available.
    pub fn load(&mut self, addr: u64, pc: u64, now: u64) -> Result<LoadResult, u64> {
        let line = addr >> self.line_shift;

        // Train the prefetcher on every load.
        if let Some(pf) = self.prefetcher.as_mut() {
            if let Some(target) = pf.train(pc, addr) {
                if target / self.page_bytes == addr / self.page_bytes {
                    self.issue_prefetch(target, now);
                }
            }
        }

        // In-flight fill (e.g. a prefetch): wait for it — partial latency
        // hiding, the timeliness of Eq 4.13.
        if let Some(&ready) = self.inflight.get(&line) {
            if ready > now {
                let _ = self.hier.access_data(addr, false, pc);
                return Ok(LoadResult {
                    done: ready.max(now + self.l1_lat),
                    served_by: if ready > now + self.l3_lat {
                        ServedBy::Memory
                    } else {
                        ServedBy::L3
                    },
                    new_dram: false,
                });
            }
            self.inflight.remove(&line);
        }

        // Coalesce with an outstanding miss to the same line.
        self.mshr.expire(now);
        if let Some(ready) = self.mshr.outstanding(line) {
            return Ok(LoadResult {
                done: ready.max(now + self.l1_lat),
                served_by: if ready > now + self.l3_lat {
                    ServedBy::Memory
                } else {
                    ServedBy::L2
                },
                new_dram: false,
            });
        }

        // Structural check *before* mutating the caches: a load that
        // cannot get an MSHR entry must not perturb hierarchy state.
        let probe = self.hier.probe_data(addr);
        let needs_mshr = !matches!(probe, Some(DataLevel::L1d));
        if needs_mshr && self.mshr.in_flight() >= self.mshr.capacity() {
            return Err(self.mshr.earliest_free().expect("full file is non-empty"));
        }

        let outcome = self.hier.access_data(addr, false, pc);
        match outcome {
            AccessOutcome::Hit(DataLevel::L1d) => Ok(LoadResult {
                done: now + self.l1_lat,
                served_by: ServedBy::L1,
                new_dram: false,
            }),
            AccessOutcome::Hit(DataLevel::L2) => {
                let done = now + self.l2_lat;
                let ready = self.mshr.allocate(line, done, now).expect("checked free");
                Ok(LoadResult {
                    done: ready,
                    served_by: ServedBy::L2,
                    new_dram: false,
                })
            }
            AccessOutcome::Hit(DataLevel::L3) => {
                let done = now + self.l3_lat;
                let ready = self.mshr.allocate(line, done, now).expect("checked free");
                Ok(LoadResult {
                    done: ready,
                    served_by: ServedBy::L3,
                    new_dram: false,
                })
            }
            AccessOutcome::Memory { .. } => {
                // DRAM: latency + bus queuing.
                let data_at = now + self.dram_lat;
                let done = self.claim_bus(data_at.saturating_sub(self.bus_transfer));
                let ready = self.mshr.allocate(line, done, now).expect("checked free");
                self.dram_accesses += 1;
                if self.prefetcher.is_none() {
                    // Nothing else collects finished fills here. Without a
                    // prefetcher only the lookup above reads `inflight`, and
                    // it treats a fill with `ready <= now` as absent; loads
                    // issue in cycle order, so dropping those is invisible.
                    // (`issue_prefetch` also reads stale entries, so with a
                    // prefetcher its own collection stays in charge.)
                    self.inflight.retain(|_, &mut r| r > now);
                }
                self.inflight.insert(line, ready);
                Ok(LoadResult {
                    done: ready,
                    served_by: ServedBy::Memory,
                    new_dram: true,
                })
            }
        }
    }

    /// A timed store: fire-and-forget for the core, but it consumes bus
    /// bandwidth when it misses the LLC (thesis §4.7).
    pub fn store(&mut self, addr: u64, pc: u64, now: u64) {
        let outcome = self.hier.access_data(addr, true, pc);
        if let AccessOutcome::Memory { .. } = outcome {
            self.dram_accesses += 1;
            let data_at = now + self.dram_lat;
            self.claim_bus(data_at.saturating_sub(self.bus_transfer));
        }
    }

    fn issue_prefetch(&mut self, target: u64, now: u64) {
        let line = target >> self.line_shift;
        if self.inflight.contains_key(&line) {
            return;
        }
        // Only prefetch what is not already close to the core; model the
        // fill latency from its source.
        match self.hier.probe_data(target) {
            Some(DataLevel::L1d) | Some(DataLevel::L2) => return,
            Some(DataLevel::L3) => {
                self.hier.prefetch_fill(target);
                self.inflight.insert(line, now + self.l3_lat);
            }
            None => {
                self.hier.prefetch_fill(target);
                self.dram_accesses += 1;
                let data_at = now + self.dram_lat;
                let ready = self.claim_bus(data_at.saturating_sub(self.bus_transfer));
                self.inflight.insert(line, ready);
            }
        }
        self.prefetches += 1;
        // Garbage-collect stale entries occasionally.
        if self.inflight.len() > 4096 {
            self.inflight.retain(|_, &mut r| r > now);
        }
    }

    /// Timed instruction fetch of the line containing `pc`: returns the
    /// cycle the fetch completes (`now` for an L1-I hit).
    pub fn fetch_inst(&mut self, pc: u64, now: u64) -> u64 {
        match self.hier.access_inst(pc) {
            Some(DataLevel::L1d) => now,
            Some(DataLevel::L2) => now + self.l2_lat,
            Some(DataLevel::L3) => now + self.l3_lat,
            None => {
                let data_at = now + self.dram_lat;
                self.dram_accesses += 1;
                self.claim_bus(data_at.saturating_sub(self.bus_transfer))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_uarch::MachineConfig;

    fn mem() -> TimedMemory {
        TimedMemory::new(&MachineConfig::nehalem())
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut m = mem();
        // Warm the line.
        let _ = m.load(0x1000, 0x4, 0);
        let r = m.load(0x1000, 0x4, 500).unwrap();
        assert_eq!(r.served_by, ServedBy::L1);
        assert_eq!(r.done, 502);
    }

    #[test]
    fn dram_access_includes_bus() {
        let mut m = mem();
        let r = m.load(0x10_0000, 0x4, 0).unwrap();
        assert_eq!(r.served_by, ServedBy::Memory);
        assert!(r.done >= 200, "{}", r.done);
    }

    #[test]
    fn concurrent_dram_loads_queue_on_bus() {
        let mut m = mem();
        let r1 = m.load(0x10_0000, 0x4, 0).unwrap();
        let r2 = m.load(0x20_0000, 0x8, 0).unwrap();
        let r3 = m.load(0x30_0000, 0xc, 0).unwrap();
        assert!(r2.done >= r1.done + 16, "{} {}", r1.done, r2.done);
        assert!(r3.done >= r2.done + 16);
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let mut m = mem();
        // 10 MSHRs on the reference machine: the 11th distinct miss fails.
        let mut rejected = false;
        for i in 0..12u64 {
            if m.load(0x100_0000 + i * 4096, 0x4, 0).is_err() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "MSHR file should fill up");
    }

    #[test]
    fn coalesced_misses_share_one_fill() {
        let mut m = mem();
        let r1 = m.load(0x10_0000, 0x4, 0).unwrap();
        // Same line, different word: coalesce, same completion.
        let r2 = m.load(0x10_0008, 0x8, 1).unwrap();
        assert_eq!(r1.done, r2.done);
        assert_eq!(m.dram_accesses, 1);
    }

    #[test]
    fn prefetcher_hides_latency_over_a_stream() {
        let mut machine = MachineConfig::nehalem_with_prefetcher();
        machine.mem.mshr_entries = 32;
        let mut m = TimedMemory::new(&machine);
        let mut slow = 0u64;
        let mut now = 0u64;
        for i in 0..2_000u64 {
            let addr = 0x4000_0000 + i * 64;
            match m.load(addr, 0x44, now) {
                Ok(r) => {
                    if r.done - now > 150 {
                        slow += 1;
                    }
                    now += 250; // loads spaced beyond the DRAM latency
                }
                Err(retry) => now = retry,
            }
        }
        assert!(m.prefetches > 500, "prefetcher trained: {}", m.prefetches);
        assert!(
            slow < 600,
            "most loads should be (partially) hidden: {slow}"
        );
    }

    #[test]
    fn in_flight_fills_stay_bounded_without_a_prefetcher() {
        let mut m = mem();
        let mut now = 0u64;
        for i in 0..5_000u64 {
            match m.load(0x1000_0000 + i * 4096, 0x4, now) {
                Ok(_) => now += 50,
                Err(retry) => now = retry,
            }
        }
        assert_eq!(m.dram_accesses, 5_000);
        // Only fills still in flight remain, and the MSHR file caps those.
        assert!(
            m.inflight.len() <= m.mshr.capacity(),
            "{} entries for {} MSHRs",
            m.inflight.len(),
            m.mshr.capacity()
        );
    }

    #[test]
    fn instruction_fetch_misses_cost_cycles() {
        let mut m = mem();
        let t0 = m.fetch_inst(0x40_0000, 10);
        assert!(t0 > 10, "cold fetch misses");
        let t1 = m.fetch_inst(0x40_0000, 1_000);
        assert_eq!(t1, 1_000, "warm fetch hits L1-I");
    }
}
