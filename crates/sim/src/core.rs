//! The out-of-order core: fetch, dispatch, issue, execute, commit.
//!
//! The engine steps cycle by cycle while anything moves. A cycle in
//! which nothing commits, issues, dispatches or fetches, and nothing is
//! looked up in the I-cache, is followed by a jump to the next cycle at
//! which anything can change ([`Engine::next_event`]); the skipped cycles
//! are charged exactly what stepping through them would have charged, so
//! the [`SimResult`] is bit-identical to a step-every-cycle run.

use crate::config::SimConfig;
use crate::memory::{ServedBy, TimedMemory};
use crate::result::{CpiComponent, CpiStack, IntervalSample, SimResult};
use pmt_branch::PredictorSim;
use pmt_trace::{MicroOp, TraceSource, UopClass};
use pmt_uarch::{ActivityVector, OpResources};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const DONE_RING_BITS: u32 = 16;
const DONE_RING: usize = 1 << DONE_RING_BITS;
const DONE_MASK: u64 = (DONE_RING - 1) as u64;
const NO_SRC: u64 = u64::MAX;
const NOT_DONE: u64 = u64::MAX;
/// A run still going at this cycle is wedged.
const SAFETY_CAP: u64 = 1_000_000_000;

#[derive(Clone, Copy, Debug)]
struct FetchedUop {
    seq: u64,
    class: UopClass,
    begins_instruction: bool,
    src1: u64,
    src2: u64,
    addr: u64,
    pc: u64,
    mispredicted: bool,
    ready_at: u64,
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    begins_instruction: bool,
    is_mem: bool,
    mem: Option<ServedBy>,
}

#[derive(Clone, Copy, Debug)]
struct IqEntry {
    seq: u64,
    class: UopClass,
    src1: u64,
    src2: u64,
    addr: u64,
    pc: u64,
    retry_at: u64,
    /// Cycle both operands are ready, cached once both producers have
    /// issued (their done cycles never change after that); `NOT_DONE`
    /// until then.
    operands_ready: u64,
    mispredicted: bool,
}

/// The issue constraints of one μop class, resolved once per run.
#[derive(Clone, Copy)]
struct IssueClass<'a> {
    /// Candidate ports in preference order (a mask would lose the order).
    any_of: &'a [u8],
    /// Bitmask of the candidate ports.
    any_mask: u32,
    /// Bitmask of the ports occupied besides the chosen one.
    also_mask: u32,
    res: OpResources,
}

/// The cycle-level out-of-order simulator.
pub struct OooSimulator {
    config: SimConfig,
}

impl OooSimulator {
    /// Create a simulator for a configuration.
    pub fn new(config: SimConfig) -> OooSimulator {
        OooSimulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Run a trace to completion.
    pub fn run<S: TraceSource>(&self, source: &mut S) -> SimResult {
        Engine::new(&self.config).run(source)
    }
}

struct Engine<'a> {
    cfg: &'a SimConfig,
    now: u64,
    // Machine parameters.
    width: usize,
    rob_size: usize,
    iq_size: usize,
    lsq_size: u32,
    fe_depth: u64,
    port_count: usize,
    classes: [IssueClass<'a>; UopClass::COUNT],
    // Structures.
    rob: VecDeque<RobEntry>,
    rob_front_seq: u64,
    iq: Vec<IqEntry>,
    lsq_used: u32,
    fetch_q: VecDeque<FetchedUop>,
    done_at: Vec<u64>,
    fu_busy: Vec<Vec<u64>>, // per class, per unit: busy-until (non-pipelined only)
    memory: TimedMemory,
    predictor: PredictorSim,
    // Fetch state.
    next_seq: u64,
    trace_buf: Vec<MicroOp>,
    trace_pos: usize,
    trace_done: bool,
    fetch_stall_until: u64,
    icache_refill_until: u64,
    mispredict_pending: bool,
    branch_refill_until: u64,
    last_fetch_line: u64,
    // Accounting.
    committed_uops: u64,
    committed_insts: u64,
    slots: [u64; CpiComponent::ALL.len()],
    activity: ActivityVector,
    branch_lookups: u64,
    branch_misses: u64,
    // MLP tracking.
    dram_outstanding: u32,
    dram_done_heap: BinaryHeap<Reverse<u64>>,
    mlp_sum: f64,
    mlp_cycles: u64,
    // Intervals.
    intervals: Vec<IntervalSample>,
    interval_last_insts: u64,
    interval_last_cycles: u64,
    interval_last_dram_slots: u64,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a SimConfig) -> Engine<'a> {
        let machine = &cfg.machine;
        let ports = &machine.exec.ports;
        assert!(
            ports.port_count() <= 32,
            "the simulator tracks at most 32 issue ports, got {}",
            ports.port_count()
        );
        let mask = |ports: &[u8]| ports.iter().fold(0u32, |m, &p| m | 1 << p);
        let classes: [IssueClass; UopClass::COUNT] = std::array::from_fn(|i| {
            let class = UopClass::from_index(i);
            let route = ports.route(class);
            IssueClass {
                any_of: &route.any_of,
                any_mask: mask(&route.any_of),
                also_mask: mask(&route.also_all_of),
                res: machine.exec.resources(class),
            }
        });
        let fu_busy = classes
            .iter()
            .map(|c| {
                if c.res.pipelined {
                    Vec::new()
                } else {
                    vec![0u64; c.res.units as usize]
                }
            })
            .collect();
        Engine {
            cfg,
            now: 0,
            width: machine.core.dispatch_width as usize,
            rob_size: machine.core.rob_size as usize,
            iq_size: machine.core.iq_size as usize,
            lsq_size: machine.core.lsq_size,
            fe_depth: machine.core.frontend_depth as u64,
            port_count: ports.port_count() as usize,
            classes,
            rob: VecDeque::with_capacity(machine.core.rob_size as usize),
            rob_front_seq: 0,
            iq: Vec::with_capacity(machine.core.iq_size as usize),
            lsq_used: 0,
            fetch_q: VecDeque::with_capacity(256),
            done_at: vec![0; DONE_RING],
            fu_busy,
            memory: TimedMemory::new(machine),
            predictor: PredictorSim::from_config(&machine.predictor),
            next_seq: 0,
            trace_buf: Vec::with_capacity(32 * 1024),
            trace_pos: 0,
            trace_done: false,
            fetch_stall_until: 0,
            icache_refill_until: 0,
            mispredict_pending: false,
            branch_refill_until: 0,
            last_fetch_line: u64::MAX,
            committed_uops: 0,
            committed_insts: 0,
            slots: [0; CpiComponent::ALL.len()],
            activity: ActivityVector::default(),
            branch_lookups: 0,
            branch_misses: 0,
            dram_outstanding: 0,
            dram_done_heap: BinaryHeap::new(),
            mlp_sum: 0.0,
            mlp_cycles: 0,
            intervals: Vec::new(),
            interval_last_insts: 0,
            interval_last_cycles: 0,
            interval_last_dram_slots: 0,
        }
    }

    #[inline]
    fn seq_done_at(&self, src: u64) -> u64 {
        if src == NO_SRC {
            return 0;
        }
        if self.next_seq.saturating_sub(src) >= DONE_RING as u64 {
            return 0; // ancient producer: long retired
        }
        self.done_at[(src & DONE_MASK) as usize]
    }

    #[inline]
    fn mark_done(&mut self, seq: u64, cycle: u64) {
        self.done_at[(seq & DONE_MASK) as usize] = cycle;
    }

    /// The ROB head's done cycle (`NOT_DONE` while it has not issued).
    #[inline]
    fn head_done(&self) -> u64 {
        self.done_at[(self.rob_front_seq & DONE_MASK) as usize]
    }

    /// The cycle both operands of `e` are ready (`NOT_DONE` while a
    /// producer has not issued).
    #[inline]
    fn operands_ready(&self, e: &IqEntry) -> u64 {
        if e.operands_ready != NOT_DONE {
            return e.operands_ready;
        }
        self.seq_done_at(e.src1).max(self.seq_done_at(e.src2))
    }

    fn refill_trace<S: TraceSource>(&mut self, source: &mut S) {
        if self.trace_done || self.trace_pos < self.trace_buf.len() {
            return;
        }
        self.trace_buf.clear();
        self.trace_pos = 0;
        if source.fill(&mut self.trace_buf, 8_192) == 0 {
            self.trace_done = true;
        }
    }

    fn drained(&self) -> bool {
        self.trace_done
            && self.trace_pos >= self.trace_buf.len()
            && self.fetch_q.is_empty()
            && self.rob.is_empty()
    }

    fn run<S: TraceSource>(mut self, source: &mut S) -> SimResult {
        self.refill_trace(source);
        let mut moved = true;
        while !self.drained() {
            if !moved {
                self.fast_forward();
            }
            moved = self.cycle(source);
            self.now += 1;
        }
        self.finish()
    }

    /// The step-every-cycle run that [`run`](Self::run) must match bit
    /// for bit.
    #[cfg(test)]
    fn run_stepping<S: TraceSource>(mut self, source: &mut S) -> SimResult {
        self.refill_trace(source);
        while !self.drained() {
            self.cycle(source);
            self.now += 1;
        }
        self.finish()
    }

    /// Simulate cycle `now`; returns whether anything committed, issued,
    /// dispatched, fetched or looked up the I-cache.
    fn cycle<S: TraceSource>(&mut self, source: &mut S) -> bool {
        assert!(self.now < SAFETY_CAP, "simulator wedged");
        // MLP bookkeeping.
        while let Some(&Reverse(t)) = self.dram_done_heap.peek() {
            if t <= self.now {
                self.dram_done_heap.pop();
                self.dram_outstanding -= 1;
            } else {
                break;
            }
        }
        if self.dram_outstanding > 0 {
            self.mlp_sum += self.dram_outstanding as f64;
            self.mlp_cycles += 1;
        }
        if self.mispredict_pending
            && self.branch_refill_until != u64::MAX
            && self.now >= self.branch_refill_until
        {
            // Recovery time reached: resume fetch.
            self.mispredict_pending = false;
        }

        let committed = self.commit();
        let issued = self.issue();
        let dispatched = self.dispatch();
        let fetched = self.fetch(source);
        committed || issued || dispatched || fetched
    }

    /// The earliest cycle at or after `now` at which a stalled engine can
    /// move again. After a cycle in which nothing moved, only these can
    /// change what a cycle does:
    ///
    /// * the ROB head's done cycle (commit, and the head blocker),
    /// * each IQ entry's `max(retry_at, operands ready)`,
    /// * the non-pipelined units' free cycles,
    /// * the fetch-queue head's `ready_at` (dispatch),
    /// * `fetch_stall_until` and `branch_refill_until` (fetch),
    /// * `branch_refill_until + frontend_depth` and
    ///   `icache_refill_until + frontend_depth` (the front-end blocker),
    /// * the earliest outstanding DRAM completion (MLP).
    ///
    /// Returns `u64::MAX` when none lies ahead.
    fn next_event(&self) -> u64 {
        let now = self.now;
        let mut next = u64::MAX;
        let mut at = |t: u64| {
            if t >= now && t < next {
                next = t;
            }
        };
        if !self.rob.is_empty() {
            at(self.head_done());
        }
        for e in &self.iq {
            at(e.retry_at.max(self.operands_ready(e)));
        }
        for &busy in self.fu_busy.iter().flatten() {
            at(busy);
        }
        if let Some(f) = self.fetch_q.front() {
            at(f.ready_at);
        }
        at(self.fetch_stall_until);
        at(self.branch_refill_until);
        at(self.branch_refill_until.saturating_add(self.fe_depth));
        at(self.icache_refill_until.saturating_add(self.fe_depth));
        if let Some(&Reverse(t)) = self.dram_done_heap.peek() {
            at(t);
        }
        next
    }

    /// Called when the last cycle moved nothing and the run is not
    /// drained: jump `now` to the next event, charging every skipped
    /// cycle what stepping would have. Each wastes all dispatch slots on
    /// the same blocker and adds the same outstanding-DRAM count to the
    /// MLP sums.
    fn fast_forward(&mut self) {
        // Clamped so that a wedged run still stops at the safety cap.
        let next = self.next_event().min(SAFETY_CAP);
        if next <= self.now {
            return;
        }
        let skipped = next - self.now;
        let blocker = self
            .dispatch_blocker()
            .expect("dispatch stays blocked until the next event");
        self.slots[blocker as usize] += skipped * self.width as u64;
        if self.dram_outstanding > 0 {
            // `mlp_sum` only ever gains integers: one outstanding count
            // (at most the MSHR file size) per cycle below `SAFETY_CAP`
            // (< 2^30). For any MSHR file under 2^23 entries it stays
            // below 2^53, where every add is exact, so one multiply
            // equals `skipped` adds.
            self.mlp_sum += self.dram_outstanding as f64 * skipped as f64;
            self.mlp_cycles += skipped;
        }
        self.now = next;
    }

    /// In-order commit of up to `width` done μops; returns whether any
    /// committed.
    fn commit(&mut self) -> bool {
        let mut n = 0;
        while n < self.width {
            let Some(head) = self.rob.front() else { break };
            let head = *head;
            let head_done = self.head_done();
            if head_done == NOT_DONE || head_done > self.now {
                break;
            }
            self.rob.pop_front();
            self.rob_front_seq += 1;
            if head.is_mem {
                self.lsq_used -= 1;
            }
            self.committed_uops += 1;
            self.activity.rob_accesses += 1.0;
            if head.begins_instruction {
                self.committed_insts += 1;
                // Interval sampling.
                let iv = self.cfg.interval_instructions;
                if iv > 0 && self.committed_insts.is_multiple_of(iv) {
                    let cycles = self.now - self.interval_last_cycles;
                    let insts = self.committed_insts - self.interval_last_insts;
                    let dram_slots =
                        self.slots[CpiComponent::Dram as usize] - self.interval_last_dram_slots;
                    let dw = self.cfg.machine.core.dispatch_width as f64;
                    self.intervals.push(IntervalSample {
                        instructions: self.committed_insts,
                        cycles,
                        cpi: cycles as f64 / insts as f64,
                        dram_cpi: dram_slots as f64 / dw / insts as f64,
                    });
                    self.interval_last_cycles = self.now;
                    self.interval_last_insts = self.committed_insts;
                    self.interval_last_dram_slots = self.slots[CpiComponent::Dram as usize];
                }
            }
            n += 1;
        }
        n > 0
    }

    /// Issue ready μops to the ports, oldest first; returns whether any
    /// issued. Issued entries leave the IQ, which is compacted in place.
    fn issue(&mut self) -> bool {
        let mut ports_used = 0u32;
        let mut issued = 0usize;
        let mut kept = 0usize;
        for i in 0..self.iq.len() {
            let mut e = self.iq[i];
            if issued < self.port_count && self.try_issue(&mut e, &mut ports_used) {
                issued += 1;
            } else {
                self.iq[kept] = e;
                kept += 1;
            }
        }
        self.iq.truncate(kept);
        issued > 0
    }

    /// Issue one IQ entry if its operands, a port and a functional unit
    /// are available. `e` may gain a cached operand-ready cycle or a
    /// retry cycle either way.
    fn try_issue(&mut self, e: &mut IqEntry, ports_used: &mut u32) -> bool {
        let now = self.now;
        if e.retry_at > now {
            return false;
        }
        // Operand readiness.
        e.operands_ready = self.operands_ready(e);
        if e.operands_ready > now {
            return false;
        }
        // Port availability.
        let class = self.classes[e.class.index()];
        let free = !*ports_used;
        if class.any_mask & free == 0 || class.also_mask & free != class.also_mask {
            return false;
        }
        let primary = class
            .any_of
            .iter()
            .copied()
            .find(|&p| free & 1 << p != 0)
            .expect("the mask has a free candidate");
        // Functional unit availability (non-pipelined units).
        let mut fu_slot = None;
        if !class.res.pipelined {
            let units = &self.fu_busy[e.class.index()];
            match units.iter().position(|&b| b <= now) {
                Some(u) => fu_slot = Some(u),
                None => return false,
            }
        }

        // Compute the completion time.
        let done = match e.class {
            UopClass::Load if self.cfg.perfect => now + self.cfg.machine.caches.l1d.latency as u64,
            UopClass::Load => match self.memory.load(e.addr, e.pc, now) {
                Ok(r) => {
                    let idx = (e.seq - self.rob_front_seq) as usize;
                    self.rob[idx].mem = Some(r.served_by);
                    if r.new_dram {
                        self.dram_outstanding += 1;
                        self.dram_done_heap.push(Reverse(r.done));
                    }
                    r.done
                }
                Err(retry_at) => {
                    e.retry_at = retry_at.max(now + 1);
                    return false;
                }
            },
            UopClass::Store => {
                if !self.cfg.perfect {
                    self.memory.store(e.addr, e.pc, now);
                }
                now + class.res.latency as u64
            }
            _ => now + class.res.latency as u64,
        };

        // Commit the issue.
        *ports_used |= 1 << primary | class.also_mask;
        if let Some(u) = fu_slot {
            self.fu_busy[e.class.index()][u] = done;
        }
        self.mark_done(e.seq, done);
        if e.mispredicted {
            // Fetch resumes once the branch resolves.
            self.branch_refill_until = done;
        }
        self.activity.issue_per_class[e.class.index()] += 1.0;
        self.activity.iq_accesses += 1.0;
        let nsrc = (e.src1 != NO_SRC) as u32 + (e.src2 != NO_SRC) as u32;
        self.activity.regfile_reads += nsrc as f64;
        if e.class.produces_value() {
            self.activity.regfile_writes += 1.0;
        }
        true
    }

    /// Dispatch up to `width` μops from the front-end into ROB/IQ/LSQ,
    /// with slot-based stall attribution; returns whether any dispatched.
    fn dispatch(&mut self) -> bool {
        let mut dispatched = 0usize;
        let mut blocker = CpiComponent::Base;
        while dispatched < self.width {
            if let Some(b) = self.dispatch_blocker() {
                blocker = b;
                break;
            }
            let f = self.fetch_q.pop_front().expect("a dispatchable head");
            debug_assert_eq!(f.seq, self.rob_front_seq + self.rob.len() as u64);
            let is_mem = f.class.is_memory();
            self.rob.push_back(RobEntry {
                begins_instruction: f.begins_instruction,
                is_mem,
                mem: None,
            });
            self.mark_done(f.seq, NOT_DONE);
            if is_mem {
                self.lsq_used += 1;
            }
            self.iq.push(IqEntry {
                seq: f.seq,
                class: f.class,
                src1: f.src1,
                src2: f.src2,
                addr: f.addr,
                pc: f.pc,
                retry_at: 0,
                operands_ready: NOT_DONE,
                mispredicted: f.mispredicted,
            });
            self.activity.rob_accesses += 1.0;
            self.activity.iq_accesses += 1.0;
            dispatched += 1;
        }
        self.slots[CpiComponent::Base as usize] += dispatched as u64;
        self.slots[blocker as usize] += (self.width - dispatched) as u64;
        dispatched > 0
    }

    /// What keeps the next μop from dispatching this cycle, if anything.
    fn dispatch_blocker(&self) -> Option<CpiComponent> {
        if self.rob.len() >= self.rob_size {
            return Some(self.head_blocker());
        }
        if self.iq.len() >= self.iq_size {
            return Some(self.backend_pressure_blocker());
        }
        match self.fetch_q.front() {
            None => Some(self.frontend_blocker()),
            Some(f) if f.ready_at > self.now => Some(self.frontend_blocker()),
            Some(f) if f.class.is_memory() && self.lsq_used >= self.lsq_size => {
                Some(self.backend_pressure_blocker())
            }
            Some(_) => None,
        }
    }

    /// Attribution when the IQ or LSQ backs up: chains waiting under an
    /// outstanding DRAM miss are that miss's latency shadow.
    fn backend_pressure_blocker(&self) -> CpiComponent {
        if self.dram_outstanding > 0 {
            CpiComponent::Dram
        } else {
            CpiComponent::Base
        }
    }

    /// Attribution when the ROB is full: blame the oldest unfinished μop.
    fn head_blocker(&self) -> CpiComponent {
        if self.head_done() <= self.now {
            return CpiComponent::Base; // head commits this cycle path
        }
        match self.rob.front().and_then(|h| h.mem) {
            Some(ServedBy::Memory) => CpiComponent::Dram,
            Some(ServedBy::L3) => CpiComponent::L3Data,
            Some(ServedBy::L2) => CpiComponent::L2Data,
            // A non-memory head waiting on its operands while DRAM misses
            // are outstanding sits in the shadow of those misses — charge
            // the memory component, as the interval model does.
            _ if self.dram_outstanding > 0 => CpiComponent::Dram,
            _ => CpiComponent::Base,
        }
    }

    /// Attribution when the front-end delivers nothing.
    fn frontend_blocker(&self) -> CpiComponent {
        if self.mispredict_pending
            || self.now < self.branch_refill_until
            || (self.branch_refill_until != 0
                && self.now < self.branch_refill_until.saturating_add(self.fe_depth))
        {
            return CpiComponent::Branch;
        }
        if self.now < self.icache_refill_until.saturating_add(self.fe_depth)
            && self.icache_refill_until != 0
        {
            return CpiComponent::ICache;
        }
        CpiComponent::Base
    }

    /// Fetch up to `width` μops into the front-end pipe; returns whether
    /// anything was fetched or looked up in the I-cache.
    fn fetch<S: TraceSource>(&mut self, source: &mut S) -> bool {
        if self.mispredict_pending {
            return false;
        }
        if self.now < self.fetch_stall_until {
            return false;
        }
        if self.fetch_q.len() >= 4 * self.width * self.fe_depth as usize {
            return false;
        }
        let mut fetched = 0usize;
        let mut icache_lookup = false;
        while fetched < self.width {
            self.refill_trace(source);
            if self.trace_pos >= self.trace_buf.len() {
                break;
            }
            let u = self.trace_buf[self.trace_pos];
            // Instruction-cache lookup on line change.
            if !self.cfg.perfect && u.begins_instruction {
                let line = u.pc >> 6;
                if line != self.last_fetch_line {
                    icache_lookup = true;
                    self.activity.l1i_accesses += 1.0;
                    let ready = self.memory.fetch_inst(u.pc, self.now);
                    self.last_fetch_line = line;
                    if ready > self.now {
                        self.fetch_stall_until = ready;
                        self.icache_refill_until = ready;
                        break;
                    }
                }
            }
            self.trace_pos += 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            let src_of = |dist: u32| -> u64 {
                if dist == 0 || (dist as u64) > seq {
                    NO_SRC
                } else {
                    seq - dist as u64
                }
            };
            let mut mispredicted = false;
            if u.class.is_branch() {
                self.branch_lookups += 1;
                if !self.cfg.perfect {
                    let pred = self.predictor.predict_and_update(u.static_id, u.taken);
                    if pred != u.taken {
                        mispredicted = true;
                        self.branch_misses += 1;
                    }
                }
            }
            self.fetch_q.push_back(FetchedUop {
                seq,
                class: u.class,
                begins_instruction: u.begins_instruction,
                src1: src_of(u.dep1),
                src2: src_of(u.dep2),
                addr: u.addr,
                pc: u.pc,
                mispredicted,
                ready_at: self.now + self.fe_depth,
            });
            fetched += 1;
            if mispredicted {
                // Halt fetch until the branch resolves.
                self.mispredict_pending = true;
                self.branch_refill_until = u64::MAX;
                break;
            }
        }
        fetched > 0 || icache_lookup
    }

    fn finish(mut self) -> SimResult {
        let d = self.cfg.machine.core.dispatch_width as f64;
        let inst = self.committed_insts.max(1) as f64;
        let mut stack = CpiStack::default();
        for c in CpiComponent::ALL {
            stack.add(c, self.slots[c as usize] as f64 / d / inst);
        }
        // The slot ledger counts used slots as Base; cycles × D can exceed
        // the ledger only by rounding at the drain, so reconcile Base.
        let total_slots: u64 = self.slots.iter().sum();
        let all_slots = self.now * self.cfg.machine.core.dispatch_width as u64;
        if all_slots > total_slots {
            stack.add(
                CpiComponent::Base,
                (all_slots - total_slots) as f64 / d / inst,
            );
        }

        let cache_stats = *self.memory.hierarchy().stats();
        self.activity.cycles = self.now as f64;
        self.activity.instructions = self.committed_insts as f64;
        self.activity.uops = self.committed_uops as f64;
        self.activity.l1d_accesses =
            (cache_stats.l1d.load_accesses + cache_stats.l1d.store_accesses) as f64;
        self.activity.l2_accesses = (cache_stats.l2.load_accesses
            + cache_stats.l2.store_accesses
            + cache_stats.l1i.load_misses) as f64;
        self.activity.l3_accesses = (cache_stats.l3.load_accesses
            + cache_stats.l3.store_accesses
            + cache_stats.l2_inst_misses) as f64;
        self.activity.dram_accesses = self.memory.dram_accesses as f64;
        self.activity.bus_transfers = self.memory.bus_transfers as f64;
        self.activity.branch_lookups = self.branch_lookups as f64;
        self.activity.branch_misses = self.branch_misses as f64;

        SimResult {
            cycles: self.now,
            instructions: self.committed_insts,
            uops: self.committed_uops,
            cpi_stack: stack,
            activity: self.activity,
            cache_stats,
            branch_lookups: self.branch_lookups,
            branch_misses: self.branch_misses,
            mlp: if self.mlp_cycles == 0 {
                1.0
            } else {
                (self.mlp_sum / self.mlp_cycles as f64).max(1.0)
            },
            intervals: self.intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_trace::VecTrace;
    use pmt_uarch::{ExecConfig, MachineConfig};
    use pmt_workloads::WorkloadSpec;
    use proptest::prelude::*;

    /// SplitMix64: a tiny seeded generator for the oracle's traces.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn dep(&mut self) -> u32 {
            if self.below(3) == 0 {
                0
            } else {
                self.below(16) as u32 + 1
            }
        }
    }

    /// A random μop stream that reaches every event the fast-forward
    /// jumps to: non-pipelined divides, bursts of independent loads to
    /// distinct lines that exhaust the MSHRs, stores that miss to DRAM,
    /// coin-flip branches that mispredict, and PC jumps that miss the
    /// I-cache.
    fn random_trace(seed: u64, instructions: usize) -> Vec<MicroOp> {
        let mut rng = SplitMix(seed);
        let far_line = |rng: &mut SplitMix| 0x1_0000_0000 + rng.below(1 << 24) * 64;
        let mut uops = Vec::with_capacity(instructions * 2);
        let mut pc = 0x40_0000u64;
        let mut miss_burst = 0;
        for _ in 0..instructions {
            if miss_burst > 0 {
                miss_burst -= 1;
                uops.push(MicroOp::load(pc, 0, far_line(&mut rng)));
                pc += 4;
                continue;
            }
            let u = match rng.below(100) {
                0..=3 => {
                    miss_burst = 4 + rng.below(16);
                    MicroOp::load(pc, 0, far_line(&mut rng))
                }
                4..=9 => {
                    let class = if rng.below(2) == 0 {
                        UopClass::IntDiv
                    } else {
                        UopClass::FpDiv
                    };
                    MicroOp::compute(class, pc, 0).with_dep1(rng.dep())
                }
                10..=24 => {
                    let addr = if rng.below(2) == 0 {
                        0x1000 + rng.below(64) * 64
                    } else {
                        0x80_0000 + rng.below(1 << 16) * 64
                    };
                    MicroOp::load(pc, 0, addr).with_dep1(rng.dep())
                }
                25..=32 => {
                    let addr = if rng.below(4) == 0 {
                        far_line(&mut rng)
                    } else {
                        0x1000 + rng.below(64) * 64
                    };
                    MicroOp::store(pc, 0, addr)
                        .with_dep1(rng.dep())
                        .with_dep2(rng.dep())
                }
                33..=47 => MicroOp::branch(pc, 0, rng.below(2) == 0).with_dep1(rng.dep()),
                48..=51 => {
                    // Jump far: the next fetch line is cold in the I-cache.
                    pc = 0x40_0000 + rng.below(1 << 22) * 64;
                    MicroOp::compute(UopClass::IntAlu, pc, 0)
                }
                r => {
                    let class =
                        [UopClass::IntAlu, UopClass::IntMul, UopClass::FpMul][r as usize % 3];
                    MicroOp::compute(class, pc, 0)
                        .with_dep1(rng.dep())
                        .with_dep2(rng.dep())
                }
            };
            uops.push(u);
            if rng.below(4) == 0 {
                // A second μop of the same instruction, fed by the first.
                uops.push(MicroOp::compute(UopClass::IntAlu, pc, 1).with_dep1(1));
            }
            pc += 4;
        }
        uops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Fast-forwarding over idle cycles must reproduce the
        /// step-every-cycle run exactly, down to every float bit.
        #[test]
        fn fast_forward_matches_stepping_bit_for_bit(
            seed in any::<u64>(),
            width in 1u32..=8,
            rob in 16u32..=256,
            mshrs in 1u32..=12,
            frontend_depth in 1u32..=8,
            branch_latency in 1u32..=4,
            prefetch in any::<bool>(),
            intervals in any::<bool>(),
        ) {
            let mut machine = if prefetch {
                MachineConfig::nehalem_with_prefetcher()
            } else {
                MachineConfig::nehalem()
            };
            machine.core = machine.core.with_dispatch_width(width).with_rob(rob);
            machine.core.frontend_depth = frontend_depth;
            machine.mem.mshr_entries = mshrs;
            // A branch slower than one cycle resolves inside a stall, so
            // `branch_refill_until` becomes an event of its own.
            let mut resources: Vec<_> = UopClass::ALL
                .iter()
                .map(|&c| (c, machine.exec.resources(c)))
                .collect();
            resources[UopClass::Branch.index()].1.latency = branch_latency;
            machine.exec = ExecConfig::new(resources, machine.exec.ports.clone());
            let mut cfg = SimConfig::new(machine);
            if intervals {
                cfg = cfg.with_intervals(250);
            }
            if seed.is_multiple_of(8) {
                cfg = cfg.perfect();
            }
            let uops = random_trace(seed, 3_000);
            let fast = Engine::new(&cfg).run(&mut VecTrace::new(uops.clone()));
            let stepped = Engine::new(&cfg).run_stepping(&mut VecTrace::new(uops));
            prop_assert_eq!(
                serde_json::to_string(&fast).unwrap(),
                serde_json::to_string(&stepped).unwrap()
            );
        }
    }

    fn run_machine(machine: MachineConfig, workload: &str, n: u64) -> SimResult {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        OooSimulator::new(SimConfig::new(machine)).run(&mut spec.trace(n))
    }

    #[test]
    fn independent_alu_stream_reaches_width() {
        // Perfect mode, independent single-μop ALU instructions: CPI → 1/D.
        let uops: Vec<MicroOp> = (0..10_000)
            .map(|i| MicroOp::compute(UopClass::IntAlu, (i % 64) * 4, 0))
            .collect();
        let mut trace = VecTrace::new(uops);
        let r =
            OooSimulator::new(SimConfig::new(MachineConfig::nehalem()).perfect()).run(&mut trace);
        assert_eq!(r.instructions, 10_000);
        // 3 ALU ports on 4-wide Nehalem: IPC limited to 3.
        let ipc = r.ipc();
        assert!(ipc > 2.5 && ipc <= 3.1, "IPC = {ipc}");
    }

    #[test]
    fn serial_chain_runs_at_unit_ipc() {
        let uops: Vec<MicroOp> = (0..5_000)
            .map(|i| {
                let mut u = MicroOp::compute(UopClass::IntAlu, (i % 64) * 4, 0);
                if i > 0 {
                    u.dep1 = 1;
                }
                u
            })
            .collect();
        let mut trace = VecTrace::new(uops);
        let r =
            OooSimulator::new(SimConfig::new(MachineConfig::nehalem()).perfect()).run(&mut trace);
        let cpi = r.cpi();
        assert!(cpi > 0.95 && cpi < 1.1, "CPI = {cpi}");
    }

    #[test]
    fn non_pipelined_divides_serialize() {
        // Dependent? No — independent divides, but one non-pipelined
        // 20-cycle divider: CPI → 20.
        let uops: Vec<MicroOp> = (0..500)
            .map(|i| MicroOp::compute(UopClass::IntDiv, (i % 16) * 4, 0))
            .collect();
        let mut trace = VecTrace::new(uops);
        let r =
            OooSimulator::new(SimConfig::new(MachineConfig::nehalem()).perfect()).run(&mut trace);
        let cpi = r.cpi();
        assert!(cpi > 18.0 && cpi < 22.0, "CPI = {cpi}");
    }

    #[test]
    fn dram_loads_dominate_memory_workload() {
        let r = run_machine(MachineConfig::nehalem(), "mcf", 30_000);
        assert!(r.cpi() > 1.0, "mcf is memory bound: {}", r.cpi());
        assert!(
            r.cpi_stack.get(CpiComponent::Dram) > 0.2,
            "DRAM component: {:?}",
            r.cpi_stack
        );
        assert!(r.mlp >= 1.0);
    }

    #[test]
    fn compute_workload_is_core_bound() {
        // Cold-miss startup keeps an absolute DRAM share in any short
        // trace (thesis Fig 4.4), so assert the *relative* shape: namd is
        // far less memory-bound than mcf and much faster overall.
        let namd = run_machine(MachineConfig::nehalem(), "namd", 60_000);
        let mcf = run_machine(MachineConfig::nehalem(), "mcf", 60_000);
        let namd_dram = namd.cpi_stack.get(CpiComponent::Dram);
        let mcf_dram = mcf.cpi_stack.get(CpiComponent::Dram);
        assert!(
            namd_dram * 3.0 < mcf_dram,
            "namd {namd_dram} vs mcf {mcf_dram}"
        );
        assert!(namd.cpi() < 2.0, "CPI = {}", namd.cpi());
        assert!(namd.cpi() * 2.0 < mcf.cpi(), "mcf much slower than namd");
    }

    #[test]
    fn cpi_stack_sums_to_cpi() {
        let r = run_machine(MachineConfig::nehalem(), "gcc", 20_000);
        assert!(
            (r.cpi_stack.total() - r.cpi()).abs() < 1e-6,
            "{} vs {}",
            r.cpi_stack.total(),
            r.cpi()
        );
    }

    #[test]
    fn perfect_mode_is_faster() {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        let real = OooSimulator::new(SimConfig::new(MachineConfig::nehalem()))
            .run(&mut spec.trace(20_000));
        let perfect = OooSimulator::new(SimConfig::new(MachineConfig::nehalem()).perfect())
            .run(&mut spec.trace(20_000));
        assert!(perfect.cycles < real.cycles);
        assert_eq!(perfect.branch_misses, 0);
    }

    #[test]
    fn wider_machine_is_not_slower() {
        let mut narrow = MachineConfig::nehalem();
        narrow.core = narrow.core.with_dispatch_width(2).with_rob(64);
        let slow = run_machine(narrow, "hmmer", 20_000);
        let fast = run_machine(MachineConfig::nehalem(), "hmmer", 20_000);
        assert!(
            fast.cycles <= slow.cycles,
            "4-wide {} vs 2-wide {}",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn branch_misses_show_up_for_noisy_workloads() {
        let r = run_machine(MachineConfig::nehalem(), "gobmk", 30_000);
        assert!(
            r.branch_mpki() > 1.0,
            "gobmk mispredicts: {}",
            r.branch_mpki()
        );
        assert!(r.cpi_stack.get(CpiComponent::Branch) > 0.01);
    }

    #[test]
    fn intervals_are_recorded() {
        let spec = WorkloadSpec::by_name("bzip2").unwrap();
        let r = OooSimulator::new(SimConfig::new(MachineConfig::nehalem()).with_intervals(5_000))
            .run(&mut spec.trace(20_000));
        assert_eq!(r.intervals.len(), 4);
        let total: u64 = r.intervals.iter().map(|s| s.cycles).sum();
        assert!(total <= r.cycles);
    }

    #[test]
    fn prefetcher_helps_streaming_workload() {
        let base = run_machine(MachineConfig::nehalem(), "libquantum", 30_000);
        let pf = run_machine(
            MachineConfig::nehalem_with_prefetcher(),
            "libquantum",
            30_000,
        );
        assert!(
            pf.cycles < base.cycles,
            "prefetching should help: {} vs {}",
            pf.cycles,
            base.cycles
        );
    }

    #[test]
    #[ignore = "diagnostic probe"]
    fn debug_probe_predictor() {
        use pmt_trace::collect_trace;
        use pmt_uarch::{PredictorConfig, PredictorKind};
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let uops = collect_trace(spec.trace(300_000), u64::MAX);
        let branches: Vec<_> = uops.iter().filter(|u| u.class.is_branch()).collect();
        for kind in PredictorKind::ALL {
            let mut sim = pmt_branch::PredictorSim::from_config(&PredictorConfig::sized_4kb(kind));
            for b in &branches {
                sim.predict_and_update(b.static_id, b.taken);
            }
            eprintln!(
                "{kind}: missrate {:.4} over {} branches",
                sim.miss_rate(),
                sim.predictions()
            );
        }
        let mut ent = pmt_branch::EntropyProfiler::new(8);
        for b in &branches {
            ent.record(b.static_id, b.taken);
        }
        eprintln!(
            "entropy = {:.4}, static branches = {}",
            ent.entropy(),
            ent.static_branches()
        );
        let taken = branches.iter().filter(|b| b.taken).count();
        eprintln!(
            "taken fraction = {:.4}",
            taken as f64 / branches.len() as f64
        );
    }

    #[test]
    #[ignore = "diagnostic probe"]
    fn debug_probe() {
        let name = std::env::var("PROBE_WL").unwrap_or_else(|_| "mcf".into());
        let n: u64 = std::env::var("PROBE_N")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30_000);
        let spec = WorkloadSpec::by_name(&name).unwrap();
        let r = OooSimulator::new(SimConfig::new(MachineConfig::nehalem())).run(&mut spec.trace(n));
        eprintln!(
            "cycles={} inst={} cpi={} stack={:?}",
            r.cycles,
            r.instructions,
            r.cpi(),
            r.cpi_stack
        );
        eprintln!(
            "branch lookups={} misses={} missrate={}",
            r.branch_lookups,
            r.branch_misses,
            r.branch_misses as f64 / r.branch_lookups as f64
        );
        eprintln!(
            "mlp={} l3miss={} dram_acc={}",
            r.mlp, r.cache_stats.l3.load_misses, r.activity.dram_accesses
        );
        let miss_pen =
            r.cpi_stack.get(CpiComponent::Branch) * r.instructions as f64 / r.branch_misses as f64;
        eprintln!("penalty per branch miss = {miss_pen}");
    }
}
