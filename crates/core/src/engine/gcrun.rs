//! Garbage-collection execution: a composable [`GcPlan`] driving a backlog
//! of schedulable copy packets.
//!
//! GC copies are timed pipelines: source command + tR, a data movement
//! delegated to the [`super::FabricBackend`] (staged twice through the
//! controller for bus architectures; once over a shared v-channel directly
//! chip-to-chip for pnSSD; a direct mesh route for NoSSD), then tPROG at
//! the destination, and finally the victim erase. The plan decides
//! everything policy-like: its victim spec picks blocks (through the FTL),
//! the placement component constrains masks and routes relocation streams,
//! and the preemption component chooses the dispatch discipline for the
//! packet backlog. The FTL's watermark predicates arm, chain and force
//! events. The fabric decides how bytes move.

use nssd_flash::{Pbn, Ppn};
use nssd_ftl::{DispatchDiscipline, FtlError, GcConfig, GcPlan, GcPlanSpec, Lpn, WayMask};
use nssd_sim::{CkptError, CkptReader, CkptWriter, SimTime};

use super::{Event, SsdSim};
use crate::Traffic;

/// One schedulable unit of GC work: relocate `lpn` away from `src`. The
/// destination is bound mid-flight, once the copy's read completes.
#[derive(Debug)]
struct CopyPacket {
    victim: usize,
    lpn: Lpn,
    src: Ppn,
    dst: Option<Ppn>,
}

#[derive(Debug)]
struct VictimState {
    pbn: Pbn,
    copies_left: u32,
    /// This victim's slice of the global packet backlog.
    range_start: usize,
    range_end: usize,
    /// Packets of this victim already handed to `launch_copy`.
    launched: usize,
}

/// Runtime state of the garbage collector.
#[derive(Debug)]
pub(crate) struct GcRuntime {
    /// The assembled plan, or `None` when GC is disabled.
    plan: Option<GcPlan>,
    active: bool,
    started_at: SimTime,
    copies: Vec<CopyPacket>,
    next_copy: usize,
    outstanding: usize,
    victims: Vec<VictimState>,
    victims_left: usize,
    /// Do not re-trigger before this time after a starved (victimless)
    /// trigger.
    starved_until: SimTime,
    /// Whether a poll-for-gap pump is already queued (dedup).
    pump_scheduled: bool,
    pub(crate) events_completed: u64,
    pub(crate) total_time: SimTime,
    pub(crate) pages_copied: u64,
    pub(crate) blocks_erased: u64,
    /// Relocations that had to fall back to a wider way mask.
    pub(crate) dest_fallbacks: u64,
    /// Relocation attempts deferred for lack of any free block.
    pub(crate) reloc_retries: u64,
}

impl GcRuntime {
    pub(crate) fn new(cfg: &GcConfig, total_ways: u32) -> Self {
        GcRuntime {
            plan: GcPlan::from_config(cfg, total_ways),
            active: false,
            started_at: SimTime::ZERO,
            copies: Vec::new(),
            next_copy: 0,
            outstanding: 0,
            victims: Vec::new(),
            victims_left: 0,
            starved_until: SimTime::ZERO,
            pump_scheduled: false,
            events_completed: 0,
            total_time: SimTime::ZERO,
            pages_copied: 0,
            blocks_erased: 0,
            dest_fallbacks: 0,
            reloc_retries: 0,
        }
    }

    /// Whether garbage collection is enabled at all.
    pub(crate) fn enabled(&self) -> bool {
        self.plan.is_some()
    }

    /// The spec of the running plan, if GC is enabled.
    pub(crate) fn spec(&self) -> Option<GcPlanSpec> {
        self.plan.as_ref().map(|p| p.spec)
    }

    /// Copies tracked by the current (or last) GC event, for checkpoint
    /// event-index validation.
    pub(crate) fn copy_count(&self) -> usize {
        self.copies.len()
    }

    /// Victims tracked by the current (or last) GC event.
    pub(crate) fn victim_count(&self) -> usize {
        self.victims.len()
    }

    /// The dispatch discipline of the running plan. Only meaningful while
    /// GC is enabled; defaults to per-victim chaining otherwise.
    fn discipline(&self) -> DispatchDiscipline {
        self.plan
            .as_ref()
            .map_or(DispatchDiscipline::PerVictimChain, |p| p.discipline())
    }

    /// Pacing parameters when an event is active under a paced discipline.
    fn paced_params(&self) -> Option<(usize, SimTime)> {
        if !self.active {
            return None;
        }
        match self.discipline() {
            DispatchDiscipline::Paced { batch, poll } => Some((batch, poll)),
            DispatchDiscipline::PerVictimChain => None,
        }
    }

    /// The placement component's destination confinement, if any.
    fn confinement(&self) -> Option<WayMask> {
        self.plan.as_ref().and_then(|p| p.placement.confinement())
    }

    /// Whether a pump event would make progress (paced launching).
    pub(crate) fn wants_pump(&self) -> bool {
        self.paced_params().is_some() && self.next_copy < self.copies.len()
    }
}

impl SsdSim {
    /// Begins a GC event if GC is enabled and the trigger watermark has
    /// been reached.
    pub(crate) fn maybe_start_gc(&mut self) {
        if !self.gc.enabled()
            || self.gc.active
            || self.now < self.gc.starved_until
            || !self.ftl.needs_gc()
        {
            return;
        }
        self.start_gc();
    }

    fn start_gc(&mut self) {
        // The placement component opens the event: it may narrow the user
        // write mask and returns the mask victims are selected from.
        let plan = self.gc.plan.as_mut().expect("GC enabled");
        let victim_mask = plan.placement.begin_event(&mut self.ftl);
        let victims = self
            .ftl
            .select_gc_victims(victim_mask, plan.spec.victim, &mut self.rng);
        if victims.is_empty() {
            plan.placement.end_event(&mut self.ftl);
            self.gc.starved_until = self.now + SimTime::from_ms(1);
            return;
        }
        self.gc.active = true;
        self.gc.started_at = self.now;
        self.gc.copies.clear();
        self.gc.victims.clear();
        self.gc.next_copy = 0;
        self.gc.outstanding = 0;

        // Expand the victims into the packet backlog, streaming each
        // block's live pages straight into the reusable `copies` buffer.
        for pbn in victims {
            let victim_idx = self.gc.victims.len();
            let range_start = self.gc.copies.len();
            let copies = &mut self.gc.copies;
            self.ftl.for_each_live_page(pbn, |lpn, src| {
                copies.push(CopyPacket {
                    victim: victim_idx,
                    lpn,
                    src,
                    dst: None,
                });
            });
            let range_end = self.gc.copies.len();
            self.gc.victims.push(VictimState {
                pbn,
                copies_left: (range_end - range_start) as u32,
                range_start,
                range_end,
                launched: 0,
            });
        }
        self.gc.victims_left = self.gc.victims.len();

        // Victims that are already fully invalid go straight to erase.
        for v in 0..self.gc.victims.len() {
            if self.gc.victims[v].copies_left == 0 {
                self.schedule_victim_erase(v);
            }
        }

        self.dispatch_backlog();
    }

    /// Hands the fresh packet backlog to the plan's dispatch discipline.
    fn dispatch_backlog(&mut self) {
        match self.gc.discipline() {
            DispatchDiscipline::PerVictimChain => {
                // Each victim pipelines its packets — one in flight at a
                // time per victim (a copyback chain) — so concurrency is
                // the victim count, spread across the device's dies.
                for v in 0..self.gc.victims.len() {
                    self.advance_victim(v);
                }
            }
            DispatchDiscipline::Paced { .. } => self.gc_pump(),
        }
    }

    /// Hands the next queued packet of `victim` to `launch_copy`, if any.
    fn advance_victim(&mut self, victim: usize) {
        let v = &mut self.gc.victims[victim];
        let next = v.range_start + v.launched;
        if next < v.range_end {
            v.launched += 1;
            self.launch_copy(next);
        }
    }

    /// Paced dispatch (Lee et al., ISPASS'11): once triggered, GC makes
    /// progress in the *gaps* — a packet launches only when its source
    /// channel is idle right now, so foreground I/O keeps bus priority at
    /// page-copy granularity. When free space is critically low the yield
    /// is suspended and GC proceeds unconditionally.
    pub(crate) fn gc_pump(&mut self) {
        self.gc.pump_scheduled = false;
        let Some((batch, poll)) = self.gc.paced_params() else {
            // A pump can also race a finished event; re-check the trigger.
            self.maybe_start_gc();
            return;
        };
        let forced = self.ftl.critically_low();
        while self.gc.next_copy < self.gc.copies.len() && self.gc.outstanding < batch {
            let c = self.gc.next_copy;
            if forced || self.gc_source_idle(c) {
                self.gc.next_copy += 1;
                self.launch_copy(c);
            } else {
                // Busy right now: poll for the next gap.
                if !self.gc.pump_scheduled {
                    self.gc.pump_scheduled = true;
                    self.queue.schedule_after(self.now, poll, Event::GcPump);
                }
                break;
            }
        }
    }

    /// Whether the resources a packet's *source read* needs are free right
    /// now (the preemption check): the source plane, plus whatever channel
    /// the fabric would route the readout over.
    fn gc_source_idle(&mut self, c: usize) -> bool {
        let src = self.gc.copies[c].src;
        let addr = self.cfg.geometry.page_addr(src);
        let chip = self.cfg.geometry.chip_index(addr.channel, addr.way);
        if !self.chips[chip].plane_idle_at(addr.die, addr.plane, self.now) {
            return false;
        }
        let use_v = self.gc_uses_v_channel();
        let now = self.now;
        let (fabric, ctx) = self.fabric_parts();
        fabric.source_idle(&ctx, addr, use_v, now)
    }

    /// Whether GC command/readout traffic rides the v-channels on the
    /// *source* side (a placement that wants them, on a topology that
    /// offers them).
    fn gc_uses_v_channel(&self) -> bool {
        self.gc
            .plan
            .as_ref()
            .is_some_and(|p| p.placement.wants_v_channel())
            && self.fabric.gc_can_use_v()
    }

    fn launch_copy(&mut self, c: usize) {
        let (lpn, src) = (self.gc.copies[c].lpn, self.gc.copies[c].src);
        self.gc.outstanding += 1;
        if self.ftl.lookup(lpn) != Some(src) {
            // The host overwrote the page after victim selection.
            self.copy_finished(c);
            return;
        }
        let addr = self.cfg.geometry.page_addr(src);
        let tag = Traffic::Gc.tag();
        // Source read command: a few flits, routed by the fabric (spatial
        // pnSSD keeps even the command traffic on the v-channel to leave
        // h-channels to I/O).
        let use_v = self.gc_uses_v_channel();
        let now = self.now;
        let (fabric, mut ctx) = self.fabric_parts();
        let cmd_end = fabric.gc_read_command(&mut ctx, addr, use_v, now, tag);
        let chip = self.chip_index(addr);
        let fault = self.sample_read_fault(addr);
        let read = self.chips[chip].reserve_read(addr.die, addr.plane, cmd_end);
        let ready = self.apply_read_fault(chip, addr, read.end, fault);
        self.queue.schedule(ready, Event::GcCopyReadDone(c));
    }

    /// Destination way mask for one copy. A confining placement (SpGC)
    /// pins destinations to the source's column group where the topology
    /// routes per column (§VI-A); unconstrained placements roam freely.
    fn gc_dest_mask(&self, src_way: u32) -> WayMask {
        let Some(gc_mask) = self.gc.confinement() else {
            return WayMask::all(self.cfg.geometry.ways);
        };
        if let Some(omni) = self.fabric.omnibus() {
            let group = omni.v_channel_of_way(src_way);
            let mut bits = 0u64;
            for w in 0..self.cfg.geometry.ways {
                if gc_mask.contains(w) && omni.v_channel_of_way(w) == group {
                    bits |= 1u64 << w;
                }
            }
            // An empty intersection widens back to the confinement mask.
            WayMask::from_bits(bits, self.cfg.geometry.ways).unwrap_or(gc_mask)
        } else {
            // Bus/mesh architectures: same column only.
            WayMask::from_ways([src_way])
        }
    }

    pub(crate) fn gc_copy_read_done(&mut self, c: usize) {
        let (lpn, src, victim) = {
            let copy = &self.gc.copies[c];
            (copy.lpn, copy.src, copy.victim)
        };
        let src_addr = self.cfg.geometry.page_addr(src);
        // Allocate the destination now, with graceful mask widening.
        let primary = self.gc_dest_mask(src_addr.way);
        let masks = [
            Some(primary),
            self.gc.confinement(),
            Some(WayMask::all(self.cfg.geometry.ways)),
        ];
        // The placement component routes the page to its relocation
        // stream (generational plans send GC survivors cold).
        let stream = {
            let plan = self.gc.plan.as_ref().expect("GC enabled");
            plan.placement.stream_for(&self.ftl, lpn)
        };
        let mut relocation = None;
        for (i, mask) in masks.iter().enumerate() {
            let Some(mask) = *mask else { continue };
            match self.ftl.relocate_to(lpn, src, mask, stream) {
                Ok(Some(rel)) => {
                    if i > 0 {
                        self.gc.dest_fallbacks += 1;
                    }
                    relocation = Some(rel);
                    break;
                }
                Ok(None) => {
                    // Host overwrote the page mid-copy; nothing to move.
                    self.copy_finished(c);
                    return;
                }
                Err(FtlError::OutOfSpace) => continue,
                Err(e) => panic!("gc relocation failed: {e}"),
            }
        }
        let Some(rel) = relocation else {
            // Every permitted plane is momentarily out of free blocks; other
            // victims' erases will free space — retry shortly. (`victim`
            // keeps the packet's bookkeeping alive until then.)
            debug_assert!(self.gc.victims[victim].copies_left > 0);
            self.gc.reloc_retries += 1;
            assert!(
                self.gc.reloc_retries < 10_000_000,
                "gc relocation starved at {}: overprovisioning too small for \
                 the victim batch size",
                self.now
            );
            self.queue
                .schedule_after(self.now, SimTime::from_us(50), Event::GcCopyReadDone(c));
            return;
        };
        self.gc.copies[c].dst = Some(rel.dst);
        if let Some(oracle) = self.oracle.as_mut() {
            // The mapping commits at relocate_to() above, so the shadow map
            // must move now — not at program completion — to stay lockstep
            // with what reads will observe.
            oracle.note_relocation(rel, self.now);
        }
        let dst_addr = self.cfg.geometry.page_addr(rel.dst);
        let tag = Traffic::Gc.tag();
        let page = self.cfg.geometry.page_bytes;

        let ecc = self.gc_ecc();
        let now = self.now;
        let (fabric, mut ctx) = self.fabric_parts();
        let xfer_end = fabric.reserve_f2f_copy(&mut ctx, src_addr, dst_addr, page, ecc, now, tag);
        self.queue.schedule(xfer_end, Event::GcCopyXferDone(c));
    }

    pub(crate) fn gc_copy_xfer_done(&mut self, c: usize) {
        let dst = self.gc.copies[c].dst.expect("destination allocated");
        let addr = self.cfg.geometry.page_addr(dst);
        let chip = self.chip_index(addr);
        let prog = self.chips[chip].reserve_program(addr.die, addr.plane, self.now);
        self.queue.schedule(prog.end, Event::GcCopyProgDone(c));
    }

    pub(crate) fn gc_copy_prog_done(&mut self, c: usize) {
        let dst = self.gc.copies[c].dst.expect("destination allocated");
        let pbn = self.cfg.geometry.pbn_of(dst);
        self.note_programmed(pbn, self.now);
        self.gc.pages_copied += 1;
        self.copy_finished(c);
    }

    fn copy_finished(&mut self, c: usize) {
        self.gc.outstanding -= 1;
        let victim = self.gc.copies[c].victim;
        let v = &mut self.gc.victims[victim];
        debug_assert!(v.copies_left > 0);
        v.copies_left -= 1;
        if v.copies_left == 0 {
            self.schedule_victim_erase(victim);
        } else if self.gc.discipline() == DispatchDiscipline::PerVictimChain {
            self.advance_victim(victim);
        }
        if self.gc.wants_pump() {
            self.queue.schedule(self.now, Event::GcPump);
        }
    }

    fn schedule_victim_erase(&mut self, victim: usize) {
        let pbn = self.gc.victims[victim].pbn;
        let addr = self.cfg.geometry.block_addr(pbn);
        // The erase command is a handful of flits; its wire time is
        // negligible next to the 1 ms array erase, so only the plane is
        // reserved.
        let chip = self.cfg.geometry.chip_index(addr.channel, addr.way);
        let erase = self.chips[chip].reserve_erase(addr.die, addr.plane, self.now);
        self.queue.schedule(erase.end, Event::GcEraseDone(victim));
    }

    pub(crate) fn gc_erase_done(&mut self, victim: usize) {
        let pbn = self.gc.victims[victim].pbn;
        if self.faults.grown_bad_on_erase() {
            // The erase failed: the block grows bad and is retired instead
            // of rejoining the free pool (spare capacity absorbs the loss).
            self.ftl.retire_block(pbn);
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.note_retire(pbn, self.now);
            }
        } else {
            self.ftl.erase_block(pbn);
            self.gc.blocks_erased += 1;
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.note_erase(pbn, self.now);
            }
        }
        if let Some(oracle) = self.oracle.as_mut() {
            // Every erase/retire is a conservation checkpoint: the audit
            // re-checks the blocks and mapping entries changed since the
            // previous one, so page counts and erase-count monotonicity
            // are proven at every erase for the cost of what changed.
            oracle.check_invariants(&mut self.ftl, self.now);
        }
        debug_assert!(self.gc.victims_left > 0);
        self.gc.victims_left -= 1;
        if self.gc.victims_left == 0 {
            self.finish_gc();
        }
    }

    fn finish_gc(&mut self) {
        self.gc.active = false;
        self.gc.total_time += self.now - self.gc.started_at;
        self.gc.events_completed += 1;
        let plan = self.gc.plan.as_mut().expect("GC enabled");
        plan.placement.end_event(&mut self.ftl);
        // Hysteresis: chain events until the stop watermark recovers, so GC
        // runs in bounded phases with quiet periods in between.
        if self.now >= self.gc.starved_until && self.ftl.below_stop_watermark() {
            self.start_gc();
        }
    }
}

impl GcRuntime {
    /// Serialized floor of one copy / one victim record, for count caps.
    const COPY_MIN_BYTES: usize = 8 + 8 + 8 + 1;
    const VICTIM_MIN_BYTES: usize = 8 + 4 + 8 + 8 + 8;

    /// Serializes the collector's runtime state, including the placement
    /// component's (group rotation, active masks). The plan itself and the
    /// pacing parameters are configuration, not state, and are not
    /// written.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_bool(self.active);
        w.put_time(self.started_at);
        w.put_usize(self.copies.len());
        for c in &self.copies {
            w.put_usize(c.victim);
            w.put_u64(c.lpn.raw());
            w.put_u64(c.src.raw());
            match c.dst {
                Some(d) => {
                    w.put_bool(true);
                    w.put_u64(d.raw());
                }
                None => w.put_bool(false),
            }
        }
        w.put_usize(self.next_copy);
        w.put_usize(self.outstanding);
        w.put_usize(self.victims.len());
        for v in &self.victims {
            w.put_u64(v.pbn.raw());
            w.put_u32(v.copies_left);
            w.put_usize(v.range_start);
            w.put_usize(v.range_end);
            w.put_usize(v.launched);
        }
        w.put_usize(self.victims_left);
        if let Some(plan) = &self.plan {
            plan.placement.ckpt_save(w);
        }
        w.put_time(self.starved_until);
        w.put_bool(self.pump_scheduled);
        w.put_u64(self.events_completed);
        w.put_time(self.total_time);
        w.put_u64(self.pages_copied);
        w.put_u64(self.blocks_erased);
        w.put_u64(self.dest_fallbacks);
        w.put_u64(self.reloc_retries);
    }

    /// Restores state saved by [`GcRuntime::ckpt_save`] into a collector
    /// running the same plan; the geometry bounds validate every index.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or any out-of-range page, block, or
    /// slice index.
    pub(crate) fn ckpt_load(
        &mut self,
        r: &mut CkptReader,
        page_count: u64,
        logical_pages: u64,
        block_count: u64,
    ) -> Result<(), CkptError> {
        let active = r.take_bool()?;
        let started_at = r.take_time()?;
        let copy_count = r.take_count(Self::COPY_MIN_BYTES)?;
        let mut copies = Vec::with_capacity(copy_count);
        for _ in 0..copy_count {
            let victim = r.take_usize()?;
            let lpn = r.take_u64()?;
            if lpn >= logical_pages {
                return Err(CkptError::Invalid(format!(
                    "gc copy lpn {lpn} out of range"
                )));
            }
            let src = r.take_u64()?;
            if src >= page_count {
                return Err(CkptError::Invalid(format!(
                    "gc copy src {src} out of range"
                )));
            }
            let dst = if r.take_bool()? {
                let d = r.take_u64()?;
                if d >= page_count {
                    return Err(CkptError::Invalid(format!("gc copy dst {d} out of range")));
                }
                Some(Ppn::new(d))
            } else {
                None
            };
            copies.push(CopyPacket {
                victim,
                lpn: Lpn::new(lpn),
                src: Ppn::new(src),
                dst,
            });
        }
        let next_copy = r.take_usize()?;
        let outstanding = r.take_usize()?;
        if next_copy > copies.len() || outstanding > copies.len() {
            return Err(CkptError::Invalid(
                "gc copy cursor exceeds the copy list".into(),
            ));
        }
        let victim_count = r.take_count(Self::VICTIM_MIN_BYTES)?;
        let mut victims = Vec::with_capacity(victim_count);
        for _ in 0..victim_count {
            let pbn = r.take_u64()?;
            if pbn >= block_count {
                return Err(CkptError::Invalid(format!(
                    "gc victim pbn {pbn} out of range"
                )));
            }
            let copies_left = r.take_u32()?;
            let range_start = r.take_usize()?;
            let range_end = r.take_usize()?;
            let launched = r.take_usize()?;
            if range_start > range_end
                || range_end > copies.len()
                || launched > range_end - range_start
                || copies_left as usize > range_end - range_start
            {
                return Err(CkptError::Invalid("gc victim range inconsistent".into()));
            }
            victims.push(VictimState {
                pbn: Pbn::new(pbn),
                copies_left,
                range_start,
                range_end,
                launched,
            });
        }
        if copies.iter().any(|c| c.victim >= victims.len()) {
            return Err(CkptError::Invalid(
                "gc copy references a victim out of range".into(),
            ));
        }
        let victims_left = r.take_usize()?;
        if victims_left > victims.len() {
            return Err(CkptError::Invalid(
                "gc victims_left exceeds the victim list".into(),
            ));
        }
        if let Some(plan) = self.plan.as_mut() {
            plan.placement.ckpt_load(r)?;
        }
        let starved_until = r.take_time()?;
        let pump_scheduled = r.take_bool()?;
        self.active = active;
        self.started_at = started_at;
        self.copies = copies;
        self.next_copy = next_copy;
        self.outstanding = outstanding;
        self.victims = victims;
        self.victims_left = victims_left;
        self.starved_until = starved_until;
        self.pump_scheduled = pump_scheduled;
        self.events_completed = r.take_u64()?;
        self.total_time = r.take_time()?;
        self.pages_copied = r.take_u64()?;
        self.blocks_erased = r.take_u64()?;
        self.dest_fallbacks = r.take_u64()?;
        self.reloc_retries = r.take_u64()?;
        Ok(())
    }
}
