//! The host I/O transaction path, architecture-agnostic.
//!
//! Read: command → array tR → data-out → host DMA. Write: data-in → array
//! tPROG. Every data movement and path choice (the greedy adaptive h/v
//! policy, page splitting, mesh controller selection) lives behind the
//! [`super::FabricBackend`] the simulator was constructed with; this module
//! only sequences the flash array, the fabric, and the host pipes.

use nssd_flash::{FlashCommand, PageAddr};
use nssd_host::IoOp;

use super::{Event, SsdSim, SurvivorRead};
use crate::Traffic;

impl SsdSim {
    pub(crate) fn chip_index(&self, addr: PageAddr) -> usize {
        self.cfg.geometry.chip_index(addr.channel, addr.way)
    }

    /// StartTrans: reads issue the command and the array read; writes move
    /// the page data toward the chip.
    pub(crate) fn on_start_trans(&mut self, t: usize) {
        let (addr, is_read, degraded) = {
            let tr = &self.trans[t];
            (tr.addr, tr.is_read, tr.degraded)
        };
        if degraded {
            self.start_degraded_read(t, addr);
        } else if is_read {
            self.start_read_command(t, addr);
        } else {
            self.start_write_data_in(t, addr);
        }
    }

    fn start_read_command(&mut self, t: usize, addr: PageAddr) {
        let tag = Traffic::io(true).tag();
        let now = self.now;
        let (fabric, mut ctx) = self.fabric_parts();
        let cmd = fabric.control_handshake(&mut ctx, addr, FlashCommand::ReadPage, now, tag);
        self.trans[t].mesh_ctrl = cmd.ctrl;
        let chip = self.chip_index(addr);
        let fault = self.sample_read_fault(addr);
        self.trans[t].failed |= fault.uncorrectable;
        let read = self.chips[chip].reserve_read(addr.die, addr.plane, cmd.end);
        let ready = self.apply_read_fault(chip, addr, read.end, fault);
        self.queue.schedule(ready, Event::ArrayDone(t));
    }

    /// A read whose mapped page sits on the fail-stopped chip: the data is
    /// reconstructed from the surviving stripe members instead of touching
    /// the dead chip. Every survivor pays a full command handshake and
    /// array read; the fabric then routes the gather and the XOR combine
    /// (see [`super::FabricBackend::reserve_reconstruct`]), after which the
    /// page flows down the normal host-DMA tail. An uncorrectable survivor
    /// read fails the transaction.
    fn start_degraded_read(&mut self, t: usize, addr: PageAddr) {
        let tag = Traffic::io(true).tag();
        let now = self.now;
        let page = self.page_bytes();
        let ecc = self.gc_ecc();
        let survivors = self.ftl.redundancy().survivors(addr);
        debug_assert!(!survivors.is_empty(), "stripe width >= 2 leaves a survivor");
        let mut reads = Vec::with_capacity(survivors.len());
        for s in survivors {
            let cmd = {
                let (fabric, mut ctx) = self.fabric_parts();
                fabric.control_handshake(&mut ctx, s, FlashCommand::ReadPage, now, tag)
            };
            let chip = self.chip_index(s);
            let fault = self.sample_read_fault(s);
            // One unreadable survivor leaves the XOR short a term.
            self.trans[t].failed |= fault.uncorrectable;
            let read = self.chips[chip].reserve_read(s.die, s.plane, cmd.end);
            let ready = self.apply_read_fault(chip, s, read.end, fault);
            reads.push(SurvivorRead {
                addr: s,
                ready,
                ctrl: cmd.ctrl,
            });
        }
        let (fabric, mut ctx) = self.fabric_parts();
        let done = fabric.reserve_reconstruct(&mut ctx, &reads, None, page, ecc, tag);
        self.faults.note_reconstructed_read();
        self.trans[t].halves_left = 1;
        self.queue.schedule(done, Event::XferHalfDone(t));
    }

    fn start_write_data_in(&mut self, t: usize, addr: PageAddr) {
        let tag = Traffic::io(false).tag();
        let page = self.page_bytes();
        let now = self.now;
        let (fabric, mut ctx) = self.fabric_parts();
        let plan = fabric.reserve_write_in(&mut ctx, addr, page, now, tag);
        self.trans[t].mesh_ctrl = plan.ctrl;
        self.trans[t].halves_left = plan.halves();
        self.trans[t].failed |= plan.failed;
        for end in plan.ends() {
            self.queue.schedule(end, Event::XferHalfDone(t));
        }
    }

    /// ArrayDone: a read's tR finished (page register holds the data — move
    /// it out), or a write's tPROG finished (the page is durable).
    pub(crate) fn on_array_done(&mut self, t: usize) {
        let (addr, is_read, ctrl) = {
            let tr = &self.trans[t];
            (tr.addr, tr.is_read, tr.mesh_ctrl)
        };
        if !is_read {
            let pbn = self.cfg.geometry.pbn(addr.block_addr());
            self.note_programmed(pbn, self.now);
            self.queue.schedule(self.now, Event::PageDone(t));
            return;
        }
        let tag = Traffic::io(true).tag();
        let page = self.page_bytes();
        let now = self.now;
        let (fabric, mut ctx) = self.fabric_parts();
        let plan = fabric.reserve_read_out(&mut ctx, addr, page, ctrl, now, tag);
        self.trans[t].halves_left = plan.halves();
        self.trans[t].failed |= plan.failed;
        for end in plan.ends() {
            self.queue.schedule(end, Event::XferHalfDone(t));
        }
    }

    /// XferHalfDone: one data-path half landed. When the page is fully
    /// transferred, reads DMA to the host and writes start the program.
    pub(crate) fn on_xfer_half_done(&mut self, t: usize) {
        let tr = &mut self.trans[t];
        debug_assert!(tr.halves_left > 0);
        tr.halves_left -= 1;
        if tr.halves_left > 0 {
            return;
        }
        let (addr, is_read, req) = (tr.addr, tr.is_read, tr.req);
        if is_read {
            let op = self.requests[req].op;
            debug_assert_eq!(op, IoOp::Read);
            // Controller ECC decode (if modeled) gates the host DMA.
            let decoded = self.now + self.ecc_host_read_delay();
            let out =
                self.host
                    .outbound(decoded, self.page_bytes() as u64, Traffic::HostRead.tag());
            self.queue.schedule(out.end, Event::PageDone(t));
        } else {
            let chip = self.chip_index(addr);
            let prog = self.chips[chip].reserve_program(addr.die, addr.plane, self.now);
            self.queue.schedule(prog.end, Event::ArrayDone(t));
        }
    }
}
