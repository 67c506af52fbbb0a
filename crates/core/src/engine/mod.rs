//! The event-driven SSD simulator.
//!
//! One [`SsdSim`] owns every timed resource — h-channels, v-channels, mesh
//! links, flash planes, host pipes — and advances a deterministic
//! discrete-event loop over them. I/O transactions are staged so that every
//! routing decision (the greedy h-vs-v choice, page splitting, preemptive GC
//! yielding) is made with resource state *at the moment the data is ready*.

mod ckpt;
mod fabric;
mod gcrun;
mod iopath;
mod rebuild;

use std::cell::RefCell;

use nssd_faults::{FaultEngine, ReadFault, ReliabilityStats};
use nssd_flash::{FlashChip, PageAddr, Pbn, Ppn};
use nssd_ftl::{Ftl, FtlError, Lpn, Relocation};
use nssd_host::{HostFrontend, HostPipes, IoOp, IoRequest, SchedulerKind, TenantConfig};
use nssd_oracle::Oracle;
use nssd_sim::{ConfigError, DetRng};
use nssd_sim::{EventQueue, Histogram, Reservation, Resource, SimTime};

use crate::{
    ChannelUtilSummary, EccMode, EnergySummary, EngineSummary, GcSummary, LatencySummary,
    RedundancySummary, SimReport, SsdConfig, TenantSummary, Traffic,
};

pub(crate) use fabric::{FabricBackend, FabricCtx, GcEcc, SurvivorRead};
pub(crate) use gcrun::GcRuntime;
pub(crate) use rebuild::RebuildRuntime;

/// Events driving the simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A request from the workload arrives (index into the arrival list).
    Arrive(usize),
    /// A write request's data has landed in DRAM; issue its page
    /// transactions.
    IssuePages(usize),
    /// Begin a page transaction's first channel phase.
    StartTrans(usize),
    /// The flash array finished tR (reads) or tPROG (writes).
    ArrayDone(usize),
    /// One path-half of a page data transfer finished.
    XferHalfDone(usize),
    /// A page transaction fully completed (including host DMA for reads).
    PageDone(usize),
    /// Advance garbage-collection work (preemptive pacing / start checks).
    GcPump,
    /// GC copy: source page read into the page register.
    GcCopyReadDone(usize),
    /// GC copy: data arrived at the destination chip / controller buffer.
    GcCopyXferDone(usize),
    /// GC copy: destination program finished.
    GcCopyProgDone(usize),
    /// GC: victim block erase finished.
    GcEraseDone(usize),
    /// The configured whole-chip failure fires.
    ChipFail,
    /// Advance the background rebuild (pacing / start checks).
    RebuildPump,
    /// Rebuild copy: reconstructed data arrived at the destination chip.
    RebuildXferDone(usize),
    /// Rebuild copy: destination program finished.
    RebuildProgDone(usize),
}

/// One functional GC action captured during an instant (untimed)
/// collection, replayed to the shadow oracle *in order* afterwards — an
/// erased block can be reused as a relocation destination within the same
/// collection, so grouping by kind would replay incorrectly.
enum GcNote {
    Rel(Relocation),
    Erase(Pbn),
}

#[derive(Debug)]
struct ReqState {
    op: IoOp,
    submitted: SimTime,
    /// Owning tenant's queue index (0 outside multi-tenant runs).
    tenant: u16,
    pages_total: u32,
    pages_done: u32,
    /// Whether any page of this request failed host-visibly (link-retry
    /// exhaustion, an uncorrectable read, or a read of a lost page).
    failed: bool,
    /// Whether any page of this request was served by parity
    /// reconstruction (degraded-window latency accounting).
    degraded: bool,
}

/// A write request whose data is in flight to DRAM (or stalled on free
/// space), keyed by request slot in [`SsdSim::pending_write_spans`].
#[derive(Debug, Clone, Copy)]
struct PendingSpan {
    first_page: u64,
    pages: u32,
    retries: u32,
}

#[derive(Debug)]
struct TransState {
    req: usize,
    /// Resolved physical target (read: the mapped page; write: the page the
    /// allocator granted).
    addr: PageAddr,
    is_read: bool,
    halves_left: u8,
    /// NoSSD only: the controller chosen (greedily) for this transaction.
    mesh_ctrl: u32,
    /// The page failed host-visibly: a CRC-framed leg exhausted its
    /// retransmission budget, or a read stayed uncorrectable.
    failed: bool,
    /// The mapped page sits on the fail-stopped chip: serve it by parity
    /// reconstruction from the surviving stripe members.
    degraded: bool,
}

/// How a workload drives the simulator.
#[derive(Debug, Clone)]
pub enum Drive {
    /// Open loop: requests arrive at their trace timestamps.
    OpenLoop(Vec<IoRequest>),
    /// Closed loop: keep `depth` requests outstanding until all issued.
    ClosedLoop {
        /// The request list (timestamps ignored).
        requests: Vec<IoRequest>,
        /// Target number of concurrently outstanding requests.
        depth: usize,
    },
    /// Multi-tenant: each tenant's stream arrives at its trace timestamps
    /// into that tenant's submission queue; the device pulls from the
    /// queues through the arbitration policy, keeping at most `depth`
    /// requests outstanding. Latency is measured from queue arrival, so
    /// cross-tenant queueing interference is visible per tenant in
    /// [`SimReport::tenants`].
    MultiTenant {
        /// Per-tenant QoS configuration and request stream, in queue-index
        /// order (arbitration ties break toward the earlier tenant).
        tenants: Vec<(TenantConfig, Vec<IoRequest>)>,
        /// Queue-arbitration policy.
        scheduler: SchedulerKind,
        /// Outstanding-request budget shared by all tenants.
        depth: usize,
    },
}

impl Drive {
    /// Highest byte address any request touches, plus one: over every
    /// tenant's stream for [`Drive::MultiTenant`].
    pub fn footprint_bytes(&self) -> u64 {
        match self {
            Drive::OpenLoop(requests) | Drive::ClosedLoop { requests, .. } => {
                requests.iter().map(IoRequest::end).max()
            }
            Drive::MultiTenant { tenants, .. } => tenants
                .iter()
                .flat_map(|(_, requests)| requests)
                .map(IoRequest::end)
                .max(),
        }
        .unwrap_or(0)
    }
}

/// Live state of a multi-tenant run: the submission frontend plus
/// per-tenant accounting.
#[derive(Debug)]
struct MtRuntime {
    frontend: HostFrontend,
    /// The arbitration policy the frontend was built with (retained so a
    /// checkpoint can rebuild an identical frontend).
    scheduler: SchedulerKind,
    /// Outstanding-request budget ([`SsdSim::inflight_io`] ceiling).
    depth: usize,
    stats: Vec<TenantStats>,
}

#[derive(Debug, Default)]
struct TenantStats {
    all: Histogram,
    read: Histogram,
    write: Histogram,
    bytes: u64,
    completed: u64,
    slo_violations: u64,
    dispatched: u64,
    queue_delay: SimTime,
    last_completion: SimTime,
}

/// The full-system SSD simulator.
///
/// Construct with [`SsdSim::new`], optionally precondition via
/// [`SsdSim::ftl_mut`], then [`SsdSim::run`] a [`Drive`].
#[derive(Debug)]
pub struct SsdSim {
    cfg: SsdConfig,
    now: SimTime,
    queue: EventQueue<Event>,
    /// Reusable same-tick dispatch buffer for [`SsdSim::run_to_idle`];
    /// always empty between events, kept on the struct so its capacity
    /// survives across batches and the hot loop never allocates.
    batch: Vec<Event>,
    pub(crate) ftl: Ftl,
    pub(crate) chips: Vec<FlashChip>,
    pub(crate) h_channels: Vec<Resource>,
    pub(crate) v_channels: Vec<Resource>,
    pub(crate) mesh_links: Vec<Resource>,
    /// The controller's FTL cores (Fig 2); contended only when
    /// `ftl_page_latency` is nonzero.
    ftl_cores: Vec<Resource>,
    /// Cached `next_free` per FTL core, indexed by core. A handful of cores
    /// means the min scan is a few branchless compares over one cache line —
    /// cheaper than the old `BinaryHeap` pop/push pair and allocation-free.
    /// Entries stay exact because [`SsdSim::ftl_compute`] is the only
    /// mutator of the core timelines; first-wins on ties reproduces the
    /// heap's `(time, index)` ordering bit-for-bit.
    ftl_core_free: Vec<SimTime>,
    pub(crate) host: HostPipes,
    /// The architecture's data-movement backend; the only per-architecture
    /// dispatch happens once, at construction (see [`fabric::build`]).
    fabric: Box<dyn FabricBackend>,
    // Workload.
    arrivals: Vec<IoRequest>,
    /// Owning tenant per arrival (parallel to `arrivals`; empty outside
    /// multi-tenant runs).
    arrival_tenants: Vec<u16>,
    closed_loop_depth: Option<usize>,
    /// Multi-tenant frontend state (None outside multi-tenant runs).
    mt: Option<MtRuntime>,
    next_issue: usize,
    requests: Vec<ReqState>,
    /// Completed request slots available for reuse (a slot recycles only
    /// after its last page completes, so a live id is never aliased).
    req_free: Vec<usize>,
    trans: Vec<TransState>,
    /// Completed page-transaction slots available for reuse (`PageDone` is
    /// always a transaction's final event). Keeps memory bounded on
    /// multi-million-page runs instead of growing one state per page.
    trans_free: Vec<usize>,
    /// In-flight write spans, indexed by request slot (at most one per
    /// request). Slab-parallel to `requests`, so insertion and removal are
    /// plain indexed stores with no hashing on the write hot path.
    pending_write_spans: Vec<Option<PendingSpan>>,
    pub(crate) inflight_io: usize,
    // GC.
    pub(crate) gc: GcRuntime,
    // Background rebuild after a redundant chip failure.
    pub(crate) rebuild: RebuildRuntime,
    /// Per-parity-group count of data programs since the last parity
    /// write; at `stripe_width - 1` one rotated parity program is charged.
    /// Empty when redundancy is off.
    parity_pending: Vec<u32>,
    /// Per-parity-group rotation position of the next parity write.
    parity_rot: Vec<u32>,
    /// LPNs lost with a chip that failed without parity, sorted: host reads
    /// of these complete as host-visible I/O errors.
    lost_pages: Vec<u64>,
    pub(crate) rng: DetRng,
    // Shadow oracle (None unless `cfg.oracle`), cross-checking every
    // functional action in lockstep.
    pub(crate) oracle: Option<Oracle>,
    /// Whether the oracle has adopted the FTL state built before `run()`
    /// (preconditioning happens outside the observed event stream).
    oracle_synced: bool,
    // Fault injection.
    pub(crate) faults: FaultEngine,
    /// tPROG completion time per block (indexed by raw physical block
    /// number); feeds the retention term of the bit-error model at
    /// block granularity.
    pub(crate) programmed_at: Vec<SimTime>,
    // Statistics.
    all_lat: Histogram,
    read_lat: Histogram,
    write_lat: Histogram,
    /// Latency of requests that included a reconstructed (degraded) page.
    degraded_lat: Histogram,
    completed: u64,
    unmapped_reads: u64,
    host_bytes: u64,
    first_arrival: SimTime,
    last_completion: SimTime,
    /// Whether [`SsdSim::start`] has run at least once (the one-shot chip
    /// failure is scheduled only on the first drive).
    started: bool,
    /// Host wall-clock spent inside the event loop (reported, never part of
    /// the canonical snapshot — see [`crate::golden`]).
    loop_wall: std::time::Duration,
}

impl SsdSim {
    /// Builds an idle simulator for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of [`SsdConfig::validate`].
    pub fn new(cfg: SsdConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let g = cfg.geometry;
        let mut ftl = Ftl::new(cfg.ftl_config())?;
        // Factory bad blocks are retired before the device ever serves I/O;
        // with a zero rate this draws no randomness at all.
        let mut faults = FaultEngine::new(cfg.faults);
        let marked =
            ftl.mark_manufacture_bad(cfg.faults.bad_blocks.manufacture_rate, faults.rng_mut());
        faults.note_manufacture_bad(marked as u64);

        let oracle = cfg.oracle.then(|| Oracle::new(g, ftl.logical_pages()));

        let chips = (0..g.chip_count())
            .map(|_| FlashChip::new(&g, cfg.timing))
            .collect();
        let h_channels = (0..g.channels)
            .map(|_| Resource::with_recorder(cfg.util_window, Traffic::COUNT))
            .collect();
        let fabric = fabric::build(&cfg);
        let v_channels = (0..fabric.v_channel_count())
            .map(|_| Resource::with_recorder(cfg.util_window, Traffic::COUNT))
            .collect();
        let mesh_links = (0..fabric.mesh_link_count())
            .map(|_| Resource::with_recorder(cfg.util_window, Traffic::COUNT))
            .collect();

        let sim = SsdSim {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            batch: Vec::new(),
            ftl,
            chips,
            h_channels,
            v_channels,
            mesh_links,
            ftl_cores: (0..SsdConfig::FTL_CORES).map(|_| Resource::new()).collect(),
            ftl_core_free: vec![SimTime::ZERO; SsdConfig::FTL_CORES],
            host: HostPipes::new(cfg.host_params()),
            fabric,
            arrivals: Vec::new(),
            arrival_tenants: Vec::new(),
            closed_loop_depth: None,
            mt: None,
            next_issue: 0,
            requests: Vec::new(),
            req_free: Vec::new(),
            trans: Vec::new(),
            trans_free: Vec::new(),
            pending_write_spans: Vec::new(),
            inflight_io: 0,
            gc: GcRuntime::new(&cfg.gc, g.ways),
            rebuild: RebuildRuntime::new(),
            parity_pending: if cfg.redundancy.enabled {
                vec![0; cfg.redundancy.group_count(&g) as usize]
            } else {
                Vec::new()
            },
            parity_rot: if cfg.redundancy.enabled {
                vec![0; cfg.redundancy.group_count(&g) as usize]
            } else {
                Vec::new()
            },
            lost_pages: Vec::new(),
            rng: DetRng::seed_from_u64(cfg.seed),
            oracle,
            oracle_synced: false,
            faults,
            programmed_at: vec![SimTime::ZERO; g.block_count() as usize],
            all_lat: Histogram::new(),
            read_lat: Histogram::new(),
            write_lat: Histogram::new(),
            degraded_lat: Histogram::new(),
            completed: 0,
            unmapped_reads: 0,
            host_bytes: 0,
            first_arrival: SimTime::MAX,
            last_completion: SimTime::ZERO,
            started: false,
            loop_wall: std::time::Duration::ZERO,
            cfg,
        };
        Ok(sim)
    }

    /// Splits the simulator into the fabric backend and the resource
    /// context it reserves against — disjoint field borrows, so the
    /// caller's other state (queue, trans, gc, …) stays usable.
    pub(crate) fn fabric_parts(&mut self) -> (&dyn FabricBackend, FabricCtx<'_>) {
        (
            self.fabric.as_ref(),
            FabricCtx {
                h_channels: &mut self.h_channels,
                v_channels: &mut self.v_channels,
                mesh_links: &mut self.mesh_links,
                faults: &mut self.faults,
                host: &mut self.host,
            },
        )
    }

    /// The GC ECC charges under the configured mode, resolved once per copy
    /// for the fabric backend.
    pub(crate) fn gc_ecc(&self) -> GcEcc {
        GcEcc {
            staged: self.ecc_gc_staged_delay(),
            f2f: self.ecc_f2f_delay(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Immutable FTL access (inspection).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Mutable FTL access, for preconditioning before [`SsdSim::run`].
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// Deterministic RNG access (shares the simulator seed).
    pub fn rng_mut(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Reliability counters accumulated by the fault engine so far.
    pub fn reliability(&self) -> ReliabilityStats {
        self.faults.stats()
    }

    /// The cumulative end-to-end latency histogram (all operations).
    /// Snapshot it between [`SsdSim::start`] segments and use
    /// [`Histogram::delta_since`] for per-segment tails.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.all_lat
    }

    /// Makes the shadow oracle (when enabled) adopt the FTL's current state
    /// as ground truth. Called automatically at the start of [`SsdSim::run`]
    /// if it has not happened yet, so preconditioning done via
    /// [`SsdSim::ftl_mut`] is trusted rather than flagged. Mutation
    /// self-tests call it explicitly *before* corrupting the FTL, so the
    /// corruption stays visible to the oracle.
    pub fn oracle_sync(&mut self) {
        if let Some(oracle) = self.oracle.as_mut() {
            if !self.oracle_synced {
                oracle.sync_from_ftl(&self.ftl);
                self.oracle_synced = true;
            }
        }
    }

    fn page_bytes(&self) -> u32 {
        self.cfg.geometry.page_bytes
    }

    /// Occupies the least-loaded FTL core for one page operation's compute
    /// and returns when it completes (`now` unchanged when the FTL compute
    /// model is disabled).
    fn ftl_compute(&mut self, now: SimTime) -> SimTime {
        let dur = self.cfg.ftl_page_latency;
        if dur.is_zero() {
            return now;
        }
        let mut core = 0usize;
        for (i, &free) in self.ftl_core_free.iter().enumerate().skip(1) {
            if free < self.ftl_core_free[core] {
                core = i;
            }
        }
        let end = self.ftl_cores[core].reserve(now, dur).end;
        self.ftl_core_free[core] = end;
        end
    }

    /// Allocates a request slot, reusing a completed one when available.
    fn alloc_req(&mut self, st: ReqState) -> usize {
        match self.req_free.pop() {
            Some(i) => {
                self.requests[i] = st;
                i
            }
            None => {
                self.requests.push(st);
                self.requests.len() - 1
            }
        }
    }

    /// Records `span` as request `req`'s in-flight write span, growing the
    /// slab to cover the slot.
    fn set_pending_span(&mut self, req: usize, span: PendingSpan) {
        if self.pending_write_spans.len() <= req {
            self.pending_write_spans.resize(req + 1, None);
        }
        self.pending_write_spans[req] = Some(span);
    }

    /// Allocates a page-transaction slot, reusing a completed one when
    /// available.
    fn alloc_trans(&mut self, st: TransState) -> usize {
        match self.trans_free.pop() {
            Some(t) => {
                self.trans[t] = st;
                t
            }
            None => {
                self.trans.push(st);
                self.trans.len() - 1
            }
        }
    }

    /// Controller ECC decode added to every host read (§VIII); zero in the
    /// paper's main (ideal) setting.
    pub(crate) fn ecc_host_read_delay(&self) -> SimTime {
        match self.cfg.ecc.mode {
            EccMode::Ideal => SimTime::ZERO,
            EccMode::Hybrid | EccMode::ControllerStrict => self.cfg.ecc.controller_decode,
        }
    }

    /// ECC cost of staging a GC copy through the controller (decode +
    /// re-encode).
    pub(crate) fn ecc_gc_staged_delay(&self) -> SimTime {
        match self.cfg.ecc.mode {
            EccMode::Ideal => SimTime::ZERO,
            EccMode::Hybrid | EccMode::ControllerStrict => self.cfg.ecc.controller_decode * 2,
        }
    }

    /// ECC cost of a direct flash-to-flash copy, or `None` when the mode
    /// forbids bypassing the controller's decoder.
    pub(crate) fn ecc_f2f_delay(&self) -> Option<SimTime> {
        match self.cfg.ecc.mode {
            EccMode::Ideal => Some(SimTime::ZERO),
            EccMode::Hybrid => Some(self.cfg.ecc.on_die_check),
            EccMode::ControllerStrict => None,
        }
    }

    /// Runs the workload to completion and returns the report.
    pub fn run(mut self, drive: Drive) -> SimReport {
        let wall_start = std::time::Instant::now();
        self.start(drive);
        self.run_to_idle();
        self.loop_wall = wall_start.elapsed();
        self.into_report()
    }

    /// Loads a drive and schedules its arrivals, without running anything.
    ///
    /// On a fresh simulator `now` is zero, so trace timestamps are absolute
    /// and the behaviour is byte-identical to the old single-shot `run`. A
    /// simulator that has already drained an earlier drive can `start` a new
    /// one: arrival timestamps are then interpreted relative to the current
    /// simulated time, which is how the lifetime bench strings months of
    /// traffic together in segments.
    pub fn start(&mut self, drive: Drive) {
        debug_assert!(
            self.queue.is_empty(),
            "starting a drive with events still pending"
        );
        let base = self.now;
        match drive {
            Drive::OpenLoop(mut r) => {
                if base > SimTime::ZERO {
                    for req in &mut r {
                        req.at += base;
                    }
                }
                self.arrivals = r;
                self.arrival_tenants = Vec::new();
                self.closed_loop_depth = None;
                self.mt = None;
            }
            Drive::ClosedLoop { requests, depth } => {
                self.arrivals = requests;
                self.arrival_tenants = Vec::new();
                self.closed_loop_depth = Some(depth.max(1));
                self.mt = None;
            }
            Drive::MultiTenant {
                mut tenants,
                scheduler,
                depth,
            } => {
                if base > SimTime::ZERO {
                    for (_, requests) in &mut tenants {
                        for req in requests {
                            req.at += base;
                        }
                    }
                }
                self.closed_loop_depth = None;
                self.init_multi_tenant(tenants, scheduler, depth);
            }
        }
        self.oracle_sync();

        if !self.started {
            if let Some(spec) = self.cfg.faults.chip_failure {
                self.queue.schedule(spec.at, Event::ChipFail);
            }
        }
        self.started = true;

        match self.closed_loop_depth {
            Some(d) => {
                let n = d.min(self.arrivals.len());
                for i in 0..n {
                    self.queue.schedule(base, Event::Arrive(i));
                }
                self.next_issue = n;
            }
            // Open-loop and multi-tenant runs: every arrival is an event at
            // its trace timestamp (multi-tenant arrivals land in submission
            // queues; the device pulls them via `mt_dispatch`).
            None => {
                for (i, r) in self.arrivals.iter().enumerate() {
                    self.queue.schedule(r.at, Event::Arrive(i));
                }
                self.next_issue = self.arrivals.len();
            }
        }
    }

    /// Advances the simulation by exactly one event; `false` once the event
    /// queue has drained (the started drive is complete).
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((t, ev)) => {
                debug_assert!(t >= self.now, "time went backwards");
                self.now = t;
                self.handle(ev);
                true
            }
            None => false,
        }
    }

    /// Drains the event queue with same-tick batch dispatch: all events
    /// pending at one instant are popped in a single bucket access, then
    /// handled in FIFO order. Events a handler schedules for the current
    /// instant land in the next batch at the same time, so the handle order
    /// is exactly the order repeated [`SsdSim::step`] calls would produce —
    /// this is a faster loop, not a different schedule.
    pub fn run_to_idle(&mut self) {
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(t) = self.queue.pop_batch(&mut batch) {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            for ev in batch.drain(..) {
                self.handle(ev);
            }
        }
        self.batch = batch;
    }

    /// Whether the event queue has drained.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Host requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Consumes the simulator and produces the final report.
    pub fn into_report(self) -> SimReport {
        self.report()
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Arrive(i) => self.on_arrive(i),
            Event::IssuePages(req) => self.on_issue_pages(req),
            Event::StartTrans(t) => self.on_start_trans(t),
            Event::ArrayDone(t) => self.on_array_done(t),
            Event::XferHalfDone(t) => self.on_xfer_half_done(t),
            Event::PageDone(t) => self.on_page_done(t),
            Event::GcPump => self.gc_pump(),
            Event::GcCopyReadDone(c) => self.gc_copy_read_done(c),
            Event::GcCopyXferDone(c) => self.gc_copy_xfer_done(c),
            Event::GcCopyProgDone(c) => self.gc_copy_prog_done(c),
            Event::GcEraseDone(v) => self.gc_erase_done(v),
            Event::ChipFail => self.on_chip_fail(),
            Event::RebuildPump => self.rebuild_pump(),
            Event::RebuildXferDone(c) => self.rebuild_xfer_done(c),
            Event::RebuildProgDone(c) => self.rebuild_prog_done(c),
        }
    }

    /// Handles the scheduled fail-stop chip failure. The semantics follow
    /// from the redundancy config (see [`Ftl::fail_chip`]):
    ///
    /// * **With parity**: mappings stay in place, reads of the dead chip
    ///   are served by reconstruction, and a paced background rebuild
    ///   re-places every degraded page. The oracle is *not* resynced — its
    ///   content tokens must survive the failure byte-for-byte, which is
    ///   exactly the zero-silent-loss claim.
    /// * **Without parity**: the chip's live pages are gone; host reads of
    ///   them complete as host-visible I/O errors.
    fn on_chip_fail(&mut self) {
        let spec = self
            .cfg
            .faults
            .chip_failure
            .expect("ChipFail only scheduled with a spec");
        let out = self.ftl.fail_chip(spec.channel, spec.way);
        self.faults.note_chip_failure(out.lost.len() as u64);
        if self.ftl.redundancy().enabled {
            self.faults.note_pages_degraded(out.pages_degraded);
            self.start_rebuild();
            return;
        }
        // Remember which LPNs died with the chip, so their reads fail
        // rather than being served as never-written zeroes.
        let mut lost: Vec<u64> = out.lost.iter().map(|l| l.raw()).collect();
        lost.sort_unstable();
        self.lost_pages = lost;
        // The failure dropped mappings outside the observed event stream:
        // resync the shadow model.
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.sync_from_ftl(&self.ftl);
        }
    }

    /// Samples the bit-error outcome of reading the page at `addr`, looking
    /// up the block's wear and retention age. Free (no RNG draw) when faults
    /// are off.
    pub(crate) fn sample_read_fault(&mut self, addr: PageAddr) -> ReadFault {
        if !self.faults.active() {
            return ReadFault::NONE;
        }
        let pbn = self.cfg.geometry.pbn(addr.block_addr());
        let pe = self.ftl.blocks().meta(pbn).erase_count();
        let retention = self
            .now
            .saturating_sub(self.programmed_at[pbn.raw() as usize]);
        self.faults
            .page_read(self.page_bytes() as u64 * 8, pe, retention)
    }

    /// Chains a faulty read's extra senses (full tR each, back-to-back on
    /// the plane) and the soft-decode latency after the base sense; returns
    /// when the corrected data is actually available. Uncorrectable pages
    /// still pay the full ladder — the device only learns the read failed
    /// after exhausting it; host reads then fail the transaction.
    pub(crate) fn apply_read_fault(
        &mut self,
        chip: usize,
        addr: PageAddr,
        read_end: SimTime,
        fault: ReadFault,
    ) -> SimTime {
        let mut end = read_end;
        if fault.extra_senses > 0 {
            end = self.chips[chip]
                .reserve_read_retries(addr.die, addr.plane, end, fault.extra_senses)
                .expect("extra_senses > 0 reserves at least one sense")
                .end;
        }
        if fault.soft_decode {
            end += self.cfg.faults.bit_error.soft_decode;
        }
        end
    }

    /// Records that block `pbn`'s most recent program finished at `at`
    /// (block-granularity retention tracking), and accrues the program
    /// toward its parity group when redundancy is on.
    pub(crate) fn note_programmed(&mut self, pbn: nssd_flash::Pbn, at: SimTime) {
        self.programmed_at[pbn.raw() as usize] = at;
        self.charge_parity(pbn, at);
    }

    /// Accrues one data program toward its parity group; every
    /// `stripe_width - 1` programs one rotated parity write is charged —
    /// the fabric write-in plus the plane program on the group's current
    /// parity chip. Purely a timing/bandwidth model: parity *content* is
    /// implicit in the capacity the FTL reserved. No-op with redundancy
    /// off, so baseline runs are untouched.
    fn charge_parity(&mut self, pbn: Pbn, at: SimTime) {
        let red = self.cfg.redundancy;
        if !red.enabled {
            return;
        }
        let g = self.cfg.geometry;
        let a = g.block_addr(pbn);
        let group = red.group_index(&g, a.channel, a.way) as usize;
        self.parity_pending[group] += 1;
        if self.parity_pending[group] < red.stripe_width - 1 {
            return;
        }
        self.parity_pending[group] = 0;
        let rot = self.parity_rot[group];
        self.parity_rot[group] = (rot + 1) % red.stripe_width;
        let channel = red.group_base(a.channel) + rot;
        if self.ftl.dead_chip() == Some((channel, a.way)) {
            // The rotation landed on the dead chip: the stripe runs
            // unprotected until rebuild completes; nothing to write.
            return;
        }
        let addr = PageAddr {
            channel,
            way: a.way,
            die: a.die,
            plane: a.plane,
            block: a.block,
            page: 0,
        };
        let page = self.page_bytes();
        let tag = Traffic::Gc.tag();
        let plan_end = {
            let (fabric, mut ctx) = self.fabric_parts();
            let plan = fabric.reserve_write_in(&mut ctx, addr, page, at, tag);
            plan.ends().fold(SimTime::ZERO, SimTime::max)
        };
        let chip = self.chip_index(addr);
        self.chips[chip].reserve_program(addr.die, addr.plane, plan_end);
    }

    /// Merges per-tenant streams into one time-ordered arrival list (stable
    /// on ties, so same-instant arrivals keep tenant order) and stands up
    /// the submission frontend.
    fn init_multi_tenant(
        &mut self,
        tenants: Vec<(TenantConfig, Vec<IoRequest>)>,
        scheduler: SchedulerKind,
        depth: usize,
    ) {
        assert!(!tenants.is_empty(), "multi-tenant drive needs a tenant");
        assert!(
            tenants.len() <= u16::MAX as usize,
            "tenant count exceeds the per-request tag width"
        );
        let mut configs = Vec::with_capacity(tenants.len());
        let mut merged: Vec<(IoRequest, u16)> = Vec::new();
        for (t, (config, requests)) in tenants.into_iter().enumerate() {
            configs.push(config);
            merged.extend(requests.into_iter().map(|r| (r, t as u16)));
        }
        merged.sort_by_key(|&(r, _)| r.at);
        self.arrival_tenants = merged.iter().map(|&(_, t)| t).collect();
        self.arrivals = merged.into_iter().map(|(r, _)| r).collect();
        let stats = configs.iter().map(|_| TenantStats::default()).collect();
        self.mt = Some(MtRuntime {
            frontend: HostFrontend::new(configs, scheduler),
            scheduler,
            depth: depth.max(1),
            stats,
        });
    }

    fn on_arrive(&mut self, i: usize) {
        let r = self.arrivals[i];
        if let Some(mt) = self.mt.as_mut() {
            // Multi-tenant: the request lands in its tenant's submission
            // queue; the device pulls it when the arbitration policy and the
            // outstanding budget allow.
            self.first_arrival = self.first_arrival.min(r.at);
            self.host_bytes += r.len as u64;
            let tenant = self.arrival_tenants[i];
            mt.stats[tenant as usize].bytes += r.len as u64;
            mt.frontend.push(tenant as usize, r);
            self.mt_dispatch();
            return;
        }
        let at = if self.closed_loop_depth.is_some() {
            self.now
        } else {
            r.at
        };
        self.first_arrival = self.first_arrival.min(at);
        self.host_bytes += r.len as u64;
        self.start_request(r, 0, at);
    }

    /// Pulls queued requests into the device while the outstanding budget
    /// allows, charging each dispatch's queueing delay to its tenant.
    fn mt_dispatch(&mut self) {
        loop {
            let Some(mt) = self.mt.as_mut() else { return };
            if self.inflight_io >= mt.depth {
                return;
            }
            let Some((tenant, r)) = mt.frontend.pop_next() else {
                return;
            };
            let st = &mut mt.stats[tenant];
            st.dispatched += 1;
            st.queue_delay += self.now.saturating_sub(r.at);
            // Latency is measured from queue arrival (`r.at`), so time spent
            // waiting behind other tenants shows up in this tenant's tail.
            self.start_request(r, tenant as u16, r.at);
        }
    }

    /// Admits one request into the device: allocates its slot, counts it
    /// in-flight, and begins its page work. `submitted` is the latency
    /// origin — equal to `now` for open/closed-loop drives, the original
    /// queue-arrival time for multi-tenant dispatches.
    fn start_request(&mut self, r: IoRequest, tenant: u16, submitted: SimTime) {
        let (first_page, pages) = r.page_span(self.page_bytes());
        let req_id = self.alloc_req(ReqState {
            op: r.op,
            submitted,
            tenant,
            pages_total: pages,
            pages_done: 0,
            failed: false,
            degraded: false,
        });
        self.inflight_io += 1;
        match r.op {
            IoOp::Read => {
                // Command submission cost is negligible; page reads start
                // immediately and DMA back per page.
                self.issue_read_pages(req_id, first_page, pages);
            }
            IoOp::Write => {
                // Data moves host → DRAM first, then pages are issued; the
                // allocator runs at issue time so spatial-GC masks apply.
                let landed = self
                    .host
                    .inbound(self.now, r.len as u64, Traffic::HostWrite.tag());
                self.queue.schedule(landed.end, Event::IssuePages(req_id));
                self.set_pending_span(
                    req_id,
                    PendingSpan {
                        first_page,
                        pages,
                        retries: 0,
                    },
                );
            }
        }
    }

    fn on_issue_pages(&mut self, req: usize) {
        const RETRY_DELAY: SimTime = SimTime::from_us(50);
        const MAX_RETRIES: u32 = 100_000;
        let PendingSpan {
            first_page,
            pages,
            retries,
        } = self.pending_write_spans[req]
            .take()
            .expect("write span recorded at arrival");
        for p in 0..pages {
            let lpn = Lpn::new(first_page + p as u64);
            let ppn = match self.try_allocate(lpn) {
                Some(ppn) => ppn,
                None => {
                    // No free block right now (GC in flight, or the spatial
                    // I/O group is momentarily full): stall the remaining
                    // pages and retry — real devices apply exactly this
                    // backpressure.
                    assert!(
                        retries < MAX_RETRIES,
                        "write stalled for {} at {}: device cannot reclaim space \
                         (precondition fill too high for the overprovisioning)",
                        RETRY_DELAY * MAX_RETRIES as u64,
                        self.now
                    );
                    self.set_pending_span(
                        req,
                        PendingSpan {
                            first_page: first_page + p as u64,
                            pages: pages - p,
                            retries: retries + 1,
                        },
                    );
                    self.queue
                        .schedule_after(self.now, RETRY_DELAY, Event::IssuePages(req));
                    self.maybe_start_gc();
                    // A space-blocked write also forces preemptive GC ahead.
                    if self.gc.wants_pump() {
                        self.queue.schedule(self.now, Event::GcPump);
                    }
                    return;
                }
            };
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.note_host_write(lpn, ppn, self.now);
            }
            let addr = self.cfg.geometry.page_addr(ppn);
            let t = self.alloc_trans(TransState {
                req,
                addr,
                is_read: false,
                halves_left: 0,
                mesh_ctrl: 0,
                failed: false,
                degraded: false,
            });
            let ready = self.ftl_compute(self.now);
            self.queue.schedule(ready, Event::StartTrans(t));
        }
        self.maybe_start_gc();
    }

    fn try_allocate(&mut self, lpn: Lpn) -> Option<Ppn> {
        // With GC disabled there is no timed reclamation; reclaim instantly
        // at the watermark (counted in FtlStats) so pure interconnect
        // studies are not polluted by GC timing — and crucially *before*
        // free space hits zero, when relocation itself would have no room.
        if !self.gc.enabled() && self.ftl.needs_gc() {
            match self.oracle.as_mut() {
                None => {
                    let _ = self.ftl.instant_gc(&mut self.rng);
                }
                Some(oracle) => {
                    // Both observation hooks would need the oracle at once;
                    // capture the interleaved action stream instead and
                    // replay it in order afterwards.
                    let notes = RefCell::new(Vec::new());
                    let _ = self.ftl.instant_gc_with(
                        &mut self.rng,
                        &mut |rel| notes.borrow_mut().push(GcNote::Rel(rel)),
                        &mut |pbn| notes.borrow_mut().push(GcNote::Erase(pbn)),
                    );
                    for note in notes.into_inner() {
                        match note {
                            GcNote::Rel(rel) => oracle.note_relocation(rel, self.now),
                            GcNote::Erase(pbn) => oracle.note_erase(pbn, self.now),
                        }
                    }
                    oracle.check_invariants(&mut self.ftl, self.now);
                }
            }
        }
        match self.ftl.write(lpn) {
            Ok(out) => Some(out.ppn),
            Err(FtlError::OutOfSpace) => None,
            Err(e) => panic!("write failed: {e}"),
        }
    }

    fn issue_read_pages(&mut self, req: usize, first_page: u64, pages: u32) {
        for p in 0..pages {
            let lpn = Lpn::new(first_page + p as u64);
            let mapped = self.ftl.lookup(lpn);
            if let Some(oracle) = self.oracle.as_mut() {
                // Checked at issue time: this is the translation the data
                // will actually be served from, and the shadow map cannot
                // drift underneath it while the transfer is in flight.
                oracle.check_host_read(lpn, mapped, self.now);
            }
            match mapped {
                Some(ppn) => {
                    let addr = self.cfg.geometry.page_addr(ppn);
                    let t = self.alloc_trans(TransState {
                        req,
                        addr,
                        is_read: true,
                        halves_left: 0,
                        mesh_ctrl: 0,
                        failed: false,
                        degraded: self.ftl.is_degraded_page(ppn),
                    });
                    let ready = self.ftl_compute(self.now);
                    self.queue.schedule(ready, Event::StartTrans(t));
                }
                None => {
                    // Never-written page: served from the controller
                    // (all-zero data), host DMA only. An LPN that died
                    // with an unprotected chip is unmapped too — but its
                    // read is an honest I/O error, not zeroes.
                    let lost = self.lost_pages.binary_search(&lpn.raw()).is_ok();
                    self.unmapped_reads += 1;
                    let out = self.host.outbound(
                        self.now,
                        self.page_bytes() as u64,
                        Traffic::HostRead.tag(),
                    );
                    let t = self.alloc_trans(TransState {
                        req,
                        addr: PageAddr {
                            channel: 0,
                            way: 0,
                            die: 0,
                            plane: 0,
                            block: 0,
                            page: 0,
                        },
                        is_read: true,
                        halves_left: 0,
                        mesh_ctrl: 0,
                        failed: lost,
                        degraded: false,
                    });
                    self.queue.schedule(out.end, Event::PageDone(t));
                }
            }
        }
    }

    fn on_page_done(&mut self, t: usize) {
        let (req_id, t_failed, t_degraded) = {
            let tr = &self.trans[t];
            (tr.req, tr.failed, tr.degraded)
        };
        // `PageDone` is a transaction's final event; the slot is free for
        // the next page the moment it fires.
        self.trans_free.push(t);
        let req = &mut self.requests[req_id];
        req.failed |= t_failed;
        req.degraded |= t_degraded;
        req.pages_done += 1;
        if req.pages_done == req.pages_total {
            let lat = self.now - req.submitted;
            let op = req.op;
            let tenant = req.tenant as usize;
            let (failed, degraded) = (req.failed, req.degraded);
            if degraded {
                self.degraded_lat.record(lat);
            }
            if failed {
                self.faults.note_host_io_error();
            }
            self.all_lat.record(lat);
            match op {
                IoOp::Read => self.read_lat.record(lat),
                IoOp::Write => self.write_lat.record(lat),
            }
            if let Some(mt) = self.mt.as_mut() {
                let slo = mt.frontend.config(tenant).slo_latency;
                let st = &mut mt.stats[tenant];
                st.completed += 1;
                st.all.record(lat);
                match op {
                    IoOp::Read => st.read.record(lat),
                    IoOp::Write => st.write.record(lat),
                }
                if lat > slo {
                    st.slo_violations += 1;
                }
                st.last_completion = st.last_completion.max(self.now);
            }
            self.completed += 1;
            self.last_completion = self.last_completion.max(self.now);
            self.inflight_io -= 1;
            // Every page transaction has completed (this was the last one),
            // so nothing references the request slot any more.
            self.req_free.push(req_id);
            // Closed loop: replace the finished request.
            if self.closed_loop_depth.is_some() && self.next_issue < self.arrivals.len() {
                let i = self.next_issue;
                self.next_issue += 1;
                self.queue.schedule(self.now, Event::Arrive(i));
            }
            // Multi-tenant: a freed outstanding slot pulls the next queued
            // request through the arbitration policy.
            if self.mt.is_some() {
                self.mt_dispatch();
            }
            // Preemptive GC (and rebuild) wait for I/O quiescence.
            if self.gc.wants_pump() {
                self.queue.schedule(self.now, Event::GcPump);
            }
            if self.rebuild.wants_pump() {
                self.queue.schedule(self.now, Event::RebuildPump);
            }
        }
    }

    fn report(mut self) -> SimReport {
        let oracle_summary = match self.oracle.take() {
            Some(mut oracle) => {
                oracle.final_check(&self.ftl, self.now);
                oracle.summary()
            }
            None => Default::default(),
        };
        // A run that completed nothing has no utilization to window; the
        // `+ 1` formula would still allocate one window per channel.
        let windows = if self.completed == 0 {
            0
        } else {
            (self.last_completion.as_ns() / self.cfg.util_window.as_ns() + 1) as usize
        };
        let per_channel = |tag: usize| -> Vec<Vec<f64>> {
            self.h_channels
                .iter()
                .map(|c| {
                    c.recorder()
                        .map(|r| r.fractions(tag, windows))
                        .unwrap_or_default()
                })
                .collect()
        };
        // Mesh architectures report edge-link utilization per column.
        let per_channel_mesh = |tag: usize| -> Vec<Vec<f64>> {
            let cols = self.cfg.geometry.channels as usize;
            (0..cols)
                .map(|c| {
                    // inject link c and eject link cols + c.
                    let mut v = vec![0.0; windows];
                    for link in [c, cols + c] {
                        if let Some(r) = self.mesh_links[link].recorder() {
                            for (w, f) in r.fractions(tag, windows).into_iter().enumerate() {
                                v[w] += f;
                            }
                        }
                    }
                    v
                })
                .collect()
        };
        let util = if self.fabric.is_mesh() {
            ChannelUtilSummary {
                read: per_channel_mesh(Traffic::HostRead.tag()),
                write: per_channel_mesh(Traffic::HostWrite.tag()),
                gc: per_channel_mesh(Traffic::Gc.tag()),
                window: self.cfg.util_window,
            }
        } else {
            ChannelUtilSummary {
                read: per_channel(Traffic::HostRead.tag()),
                write: per_channel(Traffic::HostWrite.tag()),
                gc: per_channel(Traffic::Gc.tag()),
                window: self.cfg.util_window,
            }
        };
        let pj_to_mj = 1e-9;
        let bytes_of =
            |res: &Resource, bps: u64| res.busy_total().as_ns() as f64 * bps as f64 / 1e9;
        let h_bps = self.cfg.h_bus().bytes_per_sec();
        let v_bps = self.cfg.v_bus().bytes_per_sec();
        let energy = EnergySummary {
            h_channel_mj: self
                .h_channels
                .iter()
                .map(|c| bytes_of(c, h_bps) * SsdConfig::PJ_PER_BYTE_CHANNEL * pj_to_mj)
                .sum(),
            v_channel_mj: self
                .v_channels
                .iter()
                .map(|c| bytes_of(c, v_bps) * SsdConfig::PJ_PER_BYTE_CHANNEL * pj_to_mj)
                .sum(),
            mesh_mj: {
                let link_bps = self.cfg.mesh_params().link.bytes_per_sec();
                self.mesh_links
                    .iter()
                    .map(|c| bytes_of(c, link_bps) * SsdConfig::PJ_PER_BYTE_HOP * pj_to_mj)
                    .sum()
            },
            host_bytes: self.host_bytes,
        };
        // Per-tenant rollup (empty for single-tenant drives, which keeps
        // their canonical snapshots byte-identical).
        let tenants = match self.mt.take() {
            None => Vec::new(),
            Some(mt) => mt
                .stats
                .iter()
                .enumerate()
                .map(|(i, st)| {
                    let config = mt.frontend.config(i);
                    TenantSummary {
                        name: config.name.clone(),
                        weight: config.weight,
                        slo_latency: config.slo_latency,
                        completed: st.completed,
                        bytes: st.bytes,
                        all: LatencySummary::from_histogram(&st.all),
                        read: LatencySummary::from_histogram(&st.read),
                        write: LatencySummary::from_histogram(&st.write),
                        slo_violations: st.slo_violations,
                        mean_queue_delay: if st.dispatched == 0 {
                            SimTime::ZERO
                        } else {
                            st.queue_delay / st.dispatched
                        },
                        last_completion: st.last_completion,
                    }
                })
                .collect(),
        };
        SimReport {
            architecture: self.cfg.architecture,
            completed: self.completed,
            unmapped_reads: self.unmapped_reads,
            first_arrival: if self.first_arrival == SimTime::MAX {
                SimTime::ZERO
            } else {
                self.first_arrival
            },
            last_completion: self.last_completion,
            all: LatencySummary::from_histogram(&self.all_lat),
            read: LatencySummary::from_histogram(&self.read_lat),
            write: LatencySummary::from_histogram(&self.write_lat),
            gc: GcSummary {
                events: self.gc.events_completed,
                total_time: self.gc.total_time,
                mean_time: if self.gc.events_completed == 0 {
                    SimTime::ZERO
                } else {
                    self.gc.total_time / self.gc.events_completed
                },
                pages_copied: self.gc.pages_copied,
                blocks_erased: self.gc.blocks_erased,
            },
            ftl: self.ftl.stats(),
            wear: self.ftl.blocks().wear_summary(),
            wear_tracked: self.gc.spec().is_some_and(|s| s.tracks_wear()),
            channel_util: util,
            energy,
            reliability: self.faults.stats(),
            redundancy: self.cfg.redundancy.enabled.then(|| RedundancySummary {
                stripe_width: self.cfg.redundancy.stripe_width,
                degraded: LatencySummary::from_histogram(&self.degraded_lat),
                rebuild_pages: self.rebuild.pages_rebuilt,
                rebuild_started: self.rebuild.started_at,
                rebuild_completed: self.rebuild.finished_at,
            }),
            tenants,
            oracle: oracle_summary,
            engine: EngineSummary {
                scheduled_events: self.queue.scheduled_total(),
                wall_clock: self.loop_wall,
            },
        }
    }
}

/// Reserves one packetized data transfer on `res`, charging any
/// CRC-detected retransmission (NAK signalling, back-off, then a full
/// re-send) on the same channel timeline. With faults off this is exactly
/// one clean reservation and draws no randomness. The `bool` reports
/// whether the payload was eventually delivered intact; a `false` must
/// surface as a host-visible I/O error on request paths.
pub(crate) fn reserve_with_link_faults(
    res: &mut Resource,
    faults: &mut FaultEngine,
    at: SimTime,
    dur: SimTime,
    bytes: u64,
    tag: usize,
) -> (Reservation, bool) {
    let out = faults.crc_transfer(bytes);
    let gap = faults.config().link.retry_gap();
    let mut r = res.reserve_tagged(at, dur, tag);
    for _ in 1..out.attempts {
        r = res.reserve_tagged(r.end + gap, dur, tag);
    }
    (r, out.delivered)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cached-vector FTL-core pick must reproduce the reference scan
    /// (`min_by_key` over `(next_free, index)`) choice-for-choice — the same
    /// contract the interim `BinaryHeap` held: a mirror set of resources is
    /// driven by the reference scan, and both the returned completion times
    /// and the final per-core timelines must agree at every step.
    #[test]
    fn core_pick_matches_reference_scan() {
        let mut cfg = SsdConfig::tiny(crate::Architecture::BaseSsd);
        cfg.ftl_page_latency = SimTime::from_ns(250);
        let dur = cfg.ftl_page_latency;
        let mut sim = SsdSim::new(cfg).unwrap();
        let mut mirror: Vec<Resource> =
            (0..SsdConfig::FTL_CORES).map(|_| Resource::new()).collect();
        let mut now = SimTime::ZERO;
        for step in 0..500u64 {
            let got = sim.ftl_compute(now);
            let core = mirror
                .iter()
                .enumerate()
                .min_by_key(|(i, c)| (c.next_free(), *i))
                .map(|(i, _)| i)
                .unwrap();
            let want = mirror[core].reserve(now, dur).end;
            assert_eq!(got, want, "completion time diverged at step {step}");
            for (i, m) in mirror.iter().enumerate() {
                assert_eq!(
                    sim.ftl_cores[i].next_free(),
                    m.next_free(),
                    "core {i} timeline diverged at step {step}"
                );
            }
            // Irregular arrival gaps (including bursts of simultaneous
            // requests) so ties between cores actually occur.
            now += SimTime::from_ns((step % 7) * 67);
        }
    }

    /// Recycled slots keep `requests`/`trans` bounded by the in-flight
    /// population rather than the run length: a serial closed-loop run of
    /// 64 one-page writes must never grow either table past a handful of
    /// slots. Drives the event loop by hand so the tables remain
    /// observable at every step ([`SsdSim::run`] consumes the simulator).
    #[test]
    fn slot_pools_stay_bounded_across_a_run() {
        let mut cfg = SsdConfig::tiny(crate::Architecture::BaseSsd);
        cfg.gc.plan = None;
        cfg.seed = 42;
        let page = cfg.geometry.page_bytes;
        let mut sim = SsdSim::new(cfg).unwrap();
        sim.closed_loop_depth = Some(1);
        sim.arrivals = (0..64u64)
            .map(|i| IoRequest::new(IoOp::Write, (i % 8) * page as u64, page, SimTime::ZERO))
            .collect();
        sim.oracle_sync();
        sim.queue.schedule(SimTime::ZERO, Event::Arrive(0));
        sim.next_issue = 1;
        let (mut max_reqs, mut max_trans) = (0, 0);
        while let Some((t, ev)) = sim.queue.pop() {
            sim.now = t;
            sim.handle(ev);
            max_reqs = max_reqs.max(sim.requests.len());
            max_trans = max_trans.max(sim.trans.len());
        }
        assert_eq!(sim.completed, 64);
        assert!(max_reqs <= 2, "request slots grew to {max_reqs}");
        assert!(max_trans <= 4, "trans slots grew to {max_trans}");
    }
}
