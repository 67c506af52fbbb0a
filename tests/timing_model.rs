//! First-principles timing checks: closed-form latencies for single,
//! uncontended operations on each architecture, computed by hand from the
//! Table II parameters and checked against the full engine.

use networked_ssd::host::{IoOp, IoRequest};
use networked_ssd::sim::SimTime;
use networked_ssd::{run_trace, Architecture, SsdConfig, Trace};

/// Tiny geometry: 4 KB pages, 8 GB/s host pipes (floored), 1000 MT/s bus.
const PAGE: u64 = 4096;

fn one_request(op: IoOp, len: u32) -> Trace {
    let mut t = Trace::new("one");
    t.push(IoRequest::new(op, 0, len, SimTime::ZERO));
    t
}

fn run_one(arch: Architecture, op: IoOp, len: u32) -> u64 {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.plan = None;
    let report = run_trace(cfg, one_request(op, len)).expect("run");
    assert_eq!(report.completed, 1);
    report.all.mean.as_ns()
}

/// Host-side cost: three chained 8 GB/s pipes, 0.125 ns/B each.
fn host_ns(bytes: u64) -> u64 {
    3 * bytes / 8
}

#[test]
fn base_ssd_single_page_read() {
    // cmd+addr (7 B @ 1 GT/s) + tR (3 us) + data-out (4096 ns) + host.
    let expect = 7 + 3_000 + PAGE + host_ns(PAGE);
    assert_eq!(
        run_one(Architecture::BaseSsd, IoOp::Read, PAGE as u32),
        expect
    );
}

#[test]
fn base_ssd_single_page_write() {
    // host inbound + cmd+data-in (7 + 4096 ns) + tPROG (50 us).
    let expect = host_ns(PAGE) + 7 + PAGE + 50_000;
    assert_eq!(
        run_one(Architecture::BaseSsd, IoOp::Write, PAGE as u32),
        expect
    );
}

#[test]
fn pssd_single_page_read_uses_16bit_bus_and_packets() {
    // Control packet: 8 flits on 16-bit = 4 beats = 4 ns. tR. Read-out:
    // rdt control (4 flits = 2 ns) + data packet (4096+3 flits = 2050 ns).
    // Host pipes: tiny pSSD totals 2ch x 2 GB/s = 4 GB/s flash, floored to
    // the Table II 8 GB/s provisioning (0.125 ns/B x3 pipes).
    let expect = 4 + 3_000 + (2 + 2_050) + host_ns(PAGE);
    assert_eq!(run_one(Architecture::PSsd, IoOp::Read, PAGE as u32), expect);
}

#[test]
fn erase_dominates_gc_event_time() {
    // Not a full closed-form run; sanity: tiny config's erase (1 ms) is
    // >10x any page operation modeled above.
    let cfg = SsdConfig::tiny(Architecture::BaseSsd);
    assert_eq!(cfg.timing.erase, SimTime::from_ms(1));
    assert!(cfg.timing.erase.as_ns() > 10 * (50_000 + PAGE));
}

#[test]
fn multi_page_read_overlaps_planes() {
    // A 16 KB read = 4 tiny pages across 4 planes: the tR phases overlap,
    // so total latency is far below 4 sequential page reads.
    let four_pages = run_one(Architecture::BaseSsd, IoOp::Read, (4 * PAGE) as u32);
    let one_page = run_one(Architecture::BaseSsd, IoOp::Read, PAGE as u32);
    assert!(four_pages < 4 * one_page);
    // The tiny device has 2 channels, so the 4 data-out phases pair up:
    // each channel serializes one extra page transfer.
    assert!(four_pages as i64 - one_page as i64 >= PAGE as i64);
}

#[test]
fn nossd_pin_constraint_quadruples_serialization() {
    let pin = run_one(Architecture::NoSsdPinConstrained, IoOp::Read, PAGE as u32);
    let un = run_one(Architecture::NoSsdUnconstrained, IoOp::Read, PAGE as u32);
    // 2-bit vs 8-bit links: the data packet serialization dominates and
    // scales 4x; command/array/host parts dilute the total ratio below 4.
    assert!(pin > 2 * un, "pin {pin} vs unconstrained {un}");
    assert!(pin < 6 * un, "pin {pin} vs unconstrained {un}");
}

#[test]
fn pnssd_split_page_beats_single_path_when_idle() {
    let split = run_one(Architecture::PnSsdSplit, IoOp::Read, PAGE as u32);
    let plain = run_one(Architecture::PnSsd, IoOp::Read, PAGE as u32);
    // Idle device: split moves half the page per channel concurrently.
    assert!(
        split < plain,
        "split ({split}) should beat single-path pnSSD ({plain}) on an idle device"
    );
}
