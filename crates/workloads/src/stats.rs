//! Trace characterization — the aggregate statistics the synthetic suite is
//! tuned against (read mix, size distribution, arrival burstiness, skew).

use core::fmt;
use std::collections::HashMap;

use nssd_sim::{RunningStats, SimTime};

use crate::Trace;

/// Aggregate statistics of a block trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of requests.
    pub requests: usize,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Mean request size in bytes.
    pub mean_request_bytes: f64,
    /// Mean inter-arrival gap.
    pub mean_gap: SimTime,
    /// Coefficient of variation of inter-arrival gaps (1 ≈ Poisson,
    /// larger = bursty).
    pub gap_cov: f64,
    /// Footprint (highest touched byte + 1).
    pub footprint_bytes: u64,
    /// Fraction of requests whose start adjoins the previous request's end
    /// (sequentiality estimate).
    pub sequential_fraction: f64,
    /// Share of read requests landing on the single hottest 16 KB page.
    pub hottest_page_share: f64,
    /// Offered bandwidth: total bytes / duration.
    pub offered_bytes_per_sec: f64,
}

impl TraceStats {
    /// Computes statistics over `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn measure(trace: &Trace) -> Self {
        assert!(!trace.is_empty(), "cannot characterize an empty trace");
        const PAGE: u64 = 16 * 1024;
        let records = trace.records();
        let mut gaps = RunningStats::new();
        let mut sequential = 0usize;
        let mut read_page_counts: HashMap<u64, u64> = HashMap::new();
        let mut reads = 0u64;
        let mut prev_end: Option<u64> = None;
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                gaps.push((r.at - records[i - 1].at).as_ns() as f64);
            }
            if prev_end == Some(r.offset) {
                sequential += 1;
            }
            prev_end = Some(r.offset + r.len as u64);
            if r.op.is_read() {
                reads += 1;
                *read_page_counts.entry(r.offset / PAGE).or_insert(0) += 1;
            }
        }
        let duration = trace.duration();
        let offered = if duration.is_zero() {
            0.0
        } else {
            trace.total_bytes() as f64 / duration.as_secs_f64()
        };
        TraceStats {
            requests: records.len(),
            read_fraction: trace.read_fraction(),
            mean_request_bytes: trace.total_bytes() as f64 / records.len() as f64,
            mean_gap: SimTime::from_ns(gaps.mean() as u64),
            gap_cov: gaps.coefficient_of_variation(),
            footprint_bytes: trace.footprint_bytes(),
            sequential_fraction: sequential as f64 / records.len() as f64,
            hottest_page_share: if reads == 0 {
                0.0
            } else {
                *read_page_counts.values().max().unwrap_or(&0) as f64 / reads as f64
            },
            offered_bytes_per_sec: offered,
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} requests, {:.0}% reads, mean {:.1} KiB",
            self.requests,
            self.read_fraction * 100.0,
            self.mean_request_bytes / 1024.0
        )?;
        writeln!(
            f,
            "arrivals: mean gap {}, CoV {:.2}; offered {:.2} GB/s",
            self.mean_gap,
            self.gap_cov,
            self.offered_bytes_per_sec / 1e9
        )?;
        write!(
            f,
            "footprint {:.1} MiB, {:.0}% sequential, hottest page {:.2}% of reads",
            self.footprint_bytes as f64 / (1 << 20) as f64,
            self.sequential_fraction * 100.0,
            self.hottest_page_share * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PaperWorkload, SyntheticPattern, SyntheticSpec};

    #[test]
    fn synthetic_sequential_is_fully_sequential() {
        let t = SyntheticSpec::paper(SyntheticPattern::SequentialWrite, 100, 1 << 24).generate();
        let s = TraceStats::measure(&t);
        // Wraps at the footprint, so a handful of resets are expected.
        assert!(s.sequential_fraction > 0.9, "{}", s.sequential_fraction);
        assert_eq!(s.read_fraction, 0.0);
        assert_eq!(s.mean_request_bytes, 65536.0);
    }

    #[test]
    fn suite_statistics_match_specs() {
        for w in [PaperWorkload::Exchange1, PaperWorkload::WebSearch0] {
            let t = w.generate(5_000, 1 << 28, 31);
            let s = TraceStats::measure(&t);
            let spec = w.spec();
            assert!(
                (s.read_fraction - spec.read_fraction).abs() < 0.05,
                "{}: {}",
                w.name(),
                s.read_fraction
            );
            assert!(s.footprint_bytes <= 1 << 28);
            assert!(s.offered_bytes_per_sec > 0.0);
        }
    }

    #[test]
    fn bursty_traces_have_high_gap_cov() {
        let bursty = TraceStats::measure(&PaperWorkload::Exchange1.generate(5_000, 1 << 28, 32));
        assert!(bursty.gap_cov > 1.0, "CoV {}", bursty.gap_cov);
    }

    #[test]
    fn skewed_reads_have_hot_page() {
        let s = TraceStats::measure(&PaperWorkload::Exchange1.generate(8_000, 1 << 28, 33));
        let u = TraceStats::measure(&PaperWorkload::Build0.generate(8_000, 1 << 28, 33));
        assert!(
            s.hottest_page_share > u.hottest_page_share,
            "exchange {} vs build {}",
            s.hottest_page_share,
            u.hottest_page_share
        );
    }

    #[test]
    fn display_is_informative() {
        let s = TraceStats::measure(&PaperWorkload::YcsbA.generate(500, 1 << 26, 34));
        let text = s.to_string();
        assert!(text.contains("requests"));
        assert!(text.contains("footprint"));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_trace_rejected() {
        TraceStats::measure(&Trace::new("empty"));
    }
}
