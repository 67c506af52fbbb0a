//! Host I/O request model.

use core::fmt;

use nssd_sim::{CkptError, CkptReader, CkptWriter, SimTime};

/// Host operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Read `len` bytes.
    Read,
    /// Write `len` bytes.
    Write,
}

impl IoOp {
    /// Whether this is a read.
    pub fn is_read(self) -> bool {
        matches!(self, IoOp::Read)
    }
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoOp::Read => "R",
            IoOp::Write => "W",
        })
    }
}

/// Unique identifier of an in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// A block-level host I/O request.
///
/// # Examples
///
/// ```
/// use nssd_host::{IoOp, IoRequest};
/// use nssd_sim::SimTime;
///
/// let r = IoRequest::new(IoOp::Read, 64 * 1024, 32 * 1024, SimTime::ZERO);
/// // A 32 KB read at offset 64 KB spans pages 4..6 with 16 KB pages.
/// assert_eq!(r.page_span(16 * 1024), (4, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoRequest {
    /// Operation.
    pub op: IoOp,
    /// Byte offset into the logical space.
    pub offset: u64,
    /// Length in bytes (nonzero).
    pub len: u32,
    /// Arrival time.
    pub at: SimTime,
}

impl IoRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(op: IoOp, offset: u64, len: u32, at: SimTime) -> Self {
        assert!(len > 0, "request length must be nonzero");
        IoRequest {
            op,
            offset,
            len,
            at,
        }
    }

    /// Serializes the request.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_u8(match self.op {
            IoOp::Read => 0,
            IoOp::Write => 1,
        });
        w.put_u64(self.offset);
        w.put_u32(self.len);
        w.put_time(self.at);
    }

    /// Minimum serialized size of one request, for pre-allocation caps.
    pub const CKPT_MIN_BYTES: usize = 1 + 8 + 4 + 8;

    /// Decodes a request saved by [`IoRequest::ckpt_save`].
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, an unknown operation tag, or a
    /// zero-length request.
    pub fn ckpt_load(r: &mut CkptReader) -> Result<IoRequest, CkptError> {
        let op = match r.take_u8()? {
            0 => IoOp::Read,
            1 => IoOp::Write,
            t => return Err(CkptError::Invalid(format!("unknown io op tag {t}"))),
        };
        let offset = r.take_u64()?;
        let len = r.take_u32()?;
        if len == 0 {
            return Err(CkptError::Invalid("zero-length request".into()));
        }
        let at = r.take_time()?;
        Ok(IoRequest {
            op,
            offset,
            len,
            at,
        })
    }

    /// One past the last byte the request touches.
    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }

    /// The `(first_page, page_count)` the request touches for a given page
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn page_span(&self, page_bytes: u32) -> (u64, u32) {
        assert!(page_bytes > 0);
        let first = self.offset / page_bytes as u64;
        let last = (self.offset + self.len as u64 - 1) / page_bytes as u64;
        (first, (last - first + 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_span_aligned() {
        let r = IoRequest::new(IoOp::Write, 0, 16 * 1024, SimTime::ZERO);
        assert_eq!(r.page_span(16 * 1024), (0, 1));
    }

    #[test]
    fn page_span_unaligned_straddles() {
        let r = IoRequest::new(IoOp::Read, 8 * 1024, 16 * 1024, SimTime::ZERO);
        assert_eq!(r.page_span(16 * 1024), (0, 2));
    }

    #[test]
    fn page_span_64k_request() {
        let r = IoRequest::new(IoOp::Read, 128 * 1024, 64 * 1024, SimTime::ZERO);
        assert_eq!(r.page_span(16 * 1024), (8, 4));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_length_rejected() {
        let _ = IoRequest::new(IoOp::Read, 0, 0, SimTime::ZERO);
    }

    #[test]
    fn op_display_and_predicates() {
        assert!(IoOp::Read.is_read());
        assert!(!IoOp::Write.is_read());
        assert_eq!(IoOp::Read.to_string(), "R");
        assert_eq!(RequestId(3).to_string(), "req3");
    }
}
