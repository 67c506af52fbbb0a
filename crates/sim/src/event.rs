//! Discrete-event queue.
//!
//! [`EventQueue`] is a priority queue of `(time, event)` pairs, popped in
//! nondecreasing time order. Events scheduled for the same instant are popped
//! in the order they were scheduled (a strict FIFO tiebreak), which makes the
//! whole simulation deterministic for a fixed input.
//!
//! Storage is the hierarchical timing wheel in [`crate::wheel`] — O(1)
//! amortized schedule/pop on dense near-horizon traffic, with
//! [`EventQueue::pop_batch`] draining a whole same-instant batch in one
//! bucket access. The checkpoint wire format predates the wheel (events are
//! serialized in pop order) and is unchanged: checkpoints written by the
//! old binary-heap queue load into the wheel byte-compatibly.

use crate::wheel::{Key, TimingWheel};
use crate::{CkptError, CkptReader, CkptWriter, SimTime};

/// A deterministic discrete-event priority queue.
///
/// # Examples
///
/// ```
/// use nssd_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(20), "late");
/// q.schedule(SimTime::from_ns(10), "early");
/// q.schedule(SimTime::from_ns(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimingWheel<E>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = Key {
            at,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.wheel.insert(key, event);
    }

    /// Schedules `event` to fire `delay` after `now`.
    ///
    /// The addition saturates at [`SimTime::MAX`]: a degenerate far-future
    /// delay parks at the end of time instead of wrapping into the past
    /// (which would silently reorder the simulation).
    pub fn schedule_after(&mut self, now: SimTime, delay: SimTime, event: E) {
        let at = now.saturating_add(delay);
        self.schedule(at, event);
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.wheel.pop().map(|(k, e)| (k.at, e))
    }

    /// Drains *every* event pending at the earliest instant into `out`
    /// (preserving the FIFO tiebreak order) and returns that instant.
    ///
    /// Events scheduled for the same instant while the batch is being
    /// handled are picked up by the next call, exactly as repeated
    /// [`EventQueue::pop`] calls would interleave them. `out` is appended
    /// to, not cleared.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        self.wheel.pop_batch(out)
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Drops all pending events (bucket capacity is retained).
    pub fn clear(&mut self) {
        self.wheel.clear();
    }

    /// Serializes the queue. Pending events are written in pop order
    /// (time, then FIFO sequence), each encoded by `enc`; the sequence
    /// counters are saved so a restored queue schedules future events with
    /// exactly the tiebreak ordering the continuous run would have used.
    ///
    /// The bytes are a pure function of the pending `(time, seq, event)`
    /// set — independent of wheel internals (cursor position, bucket
    /// layout), so save ∘ load ∘ save is the identity and heap-era
    /// checkpoints stay compatible.
    pub fn ckpt_save(&self, w: &mut CkptWriter, mut enc: impl FnMut(&mut CkptWriter, &E)) {
        w.put_u64(self.next_seq);
        w.put_u64(self.scheduled_total);
        let mut entries: Vec<(Key, &E)> = Vec::with_capacity(self.wheel.len());
        self.wheel.for_each(|k, e| entries.push((*k, e)));
        entries.sort_by_key(|(k, _)| *k);
        w.put_usize(entries.len());
        for (key, event) in entries {
            w.put_time(key.at);
            enc(w, event);
        }
    }

    /// Restores the queue from [`EventQueue::ckpt_save`] output, decoding
    /// each event with `dec`. Any existing pending events are dropped.
    ///
    /// Re-scheduling in saved pop order assigns fresh sequence numbers
    /// `0..n` that preserve the relative FIFO order; the saved `next_seq`
    /// (≥ n by construction) is then restored so events scheduled after
    /// resume sort behind all restored ones, exactly as in the continuous
    /// run.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, unsorted event times, or sequence
    /// counters inconsistent with the pending-event count.
    pub fn ckpt_load(
        &mut self,
        r: &mut CkptReader,
        mut dec: impl FnMut(&mut CkptReader) -> Result<E, CkptError>,
    ) -> Result<(), CkptError> {
        let next_seq = r.take_u64()?;
        let scheduled_total = r.take_u64()?;
        let n = r.take_count(8)?;
        if (n as u64) > next_seq || (n as u64) > scheduled_total {
            return Err(CkptError::Invalid(format!(
                "{n} pending events but only {next_seq} ever scheduled"
            )));
        }
        self.wheel.clear();
        self.next_seq = 0;
        self.scheduled_total = 0;
        let mut prev = SimTime::ZERO;
        for _ in 0..n {
            let at = r.take_time()?;
            if at < prev {
                return Err(CkptError::Invalid("event times not sorted".into()));
            }
            prev = at;
            let event = dec(r)?;
            self.schedule(at, event);
        }
        self.next_seq = next_seq;
        self.scheduled_total = scheduled_total;
        Ok(())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 3, 9, 1, 7] {
            q.schedule(SimTime::from_ns(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn fifo_tiebreak_at_same_time() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(4);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_offsets_from_now() {
        let mut q = EventQueue::new();
        q.schedule_after(SimTime::from_ns(10), SimTime::from_ns(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(15)));
    }

    #[test]
    fn schedule_after_saturates_instead_of_wrapping() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(100), "normal");
        // A delay that would overflow u64 must park at SimTime::MAX, never
        // wrap around into the past and pop first.
        q.schedule_after(SimTime::from_ns(u64::MAX - 10), SimTime::from_ns(50), "far");
        assert_eq!(q.pop(), Some((SimTime::from_ns(100), "normal")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_drains_one_instant_and_interleaves_with_schedule() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 'a');
        q.schedule(SimTime::from_ns(10), 'b');
        q.schedule(SimTime::from_ns(20), 'c');
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_ns(10)));
        assert_eq!(batch, vec!['a', 'b']);
        // A same-tick event scheduled after the drain lands in the next
        // batch at the same instant — exactly the pop() interleave.
        q.schedule(SimTime::from_ns(10), 'd');
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_ns(10)));
        assert_eq!(batch, vec!['d']);
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_ns(20)));
        assert_eq!(batch, vec!['c']);
        assert_eq!(q.pop_batch(&mut batch), None);
    }

    #[test]
    fn ckpt_round_trip_preserves_order_and_counters() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 3, 3, 9, 3, 1] {
            q.schedule(SimTime::from_ns(t), t as u32);
        }
        q.pop(); // consume one so next_seq > len
        let mut w = CkptWriter::new();
        q.ckpt_save(&mut w, |w, e| w.put_u32(*e));
        let bytes = w.into_bytes();

        let mut back: EventQueue<u32> = EventQueue::new();
        let mut r = CkptReader::new(&bytes);
        back.ckpt_load(&mut r, |r| r.take_u32()).unwrap();
        r.finish().unwrap();

        assert_eq!(back.scheduled_total(), q.scheduled_total());
        // Future events must sort behind restored same-time ones.
        back.schedule(SimTime::from_ns(3), 777);
        q.schedule(SimTime::from_ns(3), 777);
        let a: Vec<_> = std::iter::from_fn(|| back.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn ckpt_save_is_canonical_after_partial_drain() {
        // The serialized form must depend only on the pending set, not on
        // how far the wheel has advanced or cascaded: a hot, partially
        // drained queue and a fresh queue holding the same remainder must
        // serialize identically.
        let mut hot = EventQueue::new();
        let times = [7u64, 7, 300, 5_000, 5_000, 90_000, 1 << 33];
        for &t in &times {
            hot.schedule(SimTime::from_ns(t), t as u32);
        }
        for _ in 0..3 {
            hot.pop(); // drain through a cascade or two
        }
        let mut w = CkptWriter::new();
        hot.ckpt_save(&mut w, |w, e| w.put_u32(*e));
        let hot_bytes = w.into_bytes();

        let mut cold: EventQueue<u32> = EventQueue::new();
        let mut r = CkptReader::new(&hot_bytes);
        cold.ckpt_load(&mut r, |r| r.take_u32()).unwrap();
        let mut w = CkptWriter::new();
        cold.ckpt_save(&mut w, |w, e| w.put_u32(*e));
        assert_eq!(w.into_bytes(), hot_bytes);
    }

    #[test]
    fn ckpt_load_rejects_inconsistent_counters() {
        let mut w = CkptWriter::new();
        w.put_u64(0); // next_seq
        w.put_u64(0); // scheduled_total
        w.put_u64(1); // one pending event...
        w.put_u64(5); // ...at t=5
        w.put_u32(9);
        let bytes = w.into_bytes();
        let mut q: EventQueue<u32> = EventQueue::new();
        let err = q.ckpt_load(&mut CkptReader::new(&bytes), |r| r.take_u32());
        assert!(err.is_err());
    }

    #[test]
    fn interleaved_schedule_and_pop_preserve_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(30), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_ns(20), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn scheduling_into_the_past_still_pops_in_key_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(100), "first");
        assert_eq!(q.pop().unwrap().1, "first");
        // The engine never schedules before the last popped time, but the
        // public API tolerates it with exact (time, seq) ordering.
        q.schedule(SimTime::from_ns(40), "past-b");
        q.schedule(SimTime::from_ns(20), "past-a");
        q.schedule(SimTime::from_ns(200), "future");
        assert_eq!(q.pop().unwrap().1, "past-a");
        assert_eq!(q.pop().unwrap().1, "past-b");
        assert_eq!(q.pop().unwrap().1, "future");
    }
}
