//! A stable discrete-event queue.
//!
//! Events fire in time order; ties break by insertion order, which makes
//! whole simulations deterministic given seeds. The paper assumes "every
//! join and departure event occurs at a unique point in time" with the
//! server ordering apparent ties (Section 2.1.1) — the insertion sequence
//! number plays that role here.
//!
//! # The calendar
//!
//! The queue is a static calendar over `[0, horizon]` divided into
//! fixed-width buckets, each a small vector kept sorted. Simulation time
//! only moves forward, so push and pop are `O(bucket occupancy)` —
//! amortized `O(1)` when events spread over the horizon, which is exactly
//! the engine's workload. Events past the horizon share one overflow
//! bucket (the engine stops at the first such event anyway). Because
//! every entry's `(time, seq)` key is unique, the pop order is a strict
//! total order; `tests::agrees_with_reference_model` pins it against a
//! sorted-vector reference model.

use crate::time::Time;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use sybil_sim::queue::EventQueue;
/// use sybil_sim::time::Time;
///
/// let mut q = EventQueue::with_horizon(Time(10.0), 64);
/// q.push(Time(2.0), "b");
/// q.push(Time(1.0), "a");
/// q.push(Time(2.0), "c");
/// assert_eq!(q.peek_key(), Some((Time(1.0), 1)));
/// assert_eq!(q.pop(), Some((Time(1.0), "a")));
/// assert_eq!(q.pop(), Some((Time(2.0), "b")));
/// assert_eq!(q.pop(), Some((Time(2.0), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    cal: Calendar<E>,
    seq: u64,
}

#[derive(Clone, Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// The calendar: fixed-width buckets over `[0, horizon]`, plus one
/// overflow bucket for times past the horizon.
///
/// Each bucket is a [`Bucket`]: an ascending-sorted vector consumed
/// through a head index. The engine's dominant pattern — pop the minimum,
/// then push a successor with the largest key in the bucket — is O(1) at
/// both ends (`items.push` / `head += 1`); only out-of-order pushes pay a
/// binary-search insert over the bucket's O(total / n_buckets) live
/// entries. Amortized O(1) for horizon-spread workloads.
#[derive(Clone, Debug)]
struct Calendar<E> {
    buckets: Vec<Bucket<E>>,
    /// Recycled slot vectors. Simulation time sweeps the bucket array once,
    /// so without recycling every bucket pays its own first-growth
    /// allocations mid-run — the single biggest allocation source in the
    /// engine's steady-state loop. Drained buckets donate their (cleared,
    /// capacity-bearing) vectors here; first pushes into fresh buckets take
    /// one back. Pre-seeded at construction so the active band of buckets
    /// never allocates, and bounded so retained memory stays O(band).
    spare: Vec<Vec<Option<Entry<E>>>>,
    /// Buckets per second (`n_buckets / horizon`).
    inv_width: f64,
    /// Index of the lowest possibly-nonempty bucket.
    cursor: usize,
    len: usize,
}

/// Spare-pool bound: covers the engine's active band of in-flight buckets
/// (peak pending events ≈ active sessions, spread over nearby buckets).
/// Donations beyond the bound are dropped — deallocation is not the
/// budgeted operation.
const SPARE_POOL: usize = 256;

/// Pre-seeded capacity of each spare vector: far above the mean bucket
/// occupancy the sizing in [`EventQueue::with_horizon`] targets (O(1) per
/// bucket), because same-time bursts (quantized trace timestamps, purge
/// cascades, adversary batches) pile up to peak-queue-length entries into
/// one bucket — engine peaks run ~100–200 for the macro scenarios. A
/// grown vector re-enters the pool on drain, so one outgrowth amortizes,
/// but the steady-state budget wants no outgrowth at all.
const SPARE_SLOT_CAP: usize = 256;

/// One calendar bucket: `slots[head..]` hold the live entries, ascending
/// by `(time, seq)`. Entries are taken out of their `Option` slot in O(1)
/// as the head advances; the dead prefix is reclaimed when the bucket
/// drains (buckets drain completely as simulation time passes them).
#[derive(Clone, Debug)]
struct Bucket<E> {
    slots: Vec<Option<Entry<E>>>,
    head: usize,
}

impl<E> Bucket<E> {
    fn live(&self) -> usize {
        self.slots.len() - self.head
    }

    fn push(&mut self, entry: Entry<E>) {
        match self.slots.last() {
            // Fast path: new bucket maximum (the monotone engine pattern)
            // or empty bucket.
            Some(last) if last.as_ref().expect("tail slot is live").key() > entry.key() => {
                let pos = self.slots[self.head..]
                    .partition_point(|e| e.as_ref().expect("live slot").key() < entry.key())
                    + self.head;
                self.slots.insert(pos, Some(entry));
            }
            _ => self.slots.push(Some(entry)),
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        let entry = self.slots.get_mut(self.head)?.take();
        self.head += 1;
        if self.head == self.slots.len() {
            // Drained: reset, keeping the allocation for reuse.
            self.slots.clear();
            self.head = 0;
        }
        entry
    }

    fn peek(&self) -> Option<&Entry<E>> {
        self.slots.get(self.head)?.as_ref()
    }
}

impl<E> Calendar<E> {
    fn new(horizon: Time, n_buckets: usize) -> Self {
        let n = n_buckets.max(1);
        // Seeding happens at construction, outside the engine's measured
        // steady-state span; SPARE_POOL × SPARE_SLOT_CAP slots is ~100 KiB
        // of Entry<E> capacity for engine-sized events.
        let spare_seed = SPARE_POOL.min(n);
        Calendar {
            buckets: (0..=n).map(|_| Bucket { slots: Vec::new(), head: 0 }).collect(),
            spare: (0..spare_seed).map(|_| Vec::with_capacity(SPARE_SLOT_CAP)).collect(),
            inv_width: n as f64 / horizon.as_secs().max(f64::MIN_POSITIVE),
            cursor: 0,
            len: 0,
        }
    }

    fn bucket_index(&self, at: Time) -> usize {
        // Times before 0 clamp to bucket 0, times past the horizon to the
        // overflow bucket (last index).
        let raw = at.as_secs().max(0.0) * self.inv_width;
        (raw as usize).min(self.buckets.len() - 1)
    }

    // `push` and `pop` are always inlined into the public wrappers. Left
    // to the optimizer, both stay out of line, which made the Figure-8
    // sweep's SybilControl and REMP cells, where queue traffic dominates,
    // ~15 % slower than inlined (interleaved A/B on one core of a 2-vCPU
    // Xeon VM).
    #[inline(always)]
    fn push(&mut self, entry: Entry<E>) {
        let idx = self.bucket_index(entry.at);
        // Pushes at or after the current simulation time are the norm, but
        // arbitrary interleavings stay correct: the cursor backs up.
        self.cursor = self.cursor.min(idx);
        let bucket = &mut self.buckets[idx];
        if bucket.slots.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                bucket.slots = spare;
            }
        }
        bucket.push(entry);
        self.len += 1;
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<Entry<E>> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.cursor].live() == 0 {
            self.cursor += 1;
        }
        self.len -= 1;
        let bucket = &mut self.buckets[self.cursor];
        let entry = bucket.pop();
        // Bucket::pop clears the slots on full drain; recycle the vector
        // into the spare pool so the next fresh bucket grows for free. The
        // cursor only moves forward, so a drained bucket behind it will
        // not see another push (out-of-order pushes that do back up the
        // cursor simply re-take a spare).
        if bucket.slots.is_empty() && bucket.slots.capacity() > 0 && self.spare.len() < SPARE_POOL {
            self.spare.push(std::mem::take(&mut bucket.slots));
        }
        entry
    }

    fn peek(&self) -> Option<&Entry<E>> {
        if self.len == 0 {
            return None;
        }
        self.buckets[self.cursor..].iter().find(|b| b.live() > 0).and_then(|b| b.peek())
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue for a simulation over `[0, horizon]`.
    ///
    /// `expected_events` sizes the bucket array (one bucket per expected
    /// event, clamped to a sane range) so that average bucket occupancy
    /// stays O(1) and push/pop are amortized constant-time.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive.
    pub fn with_horizon(horizon: Time, expected_events: usize) -> Self {
        assert!(horizon > Time::ZERO, "calendar queue needs a positive horizon");
        let n_buckets = expected_events.clamp(64, 65_536);
        EventQueue { cal: Calendar::new(horizon, n_buckets), seq: 0 }
    }

    /// Schedules `event` at time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.cal.push(Entry { at, seq, event });
    }

    /// Schedules `event` at time `at` with an explicit tie-breaking
    /// sequence number.
    ///
    /// This exists so schedulers can *stream* events into the queue lazily
    /// while reproducing the exact FIFO order an eager scheduler would have
    /// produced: the caller precomputes each event's sequence number and
    /// reserves the range via [`advance_seq_to`](Self::advance_seq_to).
    /// Pushing a seq at or above the reserved floor would collide with
    /// future [`push`](Self::push) assignments and panics.
    pub fn push_with_seq(&mut self, at: Time, seq: u64, event: E) {
        assert!(
            seq < self.seq,
            "push_with_seq: seq {seq} not below the reserved floor {}",
            self.seq
        );
        self.cal.push(Entry { at, seq, event });
    }

    /// Raises the internal sequence counter to at least `floor`, reserving
    /// `0..floor` for [`push_with_seq`](Self::push_with_seq).
    pub fn advance_seq_to(&mut self, floor: u64) {
        self.seq = self.seq.max(floor);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.cal.pop().map(|e| (e.at, e.event))
    }

    /// Removes and returns the earliest event together with its full
    /// `(time, seq)` ordering key.
    ///
    /// The merged (sharded) engine loop compares this key against the
    /// heads of external pre-ordered feeds, so it needs the sequence
    /// number [`pop`](Self::pop) discards.
    pub fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        self.cal.pop().map(|e| (e.at, e.seq, e.event))
    }

    /// Full `(time, seq)` ordering key of the earliest pending event.
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        self.cal.peek().map(|e| e.key())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue<E>() -> EventQueue<E> {
        EventQueue::with_horizon(Time(100.0), 64)
    }

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = queue();
        q.push(Time(3.0), 30);
        q.push(Time(1.0), 10);
        q.push(Time(1.0), 11);
        q.push(Time(2.0), 20);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![10, 11, 20, 30]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = queue();
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        q.push(Time(5.0), 0);
        assert_eq!(q.peek_key(), Some((Time(5.0), 0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn keyed_accessors_expose_seq() {
        let mut q = queue();
        q.push(Time(2.0), 20); // seq 0
        q.push(Time(1.0), 10); // seq 1
        q.push(Time(2.0), 21); // seq 2
        assert_eq!(q.peek_key(), Some((Time(1.0), 1)));
        assert_eq!(q.pop_keyed(), Some((Time(1.0), 1, 10)));
        assert_eq!(q.peek_key(), Some((Time(2.0), 0)));
        assert_eq!(q.pop_keyed(), Some((Time(2.0), 0, 20)));
        assert_eq!(q.pop_keyed(), Some((Time(2.0), 2, 21)));
        assert_eq!(q.pop_keyed(), None);
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = queue();
        q.push(Time(10.0), 1);
        q.push(Time(5.0), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(Time(7.0), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_with_seq_reproduces_eager_order() {
        // Eager: everything pushed up front.
        let mut eager = queue();
        for (t, e) in [(2.0, 0u32), (2.0, 1), (1.0, 2), (2.0, 3)] {
            eager.push(Time(t), e);
        }
        // Streaming: seqs 0..4 reserved, events fed in late and out of
        // seq order.
        let mut streaming = queue();
        streaming.advance_seq_to(4);
        streaming.push_with_seq(Time(1.0), 2, 2);
        assert_eq!(streaming.pop(), Some((Time(1.0), 2)));
        assert_eq!(eager.pop(), Some((Time(1.0), 2)));
        streaming.push_with_seq(Time(2.0), 3, 3);
        streaming.push_with_seq(Time(2.0), 0, 0);
        streaming.push_with_seq(Time(2.0), 1, 1);
        for _ in 0..3 {
            assert_eq!(streaming.pop(), eager.pop());
        }
        assert!(streaming.pop().is_none() && eager.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "not below the reserved floor")]
    fn push_with_seq_rejects_unreserved() {
        let mut q: EventQueue<()> = queue();
        q.push_with_seq(Time(1.0), 0, ());
    }

    #[test]
    fn handles_past_horizon_and_negative_times() {
        let mut q = EventQueue::with_horizon(Time(10.0), 64);
        q.push(Time(25.0), 2); // past the horizon → overflow bucket
        q.push(Time(-1.0), 0); // clamps to bucket 0
        q.push(Time(5.0), 1);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    /// Reference model: a sorted vector popped from the front. The queue
    /// must agree with it on interleaved push/pop sequences (FIFO
    /// tie-breaking included).
    #[test]
    fn agrees_with_reference_model() {
        // Deterministic pseudo-random op stream.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..50u64 {
            let mut q: EventQueue<u64> = EventQueue::with_horizon(Time(64.0), 128);
            let mut reference: Vec<(Time, u64, u64)> = Vec::new(); // (at, seq, payload)
            let mut seq = 0u64;
            let mut payload = 0u64;
            for _ in 0..400 {
                let r = next();
                if r % 3 != 0 || reference.is_empty() {
                    // Coarse times force plenty of exact ties.
                    let at = Time(((r / 7) % 64) as f64);
                    q.push(at, payload);
                    reference.push((at, seq, payload));
                    seq += 1;
                    payload += 1;
                } else {
                    reference.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
                    let (at, _, want) = reference.remove(0);
                    assert_eq!(q.pop(), Some((at, want)), "trial {trial}");
                }
                assert_eq!(q.len(), reference.len());
            }
            // Drain; both must agree to the end.
            reference.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            for (at, _, want) in reference {
                assert_eq!(q.pop(), Some((at, want)), "trial {trial}");
            }
            assert!(q.pop().is_none());
        }
    }
}
