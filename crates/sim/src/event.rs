//! Event scheduling: the engine's two-level calendar queue and the
//! binary-heap reference queue.
//!
//! Events are ordered by (timestamp, sequence number); the sequence number
//! makes processing order deterministic for simultaneous events (FIFO).
//! Two schedulers implement that contract:
//!
//! * [`CalendarQueue`] — the engine's scheduler. Every pending event lives
//!   in one slab; the queue threads slab indices onto FIFO lists at two
//!   granularities: 4,096 one-cycle slots for the current 4,096-cycle
//!   window, and a coarse wheel of 4,096 window-wide buckets behind them,
//!   a horizon of 16.7M cycles. Only events beyond the horizon wait in a
//!   binary heap of 24-byte keys. Push and pop are O(1) within the
//!   horizon, and neither allocates once the slab has grown to the peak
//!   number of pending events. In the Wind Tunnel discipline a processor
//!   runs ahead of global time and its messages arrive at its own clock
//!   plus the network latency, so bulk senders post deliveries up to a
//!   million cycles ahead: the coarse wheel keeps those off the heap.
//! * [`EventQueue`] — the original `BinaryHeap` scheduler, kept as the
//!   reference implementation the calendar is tested against and the
//!   baseline for the scheduler benches (`benches/scheduler.rs`).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

use crate::callback::SmallCall;
use crate::time::{Cycles, ProcId};

/// A scheduled simulator action.
pub enum Action {
    /// Re-poll the task of the given processor.
    Resume(ProcId),
    /// Run an arbitrary machine-model callback (message delivery,
    /// directory processing, ...). Small captures are stored inline —
    /// see [`SmallCall`].
    Call(SmallCall),
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Resume(p) => write!(f, "Resume({p})"),
            Action::Call(_) => f.write_str("Call(..)"),
        }
    }
}

/// One entry in the event queue.
#[derive(Debug)]
pub struct Event {
    /// When the action fires, in target cycles.
    pub time: Cycles,
    /// Tie-breaker for events at the same time (insertion order).
    pub seq: u64,
    /// What to do.
    pub action: Action,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic min-priority queue of [`Event`]s backed by a binary
/// heap. The reference scheduler: [`CalendarQueue`] must pop in exactly
/// this order, and the scheduler benches measure one against the other.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `action` at absolute time `time`.
    pub fn push(&mut self, time: Cycles, action: Action) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, action });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Lists per level: one-cycle slots in a window, windows in the wheel.
const SLOTS: usize = 4096;
/// `log2(SLOTS)`: a time's window is `time >> SHIFT`.
const SHIFT: u32 = SLOTS.trailing_zeros();
const MASK: u64 = SLOTS as u64 - 1;
/// End of a slab-index list.
const NIL: u32 = u32::MAX;

/// A pending event in the slab. Free entries are chained through `next`
/// and hold a placeholder action.
struct Node {
    time: Cycles,
    seq: u64,
    next: u32,
    action: Action,
}

/// A FIFO of slab indices. `tail` is meaningful only while `head != NIL`.
#[derive(Copy, Clone)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// One occupancy bit per list, one summary bit per 64-list word.
struct Occupancy {
    words: [u64; SLOTS / 64],
    summary: u64,
}

impl Occupancy {
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
        self.summary |= 1 << (i / 64);
    }

    fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
        if self.words[i / 64] == 0 {
            self.summary &= !(1 << (i / 64));
        }
    }

    /// The lowest occupied index.
    fn first(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = self.summary.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// The first occupied index at or after `start`, in circular order.
    fn next_from(&self, start: usize) -> Option<usize> {
        let (sw, sb) = (start / 64, start % 64);
        let here = self.words[sw] & (!0u64 << sb);
        if here != 0 {
            return Some(sw * 64 + here.trailing_zeros() as usize);
        }
        let later = self.summary & (!1u64 << sw);
        if later == 0 {
            // Wrap around: everything occupied lies before `start`.
            return self.first();
        }
        let w = later.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// A two-level calendar-queue scheduler: O(1) push and pop with the
/// exact (time, seq) pop order of [`EventQueue`].
///
/// Windows are aligned 4,096-cycle spans of time. The fine slots hold the
/// current window's events, one FIFO per cycle; the coarse wheel holds
/// the next 4,095 windows' events, one unsorted FIFO per window; the far
/// heap holds everything later. When the current window is exhausted the
/// queue steps to the next occupied window — or, with the wheel empty,
/// jumps straight to the far heap's earliest window — pulls the far
/// events that the new horizon now reaches into the wheel, and spreads
/// the new window's bucket over the fine slots.
///
/// Each fine slot stays sorted by sequence number without ever sorting:
/// a bucket receives its far-heap migrants all at once, in (time, seq)
/// order, the moment its window enters the horizon, and every direct push
/// after that carries a larger sequence number than any of them.
///
/// Two rules keep this exact, and the engine obeys both: sequence
/// numbers increase with every push, and no event is pushed earlier than
/// the last one popped.
pub struct CalendarQueue {
    /// Every event, pending or free.
    nodes: Vec<Node>,
    /// Head of the free-entry chain.
    free: u32,
    /// Pending events.
    len: usize,
    /// The window the fine slots hold (`time >> SHIFT`).
    window: u64,
    /// Time of the last popped event.
    now: Cycles,
    fine: Box<[List; SLOTS]>,
    fine_occ: Occupancy,
    coarse: Box<[List; SLOTS]>,
    coarse_occ: Occupancy,
    /// Events beyond the coarse wheel's horizon, as `(time, seq, index)`.
    far: BinaryHeap<Reverse<(Cycles, u64, u32)>>,
}

impl fmt::Debug for CalendarQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("window", &self.window)
            .field("slab", &self.nodes.len())
            .field("far", &self.far.len())
            .finish()
    }
}

impl Default for CalendarQueue {
    fn default() -> Self {
        let lists = || Box::new([EMPTY; SLOTS]);
        let occupancy = || Occupancy {
            words: [0; SLOTS / 64],
            summary: 0,
        };
        CalendarQueue {
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            window: 0,
            now: 0,
            fine: lists(),
            fine_occ: occupancy(),
            coarse: lists(),
            coarse_occ: occupancy(),
            far: BinaryHeap::new(),
        }
    }
}

/// Appends slab entry `i` to `list`.
fn append(nodes: &mut [Node], list: &mut List, i: u32) {
    nodes[i as usize].next = NIL;
    if list.head == NIL {
        list.head = i;
    } else {
        nodes[list.tail as usize].next = i;
    }
    list.tail = i;
}

impl CalendarQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `(time, seq, action)`. `seq` must exceed every earlier
    /// push's sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last popped event.
    pub fn push(&mut self, time: Cycles, seq: u64, action: Action) {
        assert!(
            time >= self.now,
            "event at {time} precedes the last popped event at {}",
            self.now
        );
        let node = Node {
            time,
            seq,
            next: NIL,
            action,
        };
        let i = if self.free == NIL {
            let i = self.nodes.len();
            assert!(i < NIL as usize, "more than 2^32 - 1 pending events");
            self.nodes.push(node);
            i as u32
        } else {
            let i = self.free;
            let slot = &mut self.nodes[i as usize];
            self.free = slot.next;
            *slot = node;
            i
        };
        self.len += 1;
        self.place(i, time, seq);
    }

    /// Files slab entry `i` on the level that covers `time`.
    fn place(&mut self, i: u32, time: Cycles, seq: u64) {
        let ahead = (time >> SHIFT) - self.window;
        if ahead == 0 {
            let s = (time & MASK) as usize;
            append(&mut self.nodes, &mut self.fine[s], i);
            self.fine_occ.set(s);
        } else if ahead < SLOTS as u64 {
            let b = ((time >> SHIFT) & MASK) as usize;
            append(&mut self.nodes, &mut self.coarse[b], i);
            self.coarse_occ.set(b);
        } else {
            self.far.push(Reverse((time, seq, i)));
        }
    }

    /// Moves to the next window that holds events: the next occupied
    /// coarse bucket, or the far heap's earliest window when the wheel is
    /// empty. Returns `false` when the queue is empty.
    fn advance(&mut self) -> bool {
        let start = ((self.window + 1) & MASK) as usize;
        self.window = match self.coarse_occ.next_from(start) {
            Some(b) => self.window + ((b as u64).wrapping_sub(self.window) & MASK),
            None => match self.far.peek() {
                Some(Reverse((t, _, _))) => t >> SHIFT,
                None => return false,
            },
        };
        // Spread the new window's bucket over the fine slots, in order.
        let b = (self.window & MASK) as usize;
        let mut i = std::mem::replace(&mut self.coarse[b], EMPTY).head;
        self.coarse_occ.clear(b);
        while i != NIL {
            let next = self.nodes[i as usize].next;
            let s = (self.nodes[i as usize].time & MASK) as usize;
            append(&mut self.nodes, &mut self.fine[s], i);
            self.fine_occ.set(s);
            i = next;
        }
        // Far events the new horizon reaches, in (time, seq) order.
        while let Some(&Reverse((t, seq, i))) = self.far.peek() {
            if (t >> SHIFT) - self.window >= SLOTS as u64 {
                break;
            }
            self.far.pop();
            self.place(i, t, seq);
        }
        true
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let s = match self.fine_occ.first() {
            Some(s) => s,
            None if self.advance() => self.fine_occ.first().expect("advance fills a slot"),
            None => return None,
        };
        let list = &mut self.fine[s];
        let i = list.head;
        let node = &mut self.nodes[i as usize];
        list.head = node.next;
        if list.head == NIL {
            self.fine_occ.clear(s);
        }
        let action = std::mem::replace(&mut node.action, Action::Resume(ProcId::new(0)));
        let (time, seq) = (node.time, node.seq);
        node.next = self.free;
        self.free = i;
        self.len -= 1;
        self.now = time;
        Some(Event { time, seq, action })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Action::Resume(ProcId::new(0)));
        q.push(10, Action::Resume(ProcId::new(1)));
        q.push(20, Action::Resume(ProcId::new(2)));
        let order: Vec<Cycles> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(100, Action::Resume(ProcId::new(i)));
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.action {
                Action::Resume(p) => p.index(),
                Action::Call(_) => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, Action::Resume(ProcId::new(0)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    /// The coarse wheel's reach: events this far ahead of the current
    /// window's start go to the far heap.
    const HORIZON: u64 = (SLOTS * SLOTS) as u64;

    fn resume_index(e: &Event) -> usize {
        match e.action {
            Action::Resume(p) => p.index(),
            Action::Call(_) => unreachable!("the tests schedule only resumes"),
        }
    }

    /// The delay for one generated push, by `kind`: the cases the two
    /// levels and the far heap must agree on with the reference heap.
    fn delay(kind: u64, r: u64, now: Cycles, earlier: &[Cycles]) -> Cycles {
        match kind {
            // Same-cycle cascades.
            0 => 0,
            // Network-latency hops.
            1 => 100,
            // Window edges and their multiples: m * 4096 + {-1, 0, +1}.
            2 => (1 + (r / 3) % 8) * SLOTS as u64 - 1 + r % 3,
            // The horizon edge, and jumps beyond it.
            3 => HORIZON - 1 + r % 3,
            4 => HORIZON + r % (4 * HORIZON),
            // EM3D-MP's bulk sends: up to a million cycles ahead.
            5 => 8_192 + r % 1_000_000,
            // An earlier push's exact time: equal-time events reaching
            // one slot from different levels (a far-heap migrant and the
            // later pushes that must pop after it).
            6 if !earlier.is_empty() => {
                let recent = earlier.len().min(32);
                earlier[earlier.len() - 1 - r as usize % recent].saturating_sub(now)
            }
            _ => r % 300,
        }
    }

    /// Drives the reference [`EventQueue`] and a [`CalendarQueue`]
    /// through the same schedule: each op pushes one event at `now +
    /// delay(kind, r)` and then pops `pops` events. Asserts identical pop
    /// order and payloads, and that the slab never outgrows the peak
    /// number of pending events.
    fn lockstep(ops: &[(u64, u64, usize)]) {
        let mut reference = EventQueue::new();
        let mut cal = CalendarQueue::new();
        let mut now = 0;
        let mut peak = 0;
        let mut earlier = Vec::new();
        for (seq, &(kind, r, pops)) in (0u64..).zip(ops) {
            let t = now + delay(kind % 8, r, now, &earlier);
            let p = ProcId::new(seq as usize % 1024);
            reference.push(t, Action::Resume(p));
            cal.push(t, seq, Action::Resume(p));
            earlier.push(t);
            peak = peak.max(cal.len());
            for _ in 0..pops {
                now = pop_both(&mut reference, &mut cal).unwrap_or(now);
            }
            assert_eq!(reference.len(), cal.len());
        }
        while pop_both(&mut reference, &mut cal).is_some() {}
        assert!(cal.is_empty());
        assert_eq!(cal.nodes.len(), peak, "the slab outgrew the peak");
    }

    /// Pops both queues, asserts they agree, and returns the event time.
    fn pop_both(reference: &mut EventQueue, cal: &mut CalendarQueue) -> Option<Cycles> {
        match (reference.pop(), cal.pop()) {
            (None, None) => None,
            (Some(a), Some(b)) => {
                assert_eq!((a.time, a.seq), (b.time, b.seq), "pop order diverged");
                assert_eq!(resume_index(&a), resume_index(&b));
                Some(a.time)
            }
            (a, b) => panic!(
                "queues disagree on emptiness: reference={:?} calendar={:?}",
                a.map(|e| e.time),
                b.map(|e| e.time)
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random schedules over every delay class, with pop counts that
        /// let the queue drain (sparse re-anchoring on the far heap) or
        /// pile up (long coarse buckets).
        #[test]
        fn calendar_matches_heap_order(
            ops in proptest::collection::vec((0u64..8, 0u64..u32::MAX as u64, 0usize..3), 1..1500),
        ) {
            lockstep(&ops);
        }
    }

    #[test]
    fn calendar_matches_heap_order_on_window_edges() {
        // Every window-edge delay, from the cursor at every phase of the
        // first window.
        let ops: Vec<(u64, u64, usize)> = (0..4_096 * 3)
            .map(|i| (if i % 7 == 0 { 0 } else { 2 }, i, (i % 5 == 0) as usize))
            .collect();
        lockstep(&ops);
    }

    #[test]
    fn calendar_handles_same_cycle_cascades() {
        // Events pushed at the exact cycle being drained must pop FIFO
        // within that cycle, like the heap.
        let mut q = CalendarQueue::new();
        q.push(100, 0, Action::Resume(ProcId::new(0)));
        q.push(100, 1, Action::Resume(ProcId::new(1)));
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.seq), (100, 0));
        // A cascade: while at t=100, schedule more work for t=100.
        q.push(100, 2, Action::Resume(ProcId::new(2)));
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.seq), (100, 1));
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.seq), (100, 2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_jumps_sparse_gaps_through_the_far_heap() {
        let mut q = CalendarQueue::new();
        q.push(7, 0, Action::Resume(ProcId::new(0)));
        q.push(1_000_000_000, 1, Action::Resume(ProcId::new(1)));
        q.push(1_000_000_000 + HORIZON, 2, Action::Resume(ProcId::new(2)));
        assert_eq!(q.pop().unwrap().time, 7);
        assert_eq!(q.far.len(), 2);
        assert_eq!(q.pop().unwrap().time, 1_000_000_000);
        assert_eq!(q.window, 1_000_000_000 >> SHIFT);
        assert_eq!(q.pop().unwrap().time, 1_000_000_000 + HORIZON);
        assert!(q.is_empty());
    }

    #[test]
    fn far_migrants_pop_before_later_pushes_to_their_cycle() {
        let mut q = CalendarQueue::new();
        // seq 0 waits on the far heap (beyond the horizon from window
        // 0); seqs 1 and 2 go to the fine slots and the coarse wheel.
        let t = HORIZON + 5;
        q.push(t, 0, Action::Resume(ProcId::new(0)));
        q.push(10, 1, Action::Resume(ProcId::new(1)));
        q.push(SLOTS as u64, 2, Action::Resume(ProcId::new(2)));
        assert_eq!(q.pop().unwrap().seq, 1);
        // Popping seq 2 steps to window 1, whose horizon just reaches
        // `t`'s window: seq 0 migrates into the wheel's last bucket.
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.far.is_empty());
        // A later push to the same cycle must still pop after it.
        q.push(t, 3, Action::Resume(ProcId::new(3)));
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert_eq!((a.time, a.seq), (t, 0));
        assert_eq!((b.time, b.seq), (t, 3));
    }

    #[test]
    fn freed_slab_entries_are_reused() {
        let mut q = CalendarQueue::new();
        let mut seq = 0;
        for round in 0..10u64 {
            // Fine, coarse and far events, all popped before the next
            // round: the slab stays at one round's worth.
            for k in 0..64u64 {
                let t = q.now + [k, 5_000 * k, 2 * HORIZON + k][(k % 3) as usize];
                q.push(t, seq, Action::Resume(ProcId::new(k as usize)));
                seq += 1;
            }
            while q.pop().is_some() {}
            assert_eq!(q.nodes.len(), 64, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "precedes the last popped event")]
    fn pushing_behind_the_last_pop_is_rejected() {
        let mut q = CalendarQueue::new();
        q.push(50, 0, Action::Resume(ProcId::new(0)));
        q.pop();
        q.push(49, 1, Action::Resume(ProcId::new(0)));
    }
}
