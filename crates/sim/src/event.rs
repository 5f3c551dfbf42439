//! The discrete-event core: timestamped events with a deterministic
//! total order (time, then insertion sequence).
//!
//! A **hierarchical timer wheel** implements that order (see DESIGN.md
//! §7): O(1) pushes, pops amortized O(levels), each tick sorted by
//! sequence number as it is drained. Its slots are linked lists through
//! one node slab, so scheduling allocates nothing once the slab has
//! grown to the peak number of pending events. The original binary heap
//! survives only as the test-only reference this module's tests check
//! the wheel against.
//!
//! Invocation arrivals never enter the queue. The engine reads them from
//! the time-sorted trace stream and merges them in front of the queue
//! with a **bounded peek**, [`EventQueue::peek_time_until`], which never
//! advances the wheel past the next arrival, so that arrival's handlers
//! can still schedule at its own tick.
//!
//! The queue delivers every event it links. An event whose container
//! moved on since it was scheduled (reused, re-armed, repurposed or
//! removed) is stale, and the engine's handlers turn it into a no-op by
//! checking its epoch against the live container; the queue itself
//! never inspects epochs except to re-arm a timer in place.
//!
//! Per pool slot the queue remembers the container's pending
//! `IdleTimeout` node, so a keep-alive re-arm is **deferred in place**:
//! when a container goes idle again while the timer of its previous
//! idle period is still pending — stale, and no later than the new
//! deadline — the push overwrites that node's event instead of linking
//! a new one. The node keeps its place in the wheel, and when the slot
//! walk reaches it there, it is relinked at its event's own time. This
//! is the lazy reset of Varghese & Lauck's timing wheels: every warm
//! start's completion re-arms its container's timer, and without it
//! each re-arm would push a new event and leave the old one to be
//! delivered as a no-op.

use std::collections::VecDeque;

use rainbowcake_core::time::Instant;
use rainbowcake_core::types::{ContainerId, FunctionId};

/// Everything that can happen in the simulated platform.
///
/// Kinds are plain value types (`Copy`), so draining a whole tick into
/// a reusable scratch buffer recycles allocations trivially — the
/// buffer's capacity is the only heap state involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An invocation of `function` arrives. The engine builds these from
    /// its arrival stream; they are never scheduled on the queue.
    Arrival {
        /// Invoked function.
        function: FunctionId,
    },
    /// A container finished initializing (cold start, partial warm
    /// start, or pre-warm). The engine ignores it if `epoch` no longer
    /// matches the container (it was repurposed).
    InitComplete {
        /// The container.
        container: ContainerId,
        /// Epoch the event was scheduled in.
        epoch: u64,
    },
    /// A running container finished executing its invocation.
    ExecComplete {
        /// The container.
        container: ContainerId,
    },
    /// An idle container's keep-alive TTL expired.
    IdleTimeout {
        /// The container.
        container: ContainerId,
        /// Epoch the TTL was armed in; the engine ignores stale epochs.
        epoch: u64,
    },
    /// A pre-warm timer scheduled by the policy fired (Alg. 1).
    PrewarmFire {
        /// Function to consider pre-warming.
        function: FunctionId,
    },
    /// A payload-free wake-up armed by the engine's lazy ladder
    /// settlement (DESIGN.md §12): it fires at the earliest scheduled
    /// downgrade boundary while invocations are queued, so the memory a
    /// downgrade releases admits them at the same instant the eager
    /// chain would have. Deliberately container-free — the container
    /// whose boundary armed it may be reused meanwhile, but *another*
    /// container's boundary may still need the wake. A wake with nothing
    /// to do is a harmless no-op.
    LadderWake,
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: Instant,
    /// Monotone sequence number breaking time ties deterministically.
    pub seq: u64,
    /// What happens.
    pub kind: EventKind,
}

/// Bits of the slot index at each wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. 11 levels of 6 bits cover 66 bits — the entire `u64`
/// microsecond range — so no separate overflow list is needed.
const LEVELS: usize = 11;

/// End-of-list marker for node links and empty slots.
const NIL: u32 = u32::MAX;

/// A slab cell: one pending event plus the link to the next node of the
/// list it is on (its wheel slot's FIFO, or the free list).
#[derive(Debug, Clone, Copy)]
struct Node {
    event: Event,
    next: u32,
}

/// A wheel slot: a FIFO list of slab nodes in push order.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        head: NIL,
        tail: NIL,
    };
}

/// One wheel level: 64 slots plus an occupancy bitmap so the lowest
/// non-empty slot is a single `trailing_zeros`.
#[derive(Debug)]
struct Level {
    occupied: u64,
    slots: [Slot; SLOTS],
}

/// A hierarchical timer wheel over absolute microsecond timestamps.
///
/// Invariants (see DESIGN.md §7):
/// * `current` holds exactly the events whose time equals `cursor`, in
///   ascending `seq` order;
/// * every node stored in a wheel slot sits at the time it was last
///   linked at, its *link time*: no later than its event's time, and
///   later than `cursor`. It lives at the level of the *highest* 6-bit
///   group in which its link time differs from `cursor`, in the slot
///   named by the link time's group value. Link and event time differ
///   only after an in-place re-arm ([`EventQueue`]'s deferral).
///
/// Slot events live in one node slab; a slot is a linked list through
/// it, and vacated nodes go on a free list. A push takes a free node, a
/// cascade relinks each node at its event's time in place, and a drain
/// frees it, so the slab only grows to the peak number of pending
/// events and the steady state allocates nothing.
///
/// Pushes are O(1); each event cascades down at most `LEVELS - 1` times
/// before popping, plus one relink per deferral it absorbed, so pops
/// are amortized O(`LEVELS`).
#[derive(Debug)]
struct Wheel {
    levels: Vec<Level>,
    /// Storage for every event held in a slot.
    nodes: Vec<Node>,
    /// Head of the list of vacated `nodes` (LIFO).
    free: u32,
    /// Events firing at exactly `cursor`, in seq order.
    current: VecDeque<Event>,
    /// The wheel's time frontier in microseconds. A bounded advance
    /// never moves it past its limit, so it may lag behind the engine's
    /// clock.
    cursor: u64,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            levels: (0..LEVELS)
                .map(|_| Level {
                    occupied: 0,
                    slots: [Slot::EMPTY; SLOTS],
                })
                .collect(),
            nodes: Vec::new(),
            free: NIL,
            current: VecDeque::new(),
            cursor: 0,
        }
    }

    /// Schedules `event`. Returns the slab node holding it, or `None`
    /// if it fires at `cursor` and went straight to `current`.
    fn push(&mut self, event: Event) -> Option<u32> {
        let t = event.time.as_micros();
        debug_assert!(t >= self.cursor, "cannot schedule into the past");
        if t == self.cursor {
            self.insert_current(event);
            return None;
        }
        let node = match self.free {
            NIL => {
                assert!(
                    self.nodes.len() < NIL as usize,
                    "timer wheel node slab exhausted"
                );
                self.nodes.push(Node { event, next: NIL });
                (self.nodes.len() - 1) as u32
            }
            node => {
                self.free = self.nodes[node as usize].next;
                self.nodes[node as usize].event = event;
                node
            }
        };
        self.link(node, t);
        Some(node)
    }

    /// Re-arms a pending `IdleTimeout` in place: if `node` holds one for
    /// `event`'s container at an older epoch, firing no later than
    /// `event`, its event is overwritten with `event` and `true` is
    /// returned. The node keeps its slot, which lies at or before the
    /// new time, and the slot walk relinks it at that time when it gets
    /// there.
    fn rearm(&mut self, node: u32, event: &Event) -> bool {
        if node == NIL {
            return false;
        }
        let pending = &mut self.nodes[node as usize].event;
        let (
            EventKind::IdleTimeout { container, epoch },
            EventKind::IdleTimeout {
                container: new_container,
                epoch: new_epoch,
            },
        ) = (pending.kind, event.kind)
        else {
            return false;
        };
        if container == new_container && epoch < new_epoch && pending.time <= event.time {
            *pending = *event;
            true
        } else {
            false
        }
    }

    /// Adds an event at exactly `cursor` to `current`, keeping it
    /// seq-sorted. Runtime seqs are monotone, but a ladder-band event
    /// pushed earlier at this tick must stay behind a runtime event
    /// pushed after it. When seqs arrive in order the partition point is
    /// `len()`, so this is a `push_back`.
    fn insert_current(&mut self, event: Event) {
        let at = self.current.partition_point(|e| e.seq < event.seq);
        self.current.insert(at, event);
    }

    /// Appends `node`, whose event fires at `t > cursor`, to the tail of
    /// its slot's list.
    fn link(&mut self, node: u32, t: u64) {
        let level = (u64::BITS - 1 - (t ^ self.cursor).leading_zeros()) / SLOT_BITS;
        let slot = (t >> (SLOT_BITS * level)) as usize & (SLOTS - 1);
        self.nodes[node as usize].next = NIL;
        let lvl = &mut self.levels[level as usize];
        let list = &mut lvl.slots[slot];
        match list.tail {
            NIL => list.head = node,
            tail => self.nodes[tail as usize].next = node,
        }
        list.tail = node;
        lvl.occupied |= 1 << slot;
    }

    /// Returns `node` to the free list, and forgets it as its
    /// container's pending timer if `timers` still names it.
    fn release(&mut self, node: u32, timers: &mut [u32]) {
        if let EventKind::IdleTimeout { container, .. } = self.nodes[node as usize].event.kind {
            if let Some(timer) = timers.get_mut(container.slot()) {
                if *timer == node {
                    *timer = NIL;
                }
            }
        }
        self.nodes[node as usize].next = self.free;
        self.free = node;
    }

    /// Advances `cursor` towards the earliest pending timestamp,
    /// cascading coarser slots down as needed, but never past `limit`:
    /// a slot is opened only if its window starts at or before `limit`.
    /// Returns whether the head tick is at or before `limit`; on `true`,
    /// `current` is non-empty and holds it. On `false` every pending
    /// event is later than `limit`, and `cursor <= limit` if it moved, so
    /// events may still be pushed at `limit`.
    fn advance(&mut self, limit: u64, timers: &mut [u32], stats: &mut QueueStats) -> bool {
        loop {
            if !self.current.is_empty() {
                return self.cursor <= limit;
            }
            let Some(level) = (0..LEVELS).find(|&l| self.levels[l].occupied != 0) else {
                return false;
            };
            let lvl = &mut self.levels[level];
            let slot = lvl.occupied.trailing_zeros();
            let shift = SLOT_BITS * level as u32;
            // The slot's window start: the cursor with this level's
            // group set to `slot` and every finer group cleared. It
            // bounds every pending link time, and so every pending
            // event, from below.
            let low_mask = 1u64
                .checked_shl(shift + SLOT_BITS)
                .map_or(u64::MAX, |v| v - 1);
            let start = (self.cursor & !low_mask) | ((slot as u64) << shift);
            if start > limit {
                return false;
            }
            lvl.occupied &= !(1 << slot);
            let mut node = std::mem::replace(&mut lvl.slots[slot as usize], Slot::EMPTY).head;
            self.cursor = start;
            // Each node's event fires now, or lies later: in a finer
            // slot of this window, or — for a node a re-arm deferred in
            // place, level 0 included — anywhere beyond it. Either way
            // it is relinked at its own time.
            while node != NIL {
                let Node { event, next } = self.nodes[node as usize];
                let t = event.time.as_micros();
                debug_assert!(t >= self.cursor, "a node sits at or before its event");
                if t == self.cursor {
                    self.current.push_back(event);
                    self.release(node, timers);
                } else {
                    stats.cascade_moves += 1;
                    self.link(node, t);
                }
                node = next;
            }
            // A slot's list is in link order, which is not seq order: a
            // ladder event (high band) can be linked before runtime-band
            // events of the same tick, and a re-armed node carries the
            // seq of its latest push. This sort is what puts the tick in
            // seq order.
            self.current
                .make_contiguous()
                .sort_unstable_by_key(|e| e.seq);
        }
    }
}

/// First sequence number of the ladder band: [`EventKind::LadderWake`]
/// wakes, the test-only eager oracle's rung timers included, sort
/// *after* every runtime event sharing their tick (events the engine
/// schedules while running draw seqs from 0 up). A ladder boundary at instant `b` therefore
/// becomes visible strictly after all the tick-`b` work that was
/// scheduled before it — the same within-tick position the eager
/// downgrade chain gives its re-armed timers — so the lazy schedule and
/// that oracle order identically by construction. Arrivals never enter
/// the queue; the engine hands a tick's arrivals to its handlers before
/// the queue's events. 2^60 leaves both bands room for a quintillion
/// events.
const LADDER_SEQ_BASE: u64 = 1 << 60;

/// Work counters of an [`EventQueue`]. They are always on: each is a
/// plain increment on a path that already touches the event.
///
/// Every pushed event is eventually delivered by a drain, so once the
/// queue is empty `pushes` equals delivered events. A deferred re-arm
/// links no event, so it is not a push: `pushes + deferred` counts every
/// schedule call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events linked into the wheel.
    pub pushes: u64,
    /// Events a slot walk relinked into another slot: a cascade to a
    /// finer level, or a deferred re-arm moving on to its own time.
    pub cascade_moves: u64,
    /// `IdleTimeout` schedules absorbed in place by the container's
    /// pending, now stale timer node: each replaces one push and one
    /// later no-op delivery.
    pub deferred: u64,
}

impl QueueStats {
    /// Adds `other`'s counts to these (for multi-run totals).
    pub fn merge(&mut self, other: &QueueStats) {
        self.pushes += other.pushes;
        self.cascade_moves += other.cascade_moves;
        self.deferred += other.deferred;
    }
}

/// A deterministic future-event list.
#[derive(Debug)]
pub struct EventQueue {
    wheel: Wheel,
    /// Next runtime-band sequence number (starts at 0).
    next_seq: u64,
    /// Next ladder-band sequence number (starts at `LADDER_SEQ_BASE`).
    next_ladder_seq: u64,
    stats: QueueStats,
    /// Per pool slot (`ContainerId::slot`), the wheel node holding the
    /// slot's latest `IdleTimeout` push while it is pending in a wheel
    /// slot, else [`NIL`]. A release clears it, so it never names a
    /// free node.
    timers: Vec<u32>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            next_seq: 0,
            next_ladder_seq: LADDER_SEQ_BASE,
            stats: QueueStats::default(),
            timers: Vec::new(),
        }
    }

    /// Schedules `kind` at `time` in the runtime sequence band.
    pub fn push(&mut self, time: Instant, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule(Event { time, seq, kind });
    }

    /// Schedules `kind` at `time` in the high (ladder) sequence band:
    /// at any tick, ladder events sort after every runtime event
    /// regardless of when they were pushed (see `LADDER_SEQ_BASE`).
    /// Used for [`EventKind::LadderWake`], which the test-only eager
    /// oracle also pushes once per rung boundary.
    pub fn push_ladder(&mut self, time: Instant, kind: EventKind) {
        let seq = self.next_ladder_seq;
        self.next_ladder_seq += 1;
        self.schedule(Event { time, seq, kind });
    }

    fn schedule(&mut self, event: Event) {
        let mut timer_slot = None;
        if let EventKind::IdleTimeout { container, .. } = event.kind {
            // The container's previous timer, if still pending in a slot
            // at or before this deadline, is stale now: take over its
            // node instead of linking a new one.
            let slot = container.slot();
            if slot >= self.timers.len() {
                self.timers.resize(slot + 1, NIL);
            }
            if self.wheel.rearm(self.timers[slot], &event) {
                self.stats.deferred += 1;
                return;
            }
            timer_slot = Some(slot);
        }
        self.stats.pushes += 1;
        let node = self.wheel.push(event);
        if let Some(slot) = timer_slot {
            self.timers[slot] = node.unwrap_or(NIL);
        }
    }

    /// The timestamp of the earliest pending event, if it is at or
    /// before `limit`; `None` if every pending event is later.
    ///
    /// The wheel's cursor advances to the returned time, or on `None` to
    /// at most `limit`, so afterwards events may be pushed at or after
    /// that time — on `None`, at `limit` itself. The engine passes the
    /// next arrival's time as `limit`, so the arrival's handlers can
    /// still schedule at its tick; [`Instant::MAX`] makes the peek
    /// unbounded. The advance costs one comparison per slot opened.
    pub fn peek_time_until(&mut self, limit: Instant) -> Option<Instant> {
        self.wheel
            .advance(limit.as_micros(), &mut self.timers, &mut self.stats)
            .then(|| Instant::from_micros(self.wheel.cursor))
    }

    /// Appends every event of the head tick to `out`, in `seq` order,
    /// and removes them from the queue. Call it right after
    /// [`EventQueue::peek_time_until`] returned that tick; `out` is a
    /// caller-owned scratch buffer, so its capacity is recycled across
    /// ticks.
    ///
    /// Draining a whole tick is observably identical to popping the
    /// same events one at a time: the batch is exactly the pending
    /// events at the tick in total (time, seq) order, and anything a
    /// handler pushes *at* the tick gets a higher `seq` within its band
    /// and lands in the next batch, just as it would land after the
    /// in-flight pops. Stale events are delivered like any other, in
    /// either mode; the engine's epoch checks make them no-ops.
    pub fn drain_tick(&mut self, out: &mut Vec<Event>) {
        // Wheel invariant: `current` holds exactly the events at
        // `cursor`, the peeked tick, seq-sorted.
        let Wheel {
            current, cursor, ..
        } = &mut self.wheel;
        debug_assert!(current.iter().all(|e| e.time.as_micros() == *cursor));
        out.extend(current.drain(..));
    }

    /// The queue's work counters so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;

    fn t(us: u64) -> Instant {
        Instant::from_micros(us)
    }

    fn prewarm(i: u32) -> EventKind {
        EventKind::PrewarmFire {
            function: FunctionId::new(i),
        }
    }

    impl Ord for Event {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest event pops
            // first, with the insertion sequence breaking ties.
            (other.time, other.seq).cmp(&(self.time, self.seq))
        }
    }

    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl EventQueue {
        /// Pops the earliest event: the per-event reference that tick
        /// draining is checked against.
        fn pop(&mut self) -> Option<Event> {
            self.peek_time_until(Instant::MAX)?;
            self.wheel.current.pop_front()
        }

        /// Number of pending events, counted from what the wheel holds:
        /// the events at `cursor` plus the nodes on every occupied slot
        /// list. A re-armed node holds one event, so a deferral adds
        /// nothing.
        fn len(&self) -> usize {
            let mut len = self.wheel.current.len();
            for level in &self.wheel.levels {
                let mut occupied = level.occupied;
                while occupied != 0 {
                    let slot = occupied.trailing_zeros() as usize;
                    occupied &= occupied - 1;
                    let mut node = level.slots[slot].head;
                    while node != NIL {
                        len += 1;
                        node = self.wheel.nodes[node as usize].next;
                    }
                }
            }
            len
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Drains the earliest tick into `out` (cleared first) and
        /// returns its time: the engine's peek-then-drain, unbounded.
        fn pop_tick(&mut self, out: &mut Vec<Event>) -> Option<Instant> {
            out.clear();
            let tick = self.peek_time_until(Instant::MAX)?;
            self.drain_tick(out);
            Some(tick)
        }
    }

    /// The original `BinaryHeap` future-event list, kept as the naive
    /// reference the wheel is checked against: the same two sequence
    /// bands, a plain heap, and no in-place re-arm, so it delivers every
    /// event ever scheduled.
    ///
    /// It also judges staleness, with generation stamps: per pool slot,
    /// the latest container generation and the lowest epoch of it still
    /// live. Scheduling an epoch-guarded event (`InitComplete`,
    /// `IdleTimeout`) raises its container's stamp, `note` stands for a
    /// reuse and `retire` for a removal. A timer the wheel's re-arm
    /// overwrote is stale under this rule, so the wheel must deliver
    /// exactly the heap's events minus some stale ones, and exactly
    /// `deferred` of them.
    struct HeapQueue {
        heap: BinaryHeap<Event>,
        /// Next sequence number of the runtime and the ladder band.
        next_seq: [u64; 2],
        /// `(generation, lowest live epoch)` per pool slot.
        stamps: Vec<(u32, u64)>,
        /// Stale events popped to reach a wheel delivery (or skipped
        /// where the wheel found nothing): the timers it overwrote.
        skipped: u64,
    }

    impl HeapQueue {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: [0, LADDER_SEQ_BASE],
                stamps: Vec::new(),
                skipped: 0,
            }
        }

        fn schedule(&mut self, band: usize, time: Instant, kind: EventKind) {
            if let EventKind::InitComplete { container, epoch }
            | EventKind::IdleTimeout { container, epoch } = kind
            {
                self.note(container, epoch);
            }
            let seq = self.next_seq[band];
            self.next_seq[band] += 1;
            self.heap.push(Event { time, seq, kind });
        }

        fn push(&mut self, time: Instant, kind: EventKind) {
            self.schedule(0, time, kind);
        }

        fn push_ladder(&mut self, time: Instant, kind: EventKind) {
            self.schedule(1, time, kind);
        }

        /// Records that `container` reached `epoch`: its events below
        /// it, and every event of an older occupant of its pool slot,
        /// are stale.
        fn note(&mut self, container: ContainerId, epoch: u64) {
            let slot = container.slot();
            if slot >= self.stamps.len() {
                self.stamps.resize(slot + 1, (0, 0));
            }
            let (generation, min_epoch) = &mut self.stamps[slot];
            if container.seq() > *generation {
                (*generation, *min_epoch) = (container.seq(), epoch);
            } else if container.seq() == *generation {
                *min_epoch = (*min_epoch).max(epoch);
            }
        }

        /// Marks `container` destroyed: all of its events are stale.
        fn retire(&mut self, container: ContainerId) {
            self.note(container, u64::MAX);
        }

        fn stale(&self, event: &Event) -> bool {
            let (EventKind::InitComplete { container, epoch }
            | EventKind::IdleTimeout { container, epoch }) = event.kind
            else {
                return false;
            };
            self.stamps
                .get(container.slot())
                .is_some_and(|&(generation, min_epoch)| {
                    generation > container.seq()
                        || (generation == container.seq() && epoch < min_epoch)
                })
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn pop(&mut self) -> Option<Event> {
            self.heap.pop()
        }

        /// Pops through the wheel's next delivery `next`: every event
        /// the heap holds before it must be stale, and `next` must come.
        /// With `None` (the wheel is empty) every remaining event must be
        /// stale.
        fn pop_through(&mut self, next: Option<&Event>) -> bool {
            while let Some(head) = self.heap.pop() {
                if Some(&head) == next {
                    return true;
                }
                if !self.stale(&head) {
                    return false;
                }
                self.skipped += 1;
            }
            next.is_none()
        }

        /// Pops every event at or before `limit`, where the wheel found
        /// none: each must be stale.
        fn skip_through(&mut self, limit: u64) -> bool {
            while let Some(&head) = self.heap.peek() {
                if head.time.as_micros() > limit {
                    break;
                }
                if !self.stale(&head) {
                    return false;
                }
                self.heap.pop();
                self.skipped += 1;
            }
            true
        }

        /// Events ever scheduled.
        fn schedules(&self) -> u64 {
            self.next_seq[0] + self.next_seq[1] - LADDER_SEQ_BASE
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), prewarm(3));
        q.push(t(10), prewarm(1));
        q.push(t(20), prewarm(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.push(t(100), prewarm(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::PrewarmFire { function } => function.index() as u32,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(50), prewarm(0));
        q.push(t(10), prewarm(1));
        let first = q.pop().unwrap();
        assert_eq!(first.time, t(10));
        q.push(t(20), prewarm(2));
        assert_eq!(q.pop().unwrap().time, t(20));
        assert_eq!(q.pop().unwrap().time, t(50));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(t(1), prewarm(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_handles_widely_spread_timestamps() {
        // Timestamps spanning every wheel level, pushed in a scrambled
        // order, must come back sorted.
        let mut times: Vec<u64> = (0..u64::BITS as u64)
            .map(|b| (1u64 << b).wrapping_add(b * 37))
            .collect();
        times.push(0);
        times.push(u64::MAX);
        let scrambled: Vec<u64> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, t))
            .collect::<Vec<_>>()
            .chunks(3)
            .flat_map(|c| c.iter().rev().map(|&(_, t)| t))
            .collect();
        let mut q = EventQueue::new();
        for &us in &scrambled {
            q.push(t(us), prewarm(0));
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn fifo_survives_cascading() {
        // Events at the same far-future instant arrive via a cascade
        // from a high level; FIFO order must still hold, including
        // against events pushed after the cascade started.
        let mut q = EventQueue::new();
        let far = 1_000_000_007;
        for i in 0..4u32 {
            q.push(t(far), prewarm(i));
        }
        q.push(t(5), prewarm(99));
        assert_eq!(q.pop().unwrap().time, t(5));
        // Now push more events at `far` (cursor has advanced to 5).
        for i in 4..8u32 {
            q.push(t(far), prewarm(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::PrewarmFire { function } => function.index() as u32,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn wheel_pops_like_the_heap_reference() {
        let times = [7u64, 7, 0, 3, 100_000, 64, 65, 63, 4096, 7, 1 << 40];
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &us) in times.iter().enumerate() {
            wheel.push(t(us), prewarm(i as u32));
            heap.push(t(us), prewarm(i as u32));
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pop_tick_drains_exactly_one_timestamp() {
        let mut q = EventQueue::new();
        q.push(t(10), prewarm(0));
        q.push(t(20), prewarm(1));
        q.push(t(10), prewarm(2));
        q.push(t(10), prewarm(3));
        let mut batch = Vec::new();
        assert_eq!(q.pop_tick(&mut batch), Some(t(10)));
        let fns: Vec<u32> = batch
            .iter()
            .map(|e| match e.kind {
                EventKind::PrewarmFire { function } => function.index() as u32,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(fns, vec![0, 2, 3]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_tick(&mut batch), Some(t(20)));
        assert_eq!(batch.len(), 1);
        assert_eq!(q.pop_tick(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn pushes_at_current_tick_land_in_next_batch() {
        // A handler processing tick T may schedule new work at T; it
        // must surface in the *next* batch, after everything already
        // drained — the same order per-event popping would produce.
        let mut q = EventQueue::new();
        q.push(t(10), prewarm(0));
        let mut batch = Vec::new();
        assert_eq!(q.pop_tick(&mut batch), Some(t(10)));
        assert_eq!(batch.len(), 1);
        q.push(t(10), prewarm(1));
        q.push(t(10), prewarm(2));
        assert_eq!(q.pop_tick(&mut batch), Some(t(10)));
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn pop_tick_matches_per_event_pops() {
        let times = [7u64, 7, 0, 3, 100_000, 64, 65, 63, 4096, 7, 1 << 40, 0];
        let mut batched = EventQueue::new();
        let mut single = EventQueue::new();
        for (i, &us) in times.iter().enumerate() {
            batched.push(t(us), prewarm(i as u32));
            single.push(t(us), prewarm(i as u32));
        }
        let mut batch = Vec::new();
        let mut from_batches = Vec::new();
        while batched.pop_tick(&mut batch).is_some() {
            from_batches.extend(batch.iter().copied());
        }
        let from_pops: Vec<Event> = std::iter::from_fn(|| single.pop()).collect();
        assert_eq!(from_batches, from_pops);
    }

    #[test]
    fn ladder_band_sorts_last_at_a_tick() {
        // A ladder event at a tick pops after every runtime event at
        // that tick, even when pushed first.
        let mut q = EventQueue::new();
        q.push_ladder(t(10), EventKind::LadderWake);
        q.push(t(10), prewarm(1));
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(order, vec![prewarm(1), EventKind::LadderWake]);
    }

    #[test]
    fn rearm_accounting_matches_the_heap_reference() {
        // Each later, higher-epoch timeout takes over the pending node,
        // so the wheel delivers one of the four where the heap delivers
        // all of them; the three it skips are stale, and
        // `len + deferred` tracks the heap's `len + skipped`.
        let c = ContainerId::from_parts(1, 2);
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        for i in 0..4u64 {
            let kind = EventKind::IdleTimeout {
                container: c,
                epoch: i,
            };
            wheel.push(t(1_000_000 + i), kind);
            heap.push(t(1_000_000 + i), kind);
        }
        wheel.push(t(5), prewarm(0));
        heap.push(t(5), prewarm(0));
        wheel.push(t(2_000_000), prewarm(1));
        heap.push(t(2_000_000), prewarm(1));
        let mut delivered = Vec::new();
        loop {
            let next = wheel.pop();
            assert!(heap.pop_through(next.as_ref()));
            assert_eq!(
                wheel.len() as u64 + wheel.stats().deferred,
                heap.len() as u64 + heap.skipped,
            );
            match next {
                Some(e) => delivered.push(e.time.as_micros()),
                None => break,
            }
        }
        assert_eq!(delivered, vec![5, 1_000_003, 2_000_000]);
        assert_eq!(wheel.stats().deferred, 3);
        assert_eq!(heap.skipped, 3);
    }

    #[test]
    fn rearm_takes_over_the_pending_timer_and_relinks_at_its_own_time() {
        // A timeout 10 µs out sits in a level-0 slot. Re-arming the
        // container at 30 µs overwrites that node in place; when the walk
        // opens slot 10 it finds the event at 30 and relinks it there
        // instead of delivering it early.
        let c = ContainerId::from_parts(1, 0);
        let timeout = |epoch| EventKind::IdleTimeout {
            container: c,
            epoch,
        };
        let mut q = EventQueue::new();
        q.push(t(10), timeout(0));
        q.push(t(30), timeout(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().deferred, 1);
        let popped = q.pop().expect("the re-armed timeout");
        assert_eq!((popped.time, popped.kind), (t(30), timeout(1)));
        assert_eq!(popped.seq, 1, "the node carries its latest push's seq");
        assert!(q.is_empty());
        assert_eq!(
            q.stats(),
            QueueStats {
                pushes: 1,
                cascade_moves: 1,
                deferred: 1,
            }
        );
    }

    #[test]
    fn rearm_at_an_earlier_deadline_links_a_new_timer() {
        // The pending node fires later than the new deadline, so it
        // cannot hold it: the re-arm is a push, and the old timer is
        // delivered at its own time, for the engine's epoch check to
        // ignore.
        let c = ContainerId::from_parts(1, 0);
        let timeout = |epoch| EventKind::IdleTimeout {
            container: c,
            epoch,
        };
        let mut q = EventQueue::new();
        q.push(t(1_000), timeout(0));
        q.push(t(500), timeout(1));
        assert_eq!(q.stats().deferred, 0);
        let delivered: Vec<(Instant, EventKind)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.kind))
            .collect();
        assert_eq!(delivered, [(t(500), timeout(1)), (t(1_000), timeout(0))]);
        assert_eq!(q.stats().pushes, 2);
    }

    #[test]
    fn rearm_needs_an_older_epoch_of_the_same_container() {
        // A timer of the same epoch and other containers' timers are
        // never overwritten.
        let (a, b) = (ContainerId::from_parts(1, 0), ContainerId::from_parts(1, 1));
        let mut q = EventQueue::new();
        for (time, container, epoch) in [(10, a, 0), (20, a, 0), (30, b, 0), (40, a, 1)] {
            q.push(t(time), EventKind::IdleTimeout { container, epoch });
        }
        // Only the last push re-arms: `a`'s epoch-0 timer at 20 becomes
        // its epoch-1 timer at 40; the one at 10 is delivered.
        assert_eq!(q.stats().deferred, 1);
        let delivered: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(delivered, vec![10, 30, 40]);
    }

    #[test]
    fn peek_reports_the_head_and_keeps_it() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time_until(Instant::MAX), None);
        q.push(
            t(10),
            EventKind::IdleTimeout {
                container: ContainerId::new(4),
                epoch: 0,
            },
        );
        q.push(t(30), prewarm(1));
        assert_eq!(q.peek_time_until(Instant::MAX), Some(t(10)));
        // Peeking again removes nothing.
        assert_eq!(q.peek_time_until(Instant::MAX), Some(t(10)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|e| e.time), Some(t(10)));
        assert_eq!(q.pop().map(|e| e.time), Some(t(30)));
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_peek_stops_at_the_limit() {
        // An event a second out, an arrival at 500 µs: the peek must
        // report nothing at or before the arrival and leave the cursor
        // where the arrival's handlers can still schedule at its tick.
        let mut q = EventQueue::new();
        q.push(t(1_000_000), prewarm(0));
        assert_eq!(q.peek_time_until(t(500)), None);
        assert!(q.wheel.cursor <= 500);
        q.push(t(500), prewarm(1));
        assert_eq!(q.peek_time_until(t(500)), Some(t(500)));
        let mut batch = Vec::new();
        q.drain_tick(&mut batch);
        assert_eq!(
            batch.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [prewarm(1)]
        );
        // A limit between the two ticks still sees nothing; the head is
        // reported once the limit reaches it.
        assert_eq!(q.peek_time_until(t(999_999)), None);
        assert_eq!(q.peek_time_until(t(1_000_000)), Some(t(1_000_000)));
        assert_eq!(q.pop().map(|e| e.kind), Some(prewarm(0)));
        assert!(q.is_empty());
    }

    #[test]
    fn stats_count_pushes_and_cascade_moves() {
        let mut q = EventQueue::new();
        // 100 µs out sits at level 1 (cursor 0): one relink down to
        // level 0 before it pops. 10 and 20 µs out sit at level 0
        // already.
        q.push(t(100), prewarm(0));
        q.push(t(10), prewarm(1));
        q.push_ladder(t(20), EventKind::LadderWake);
        let delivered = std::iter::from_fn(|| q.pop()).count() as u64;
        let stats = q.stats();
        assert_eq!(delivered, 3);
        assert_eq!(
            stats,
            QueueStats {
                pushes: 3,
                cascade_moves: 1,
                deferred: 0,
            }
        );
        assert_eq!(stats.pushes, delivered);
    }

    #[test]
    fn node_slab_never_outgrows_peak_pending() {
        // A long stream with a bounded backlog, spread from within the
        // current level-0 window to minutes out so events wait at every
        // level, while rising epochs re-arm timers in place on the way.
        // Every node a drain frees must be reused: the slab may only
        // grow to the most events ever pending at once.
        let mut q = EventQueue::new();
        let mut batch = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut now = 0u64;
        let mut peak = 0usize;
        for epoch in 0..100_000u64 {
            // xorshift64: a fixed, dependency-free pseudo-random stream.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = state;
            let container = ContainerId::from_parts((x >> 8) as u32 % 4, (x >> 12) as u32 % 16);
            let spread = [64, 1 << 20, 300_000_000][(x >> 40) as usize % 3];
            let time = t(now + (x >> 20) % spread);
            match x % 8 {
                0..=2 => q.push(time, EventKind::IdleTimeout { container, epoch }),
                3 | 4 => q.push(time, EventKind::InitComplete { container, epoch }),
                5 => q.push(time, prewarm((x >> 4) as u32 % 8)),
                6 => q.push_ladder(time, EventKind::LadderWake),
                _ => q.push(time, EventKind::ExecComplete { container }),
            }
            peak = peak.max(q.len());
            while q.len() > 200 {
                now = q.pop_tick(&mut batch).expect("pending events").as_micros();
            }
            assert!(
                q.wheel.nodes.len() <= peak,
                "slab holds {} nodes, peak pending {peak}",
                q.wheel.nodes.len()
            );
        }
        // Deliveries dwarf the slab, so leaked nodes would have shown.
        assert!(q.stats().pushes - q.len() as u64 > 50 * peak as u64);
    }

    proptest! {
        /// The timer wheel must deliver the heap reference's event
        /// sequence under arbitrary interleavings of schedules,
        /// reuses and removals (which only move the staleness
        /// predicate), and pops: same events, same times, same
        /// tie-breaking, except the stale timers its in-place re-arms
        /// overwrote — exactly `deferred` of them.
        #[test]
        fn wheel_matches_heap_reference(
            ops in prop::collection::vec((0u8..6, any::<u64>(), any::<u64>(), any::<u64>()), 1..200),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            // The wheel cannot schedule into the past. Its time frontier
            // is the last popped event, so after a `pop` that returns
            // `None` the frontier may sit at the latest timestamp ever
            // scheduled.
            let mut now = 0u64;
            let mut high = 0u64;
            let ctr = |a: u64, b: u64| ContainerId::from_parts((a % 4) as u32, (b % 8) as u32);
            for (op, a, b, c) in ops {
                match op {
                    // Schedule one event of every kind, at spreads from
                    // "this very microsecond" to minutes out (crossing
                    // several wheel levels).
                    0..=2 => {
                        let time = t(now + a % 100_000_000);
                        high = high.max(time.as_micros());
                        let kind = match b % 5 {
                            0 => EventKind::LadderWake,
                            1 => EventKind::InitComplete { container: ctr(b, c), epoch: a % 4 },
                            2 => EventKind::ExecComplete { container: ctr(b, c) },
                            3 => EventKind::IdleTimeout { container: ctr(b, c), epoch: a % 4 },
                            _ => prewarm((c % 6) as u32),
                        };
                        if kind == EventKind::LadderWake {
                            wheel.push_ladder(time, kind);
                            heap.push_ladder(time, kind);
                        } else {
                            wheel.push(time, kind);
                            heap.push(time, kind);
                        }
                    }
                    // Stale epochs / whole containers.
                    3 => heap.note(ctr(a, b), c % 5),
                    4 => heap.retire(ctr(a, b)),
                    // Pop a few and match them against the heap.
                    _ => {
                        for _ in 0..=(b % 3) {
                            let next = wheel.pop();
                            prop_assert!(
                                heap.pop_through(next.as_ref()),
                                "the wheel delivered {:?} out of the heap's order, or skipped a live event",
                                next
                            );
                            match next {
                                Some(e) => now = e.time.as_micros(),
                                None => {
                                    now = high;
                                    break;
                                }
                            }
                        }
                    }
                }
                // Every overwritten timer is still pending in the heap or
                // was skipped there.
                prop_assert_eq!(
                    wheel.len() as u64 + wheel.stats().deferred,
                    heap.len() as u64 + heap.skipped,
                    "len + deferred must be conserved"
                );
            }
            // Drain to the end: the full remaining sequences agree.
            loop {
                let next = wheel.pop();
                prop_assert!(heap.pop_through(next.as_ref()));
                if next.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty() && heap.len() == 0);
            let stats = wheel.stats();
            prop_assert_eq!(stats.deferred, heap.skipped);
            prop_assert_eq!(stats.pushes + stats.deferred, heap.schedules());
        }

        /// A drained tick must hold each timestamp's events in the exact
        /// order per-event `pop` yields them — on the wheel itself and on
        /// the heap reference — under arbitrary interleavings of the two
        /// sequence bands (runtime, ladder) at shared ticks.
        #[test]
        fn pop_tick_same_tick_order_matches_per_event_pops(
            ops in prop::collection::vec((0u8..3, 0u64..40, any::<u64>()), 1..120),
        ) {
            let mut batched = EventQueue::new();
            let mut single = EventQueue::new();
            let mut heap = HeapQueue::new();
            for (op, tick, x) in ops {
                // Coarse timestamps force heavy tick sharing.
                let time = t(tick * 1_000);
                let container = ContainerId::from_parts((x % 3) as u32, 0);
                match op {
                    0 | 1 => {
                        let kind = if op == 0 {
                            EventKind::ExecComplete { container }
                        } else {
                            EventKind::IdleTimeout { container, epoch: 0 }
                        };
                        batched.push(time, kind);
                        single.push(time, kind);
                        heap.push(time, kind);
                    }
                    _ => {
                        batched.push_ladder(time, EventKind::LadderWake);
                        single.push_ladder(time, EventKind::LadderWake);
                        heap.push_ladder(time, EventKind::LadderWake);
                    }
                }
            }
            let mut batch = Vec::new();
            while let Some(tick) = batched.pop_tick(&mut batch) {
                for event in &batch {
                    prop_assert_eq!(event.time, tick);
                    prop_assert_eq!(single.pop().as_ref(), Some(event));
                    prop_assert_eq!(heap.pop().as_ref(), Some(event));
                }
            }
            prop_assert!(single.pop().is_none());
            prop_assert!(heap.pop().is_none());
        }

        /// Keep-alive re-arms against the heap reference: four containers
        /// go idle again and again with rising epochs, each re-arm at a
        /// deadline from "this very microsecond" to minutes out — later
        /// than the pending timer (absorbed in place) or earlier (linked
        /// anew) — mixed with reuses, removals that hand the slot to the
        /// next generation, other traffic, and the engine's bounded peeks.
        /// Same deliveries up to overwritten stale timers, same ticks,
        /// and the same conservation laws as the other heap-reference
        /// properties.
        #[test]
        fn rearms_match_heap_reference(
            ops in prop::collection::vec((0u8..9, any::<u64>(), any::<u64>()), 1..300),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut generations = [1u32; 4];
            let mut epochs = [0u64; 4];
            let mut now = 0u64;
            let mut batch = Vec::new();
            let spread = |x: u64| [1, 64, 1 << 20, 600_000_000][(x % 4) as usize];
            for (op, a, b) in ops {
                let k = (a % 4) as usize;
                let container = ContainerId::from_parts(generations[k], k as u32);
                match op {
                    0..=3 => {
                        epochs[k] += 1;
                        let time = t(now + (a >> 8) % spread(b));
                        let kind = EventKind::IdleTimeout { container, epoch: epochs[k] };
                        if b & 16 == 0 {
                            wheel.push(time, kind);
                            heap.push(time, kind);
                        } else {
                            wheel.push_ladder(time, kind);
                            heap.push_ladder(time, kind);
                        }
                    }
                    4 => {
                        epochs[k] += 1;
                        heap.note(container, epochs[k]);
                    }
                    5 => {
                        heap.retire(container);
                        generations[k] += 1;
                        epochs[k] = 0;
                    }
                    6 => {
                        let time = t(now + (a >> 8) % spread(b));
                        wheel.push(time, prewarm((b % 6) as u32));
                        heap.push(time, prewarm((b % 6) as u32));
                    }
                    _ => {
                        let limit = now + (a >> 8) % spread(b);
                        match wheel.peek_time_until(t(limit)) {
                            Some(tick) => {
                                prop_assert!(tick.as_micros() <= limit);
                                batch.clear();
                                wheel.drain_tick(&mut batch);
                                prop_assert!(!batch.is_empty());
                                for event in &batch {
                                    prop_assert_eq!(event.time, tick);
                                    prop_assert!(heap.pop_through(Some(event)));
                                }
                                now = tick.as_micros();
                            }
                            None => {
                                prop_assert!(
                                    heap.skip_through(limit),
                                    "the wheel missed a live event at or before the limit"
                                );
                                now = limit;
                            }
                        }
                    }
                }
                prop_assert_eq!(
                    wheel.len() as u64 + wheel.stats().deferred,
                    heap.len() as u64 + heap.skipped,
                    "len + deferred must be conserved"
                );
            }
            loop {
                let next = wheel.pop();
                prop_assert!(heap.pop_through(next.as_ref()));
                if next.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty() && heap.len() == 0);
            let stats = wheel.stats();
            prop_assert_eq!(stats.deferred, heap.skipped);
            prop_assert_eq!(stats.pushes + stats.deferred, heap.schedules());
        }

        /// The bounded peek against the heap reference, driven the way
        /// the engine's run loop drives it: random pushes (from "this
        /// very microsecond" to minutes out), reuses and removals, and
        /// arrival steps. An arrival step picks a `limit` at or above the
        /// frontier and peeks with it. On `Some(t)` the wheel's drained
        /// tick must be the heap's next events, up to overwritten stale
        /// timers; on `None` the heap must hold nothing live at or before
        /// `limit`, and the arrival's handlers then schedule at `limit`
        /// or later — which only works if the cursor stayed at or below
        /// `limit`.
        #[test]
        fn bounded_peek_matches_heap_reference(
            ops in prop::collection::vec((0u8..7, any::<u64>(), any::<u64>(), any::<u64>()), 1..200),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            // The frontier: the last drained tick, or the limit of the
            // last peek that found nothing. Pushes stay at or after it.
            let mut now = 0u64;
            let mut batch = Vec::new();
            let spread = |x: u64| [1, 64, 1 << 20, 100_000_000][(x % 4) as usize];
            let ctr = |a: u64, b: u64| ContainerId::from_parts((a % 4) as u32, (b % 8) as u32);
            let schedule = |wheel: &mut EventQueue, heap: &mut HeapQueue, time: Instant, x: u64, y: u64| {
                let kind = match x % 5 {
                    0 => EventKind::LadderWake,
                    1 => EventKind::InitComplete { container: ctr(x, y), epoch: y % 4 },
                    2 => EventKind::ExecComplete { container: ctr(x, y) },
                    3 => EventKind::IdleTimeout { container: ctr(x, y), epoch: y % 4 },
                    _ => prewarm((y % 6) as u32),
                };
                if kind == EventKind::LadderWake {
                    wheel.push_ladder(time, kind);
                    heap.push_ladder(time, kind);
                } else {
                    wheel.push(time, kind);
                    heap.push(time, kind);
                }
            };
            for (op, a, b, c) in ops {
                match op {
                    0..=2 => schedule(&mut wheel, &mut heap, t(now + a % spread(b)), b >> 2, c),
                    3 => heap.note(ctr(a, b), c % 5),
                    4 => heap.retire(ctr(a, b)),
                    _ => {
                        let limit = now + a % spread(b);
                        match wheel.peek_time_until(t(limit)) {
                            Some(tick) => {
                                prop_assert!(tick.as_micros() <= limit);
                                batch.clear();
                                wheel.drain_tick(&mut batch);
                                prop_assert!(!batch.is_empty());
                                for event in &batch {
                                    prop_assert_eq!(event.time, tick);
                                    prop_assert!(heap.pop_through(Some(event)));
                                }
                                now = tick.as_micros();
                            }
                            None => {
                                prop_assert!(
                                    heap.skip_through(limit),
                                    "the wheel missed a live event at or before the limit"
                                );
                                now = limit;
                                for k in 0..=(b % 3) {
                                    let time = t(limit + (c >> (8 * k)) % spread(c >> k));
                                    schedule(&mut wheel, &mut heap, time, c >> (3 * k), a >> k);
                                }
                            }
                        }
                    }
                }
                prop_assert_eq!(
                    wheel.len() as u64 + wheel.stats().deferred,
                    heap.len() as u64 + heap.skipped,
                    "len + deferred must be conserved"
                );
            }
            // Drain to the end: the full remaining sequences agree.
            loop {
                let next = wheel.pop();
                prop_assert!(heap.pop_through(next.as_ref()));
                if next.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty() && heap.len() == 0);
            let stats = wheel.stats();
            prop_assert_eq!(stats.deferred, heap.skipped);
            prop_assert_eq!(stats.pushes + stats.deferred, heap.schedules());
        }
    }
}
