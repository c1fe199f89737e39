//! Event queue and simulation driver.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event: timestamp, insertion sequence number (for FIFO
/// tie-breaking), and the payload.
struct Pending<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Pending<E> {}

impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest-seq)
        // event is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-heap of timestamped events with deterministic FIFO ordering for
/// equal timestamps.
pub struct EventQueue<E> {
    heap: BinaryHeap<Pending<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Insert an event at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Pending { at, seq, event });
    }

    /// Remove and return the earliest event, FIFO among equal timestamps.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|p| (p.at, p.event))
    }
}

/// The simulated system: receives events and schedules follow-ups through
/// the [`Ctx`] handle.
pub trait World {
    /// Event payload type delivered by the simulator.
    type Event;

    /// Handle one event at the context's current virtual time.
    fn handle(&mut self, ctx: &mut Ctx<Self::Event>, event: Self::Event);
}

/// Handle given to [`World::handle`] for reading the clock and scheduling
/// further events.
pub struct Ctx<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Ctx<E> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute virtual time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past: causality violations are always bugs
    /// in the caller, never recoverable conditions.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({at:?} < {:?})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedule `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        let at = self.now.checked_add(delay).expect("virtual clock overflow");
        self.queue.push(at, event);
    }
}

/// The simulation driver: owns the event queue and runs a [`World`] until
/// the queue drains.
pub struct Simulator<E> {
    ctx: Ctx<E>,
    events_processed: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// A simulator with an empty queue at time zero.
    pub fn new() -> Self {
        Simulator {
            ctx: Ctx {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
            },
            events_processed: 0,
        }
    }

    /// Seed an event before (or between) runs.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.ctx.now, "cannot schedule event in the past");
        self.ctx.queue.push(at, event);
    }

    /// Current virtual time (last event timestamp processed).
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Run until the event queue is empty. Returns the final virtual time.
    pub fn run<W: World<Event = E>>(&mut self, world: &mut W) -> SimTime {
        while let Some((at, event)) = self.ctx.queue.pop() {
            debug_assert!(at >= self.ctx.now, "event queue delivered out of order");
            self.ctx.now = at;
            self.events_processed += 1;
            world.handle(&mut self.ctx, event);
        }
        self.ctx.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    struct Relay {
        hops: u32,
        log: Vec<(SimTime, u32)>,
    }
    enum Ev {
        Hop(u32),
    }
    impl World for Relay {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<Ev>, Ev::Hop(n): Ev) {
            self.log.push((ctx.now(), n));
            if n + 1 < self.hops {
                ctx.schedule_in(SimTime::from_millis(5), Ev::Hop(n + 1));
            }
        }
    }

    #[test]
    fn run_advances_clock_and_chains_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::ZERO, Ev::Hop(0));
        let mut w = Relay {
            hops: 4,
            log: Vec::new(),
        };
        let end = sim.run(&mut w);
        assert_eq!(end, SimTime::from_millis(15));
        assert_eq!(w.log.len(), 4);
        assert_eq!(w.log[2], (SimTime::from_millis(10), 2));
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<()>, _: ()) {
                let past = ctx.now().saturating_sub(SimTime::from_secs(1));
                ctx.schedule_at(past, ());
            }
        }
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), ());
        sim.run(&mut Bad);
    }
}
