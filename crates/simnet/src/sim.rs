//! The simulation clock and typed event scheduling.

use coconut_types::{NodeId, SimDuration, SimTime};

use crate::queue::EventQueue;

/// An event delivered to a node at a point in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<M> {
    /// When the event fires.
    pub at: SimTime,
    /// The node the event is addressed to.
    pub dst: NodeId,
    /// The message or timer payload.
    pub msg: M,
}

/// A discrete-event simulation: a monotone clock plus an event queue.
///
/// Popping an event advances the clock to the event's time; the clock never
/// moves backwards. Components schedule future events with [`Sim::schedule`]
/// (relative delay) or [`Sim::schedule_at`] (absolute time).
///
/// # Example
///
/// ```
/// use coconut_simnet::Sim;
/// use coconut_types::{NodeId, SimDuration, SimTime};
///
/// let mut sim: Sim<&str> = Sim::new();
/// sim.schedule(SimDuration::from_millis(5), NodeId(1), "timer");
/// let ev = sim.pop_before(SimTime::MAX).unwrap();
/// assert_eq!(ev.msg, "timer");
/// assert_eq!(sim.now(), SimTime::from_millis(5));
/// ```
#[derive(Debug, Clone)]
pub struct Sim<M> {
    now: SimTime,
    queue: EventQueue<(NodeId, M)>,
}

impl<M> Sim<M> {
    /// Creates a simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `msg` for `dst` after `delay` from now.
    pub fn schedule(&mut self, delay: SimDuration, dst: NodeId, msg: M) {
        self.queue.push(self.now + delay, (dst, msg));
    }

    /// Schedules `msg` for `dst` at the absolute time `at`.
    ///
    /// Times in the past are clamped to `now` (the event fires immediately
    /// on the next pop).
    pub fn schedule_at(&mut self, at: SimTime, dst: NodeId, msg: M) {
        self.queue.push(at.max(self.now), (dst, msg));
    }

    /// The due time of the next event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the next event if it is due strictly before `deadline`,
    /// advancing the clock to the event's time.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event<M>> {
        let (at, (dst, msg)) = self.queue.pop_before(deadline)?;
        self.now = self.now.max(at);
        Some(Event {
            at: self.now,
            dst,
            msg,
        })
    }

    /// Pops the next event if it is due at or before `deadline`, advancing
    /// the clock to the event's time.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<Event<M>> {
        let (at, (dst, msg)) = self.queue.pop_at_or_before(deadline)?;
        self.now = self.now.max(at);
        Some(Event {
            at: self.now,
            dst,
            msg,
        })
    }

    /// Advances the clock to `t` without processing events.
    ///
    /// Used by external drivers that interleave their own schedule (e.g.
    /// client submissions) with the simulation. The clock never moves
    /// backwards; an earlier `t` is ignored.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Every pending event's payload, in no particular order.
    pub fn queued(&self) -> impl Iterator<Item = &M> {
        self.queue.iter().map(|(_, msg)| msg)
    }

    /// Discards all pending events (used when a system halts).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

impl<M> Default for Sim<M> {
    fn default() -> Self {
        Sim::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_on_pop() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(SimDuration::from_secs(2), NodeId(0), 1);
        sim.schedule(SimDuration::from_secs(1), NodeId(1), 2);
        let e1 = sim.pop_before(SimTime::MAX).unwrap();
        assert_eq!((e1.dst, e1.msg), (NodeId(1), 2));
        assert_eq!(sim.now(), SimTime::from_secs(1));
        let e2 = sim.pop_before(SimTime::MAX).unwrap();
        assert_eq!((e2.dst, e2.msg), (NodeId(0), 1));
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert!(sim.pop_before(SimTime::MAX).is_none());
    }

    #[test]
    fn deadline_is_exclusive_for_pop_before() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(SimDuration::from_secs(1), NodeId(0), 1);
        assert!(sim.pop_before(SimTime::from_secs(1)).is_none());
        assert!(sim.pop_at_or_before(SimTime::from_secs(1)).is_some());
    }

    #[test]
    fn schedule_at_clamps_past_times() {
        let mut sim: Sim<u32> = Sim::new();
        sim.advance_to(SimTime::from_secs(10));
        sim.schedule_at(SimTime::from_secs(1), NodeId(0), 7);
        let ev = sim.pop_before(SimTime::MAX).unwrap();
        assert_eq!(
            ev.at,
            SimTime::from_secs(10),
            "past events fire now, not in the past"
        );
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut sim: Sim<u32> = Sim::new();
        sim.advance_to(SimTime::from_secs(5));
        sim.advance_to(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn pending_and_clear() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(SimDuration::ZERO, NodeId(0), 1);
        sim.schedule(SimDuration::ZERO, NodeId(0), 2);
        assert_eq!(sim.pending(), 2);
        sim.clear();
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.next_event_time(), None);
    }
}
