//! The event queue at the heart of the discrete-event engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// A deterministic priority queue of timestamped events.
///
/// Events with equal timestamps are returned in the order they were
/// scheduled. The queue is generic over the event payload so each layer of
/// the system (and each test) can use its own event enum.
///
/// Two stores keep that `(time, schedule order)` contract: a binary heap,
/// and a FIFO *lane* for events scheduled at exactly the last popped
/// instant — in a simulation loop, the zero-delay follow-ups a handler
/// schedules for "now", which then cost a queue push and pop instead of a
/// heap sift each way. Every lane event was scheduled after any heap
/// event at the same instant, so [`EventQueue::pop`] serves the heap top
/// first whenever it is due no later than the lane's instant. The
/// lane's instant only moves forward: popping an event scheduled in the
/// past leaves it where it is, so the lane never has to be re-keyed.
///
/// # Example
///
/// ```
/// use sabre_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_ns(10), 'b');
/// q.schedule(Time::from_ns(10), 'c');
/// q.schedule(Time::from_ns(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<HeapEntry<E>>>,
    /// Events scheduled at exactly `last`, in schedule order. Holds
    /// nothing of any other instant: `last` moves only once it is empty.
    lane: VecDeque<E>,
    /// The latest instant popped so far (never moves backwards).
    last: Time,
    seq: u64,
}

#[derive(Debug)]
struct HeapEntry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            last: Time::ZERO,
            seq: 0,
        }
    }

    /// Schedules `event` for delivery at time `at`.
    ///
    /// `at` may be in the "past" relative to events already popped; the
    /// engine layer is responsible for never doing that (and asserts so).
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        if at == self.last {
            self.lane.push_back(event);
        } else {
            self.heap.push(Reverse(HeapEntry { at, seq, event }));
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        // A heap event due no later than the lane's instant was scheduled
        // before every lane event (or lies in the past), so it goes first.
        if !self.lane.is_empty()
            && self
                .heap
                .peek()
                .is_none_or(|Reverse(top)| top.at > self.last)
        {
            return self.lane.pop_front().map(|e| (self.last, e));
        }
        self.heap.pop().map(|Reverse(e)| {
            if e.at > self.last {
                self.last = e.at;
            }
            (e.at, e.event)
        })
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        let top = self.heap.peek().map(|Reverse(e)| e.at);
        if self.lane.is_empty() {
            top
        } else {
            Some(top.map_or(self.last, |t| t.min(self.last)))
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Total number of events ever scheduled (monotone counter).
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(3), 3u32);
        q.schedule(Time::from_ns(1), 1u32);
        q.schedule(Time::from_ns(2), 2u32);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 1)));
        assert_eq!(q.pop(), Some((Time::from_ns(2), 2)));
        assert_eq!(q.pop(), Some((Time::from_ns(3), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(Time::from_ns(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((Time::from_ns(7), i)));
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from_ns(9), ());
        q.schedule(Time::from_ns(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_ns(4)));
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_schedule_pop_preserves_determinism() {
        // Mimics a simulation loop that schedules new events while draining.
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(1), "a");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "a");
        q.schedule(t + Time::from_ns(1), "b");
        q.schedule(t + Time::from_ns(1), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn same_instant_follow_ups_keep_schedule_order() {
        // Heap entries at the popped instant were scheduled before any
        // lane entry at it, so they leave first; then the lane, in order.
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        q.schedule(t, "a");
        q.schedule(t, "b");
        q.schedule(t + Time::from_ns(1), "later");
        assert_eq!(q.pop(), Some((t, "a")));
        q.schedule(t, "c");
        q.schedule(t, "d");
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.len(), 4);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["b", "c", "d", "later"]);
    }

    #[test]
    fn past_schedule_pops_before_the_lane() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(10);
        q.schedule(t, 0u32);
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule(t, 1); // lane
        q.schedule(Time::from_ns(3), 2); // in the past
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
        assert_eq!(q.pop(), Some((Time::from_ns(3), 2)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lane_instant_survives_a_past_pop() {
        // Two heap entries at 10 and one lane entry at 10, then a past
        // event: popping it must not move the lane's instant back, so a
        // later schedule at 10 still queues behind everything already
        // pending at 10, in schedule order.
        let mut q = EventQueue::new();
        let t = Time::from_ns(10);
        q.schedule(Time::from_ns(1), 0u32);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        q.schedule(t, 4); // lane, behind heap entries 2 and 3
        q.schedule(Time::from_ns(4), 5); // in the past
        assert_eq!(q.pop(), Some((Time::from_ns(4), 5)));
        q.schedule(t, 6);
        let rest: Vec<(Time, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, vec![(t, 2), (t, 3), (t, 4), (t, 6)]);
        assert_eq!(q.scheduled_total(), 7);
    }
}
