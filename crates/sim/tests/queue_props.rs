//! The event queue's ordering contract, pinned against a linear-scan
//! model: for any interleaving of schedules and pops, [`EventQueue`] must
//! yield the pending event with the smallest `(time, schedule order)` —
//! ascending time, FIFO among events scheduled for the same instant. The
//! deterministic event loop relies on exactly this order.
//!
//! The queue also owns its payloads: every scheduled payload is dropped
//! exactly once, whether it is popped or dropped with the queue.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use sabre_sim::{EventQueue, Time};

/// The reference: pending `(time, id)` pairs in schedule order; a pop
/// removes the first entry holding the minimum time.
#[derive(Default)]
struct Model {
    pending: Vec<(Time, u32)>,
}

impl Model {
    fn schedule(&mut self, at: Time, id: u32) {
        self.pending.push((at, id));
    }

    fn peek_time(&self) -> Option<Time> {
        self.pending.iter().map(|&(t, _)| t).min()
    }

    fn pop(&mut self) -> Option<(Time, u32)> {
        let t = self.peek_time()?;
        let i = self.pending.iter().position(|&(at, _)| at == t)?;
        Some(self.pending.remove(i))
    }
}

/// Drives the queue and the model through one script of `(pop?, value)`
/// steps, checking every pop, peek and length along the way, then drains
/// both. `at` maps a schedule step's value and the last popped time to
/// the time it schedules for. Returns the queue's full pop sequence.
fn run_script(ops: &[(bool, u64)], at: impl Fn(u64, Time) -> Time) -> Vec<(Time, u32)> {
    let mut q = EventQueue::new();
    let mut model = Model::default();
    let mut out = Vec::new();
    let mut now = Time::ZERO;
    let mut id = 0u32;
    for &(is_pop, v) in ops {
        if is_pop {
            let got = q.pop();
            assert_eq!(got, model.pop(), "pop {} diverged", out.len());
            if let Some((t, e)) = got {
                now = t;
                out.push((t, e));
            }
        } else {
            let t = at(v, now);
            q.schedule(t, id);
            model.schedule(t, id);
            id += 1;
        }
        assert_eq!(q.peek_time(), model.peek_time());
        assert_eq!(q.len(), model.pending.len());
    }
    while let Some(e) = q.pop() {
        assert_eq!(Some(e), model.pop(), "drain diverged");
        out.push(e);
    }
    assert!(model.pending.is_empty());
    assert_eq!(q.scheduled_total(), u64::from(id));
    out
}

/// A payload that records its own drop in a shared per-id tally.
struct Tracked {
    id: usize,
    drops: Rc<RefCell<Vec<u32>>>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.borrow_mut()[self.id] += 1;
    }
}

proptest! {
    #[test]
    fn fifo_at_equal_timestamps(
        collisions in proptest::collection::vec((any::<bool>(), 0u64..4), 1..300),
    ) {
        // Many events on four distinct instants, pops interleaved: within
        // one instant, events leave in the order they were scheduled.
        let out = run_script(&collisions, |v, _| Time::from_ns(v * 10));
        for pair in out.windows(2) {
            let ((t0, e0), (t1, e1)) = (pair[0], pair[1]);
            if t0 == t1 {
                prop_assert!(e0 < e1, "events at {t0:?} left out of order");
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_follow_the_model(
        script in proptest::collection::vec((any::<bool>(), any::<u64>()), 1..400),
    ) {
        // A simulation loop: every schedule lands at or after the last
        // popped instant — on it, shortly after, or far ahead.
        let out = run_script(&script, |v, now| {
            let offset = match v % 3 {
                0 => 0,
                1 => v % 100,
                _ => v % 100_000,
            };
            now + Time::from_ns(offset)
        });
        for pair in out.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "pop times went backwards");
        }
    }

    #[test]
    fn random_script_follows_the_model(
        script in proptest::collection::vec((any::<bool>(), 0u64..64), 1..400),
    ) {
        // No discipline at all: times may fall before instants already
        // popped, and the queue must still hand out its current minimum.
        run_script(&script, |v, _| Time::from_ns(v));
    }

    #[test]
    fn every_payload_is_dropped_exactly_once(
        script in proptest::collection::vec((any::<bool>(), 0u64..64), 1..400),
    ) {
        // Popped payloads are dropped by the caller, the rest with the
        // queue; either way exactly once, and never while still pending.
        // Every live payload holds one count of the shared tally's `Rc`.
        let schedules = script.iter().filter(|&&(is_pop, _)| !is_pop).count();
        let drops = Rc::new(RefCell::new(vec![0u32; schedules]));
        let mut q = EventQueue::new();
        let mut id = 0;
        for &(is_pop, v) in &script {
            if is_pop {
                if let Some((_, payload)) = q.pop() {
                    let payload: Tracked = payload;
                    prop_assert_eq!(drops.borrow()[payload.id], 0);
                }
            } else {
                q.schedule(Time::from_ns(v), Tracked { id, drops: Rc::clone(&drops) });
                id += 1;
            }
            prop_assert_eq!(Rc::strong_count(&drops) - 1, q.len());
        }
        drop(q);
        prop_assert_eq!(Rc::strong_count(&drops), 1);
        prop_assert!(drops.borrow().iter().all(|&n| n == 1), "a payload was not dropped exactly once");
    }
}
