//! The step clock: host time per fixed simulated step of the measured
//! window, read off the workload hooks while the window runs as one
//! `Cluster::run_for` call.
//!
//! Slicing the window into many `run_for` calls would be simpler, but it
//! is not pure observation: `Cluster::run_until` cuts its last lookahead
//! window at the deadline it is given, so a sliced run is cut into other
//! windows than one call would use, and same-instant events can then run
//! in another order. On `pair_conflict` that changes what is simulated.
//! The step clock only watches: every wrapped hook compares its simulated
//! instant with the next step boundary, and the first hook at or past a
//! boundary stamps the host time. The hooks run in the same order in every
//! repetition at one seed, so step `k` covers the same simulated work in
//! each of them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sabre_rack::{CoreApi, Workload};
use sabre_sim::Time;
use sabre_sonuma::CqEntry;

/// Host instants at which the measured window first reached each of its
/// step boundaries.
#[derive(Debug)]
pub struct StepClock {
    /// The next boundary in ps; `u64::MAX` while the clock is not armed.
    /// Hooks read it on every call, so it is kept outside the lock.
    next_ps: AtomicU64,
    marks: Mutex<Marks>,
}

#[derive(Debug, Default)]
struct Marks {
    step_ps: u64,
    /// Boundaries still to stamp before the window's end.
    left: u64,
    /// Host instant of the window's start and of each boundary reached.
    stamps: Vec<Instant>,
}

impl StepClock {
    /// A clock that is not armed: wrapped hooks only compare and go on.
    pub fn new() -> Arc<StepClock> {
        Arc::new(StepClock {
            next_ps: AtomicU64::new(u64::MAX),
            marks: Mutex::new(Marks::default()),
        })
    }

    fn marks(&self) -> std::sync::MutexGuard<'_, Marks> {
        self.marks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms the clock for a window that starts now, at simulated `start`,
    /// and lasts `steps` steps of `step` each.
    pub fn arm(&self, start: Time, step: Time, steps: u64) {
        let mut m = self.marks();
        m.step_ps = step.as_ps();
        m.left = steps.saturating_sub(1);
        m.stamps.clear();
        m.stamps.push(Instant::now());
        let next = if m.left == 0 {
            u64::MAX
        } else {
            start.as_ps() + m.step_ps
        };
        self.next_ps.store(next, Ordering::Relaxed);
    }

    /// Stamps every boundary at or before simulated `now` not stamped yet.
    fn tick(&self, now: Time) {
        let now = now.as_ps();
        if now < self.next_ps.load(Ordering::Relaxed) {
            return;
        }
        let stamp = Instant::now();
        let mut m = self.marks();
        let mut next = self.next_ps.load(Ordering::Relaxed);
        while now >= next && m.left > 0 {
            m.stamps.push(stamp);
            m.left -= 1;
            next = if m.left == 0 {
                u64::MAX
            } else {
                next + m.step_ps
            };
        }
        self.next_ps.store(next, Ordering::Relaxed);
    }

    /// Ends the window now and disarms the clock; returns the host time of
    /// each step (none if the clock was not armed). A boundary no hook
    /// reached shares the window's end, so the steps after it take zero
    /// time.
    pub fn finish(&self) -> Vec<Duration> {
        self.next_ps.store(u64::MAX, Ordering::Relaxed);
        let end = Instant::now();
        let mut m = self.marks();
        let left = std::mem::take(&mut m.left);
        let mut stamps = std::mem::take(&mut m.stamps);
        if stamps.is_empty() {
            return Vec::new();
        }
        stamps.extend((0..=left).map(|_| end));
        stamps.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Wraps `workload` so that its hook calls drive this clock.
    pub fn wrap(self: &Arc<Self>, workload: Box<dyn Workload>) -> Box<dyn Workload> {
        Box::new(Stepped {
            inner: workload,
            clock: Arc::clone(self),
        })
    }
}

/// A workload whose every hook call first ticks a [`StepClock`].
struct Stepped {
    inner: Box<dyn Workload>,
    clock: Arc<StepClock>,
}

impl Workload for Stepped {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.clock.tick(api.now());
        self.inner.on_start(api);
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        self.clock.tick(api.now());
        self.inner.on_wake(api);
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        self.clock.tick(api.now());
        self.inner.on_completion(api, cq);
    }

    fn on_rpc(&mut self, api: &mut CoreApi<'_>, src_node: u8, src_core: u8, tag: u64, bytes: u32) {
        self.clock.tick(api.now());
        self.inner.on_rpc(api, src_node, src_core, tag, bytes);
    }

    fn on_rpc_reply(&mut self, api: &mut CoreApi<'_>, tag: u64, bytes: u32) {
        self.clock.tick(api.now());
        self.inner.on_rpc_reply(api, tag, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_split_the_window_into_the_armed_number_of_steps() {
        let clock = StepClock::new();
        clock.tick(Time::from_us(5));
        clock.arm(Time::from_us(10), Time::from_us(1), 4);
        clock.tick(Time::from_ns(10_500));
        clock.tick(Time::from_us(11));
        // A quiet stretch: two boundaries reached by one hook.
        clock.tick(Time::from_ns(13_200));
        clock.tick(Time::from_us(50));
        let steps = clock.finish();
        assert_eq!(steps.len(), 4);
        assert_eq!(
            steps[2],
            Duration::ZERO,
            "boundaries 12 and 13 share a stamp"
        );
    }

    #[test]
    fn boundaries_no_hook_reached_close_at_the_end() {
        let clock = StepClock::new();
        clock.arm(Time::ZERO, Time::from_us(1), 3);
        assert_eq!(clock.finish().len(), 3);
        // Disarmed again: later hooks stamp nothing.
        clock.tick(Time::from_us(100));
        assert!(clock.finish().is_empty());
    }
}
