//! Deterministic discrete-event simulation engine.
//!
//! This crate is the bottom layer of the SABRes reproduction. It provides:
//!
//! * [`Time`] — virtual time in integer picoseconds, with frequency-aware
//!   cycle conversions ([`Freq`]).
//! * [`EventQueue`] — a stable (FIFO-within-same-timestamp) priority
//!   queue of timestamped events, generic over the event payload: a
//!   binary heap, plus a FIFO lane for events scheduled at exactly the
//!   last popped instant, which skip the heap without changing the
//!   `(time, schedule order)` contract. It is the simulator's only event
//!   queue: every rack node drains its own, one lookahead window at a
//!   time.
//! * [`IntMap`] / [`IntSet`] — hash maps and sets under one fixed integer
//!   hasher ([`IntHasher`]), for the per-packet bookkeeping maps keyed by
//!   simulator-issued ids.
//! * [`server`] — analytic queued servers used to model bandwidth-limited
//!   resources (memory channels, fabric links, pipelines).
//! * [`stats`] — counters, mean/max trackers, log-bucketed histograms and
//!   throughput meters used by the experiment harness.
//!
//! The engine is single-threaded and fully deterministic: identical inputs
//! (including RNG seeds) produce identical simulated histories, which the
//! test suite relies on.
//!
//! # Example
//!
//! ```
//! use sabre_sim::{EventQueue, Time};
//!
//! let mut q = EventQueue::new();
//! q.schedule(Time::from_ns(5), "late");
//! q.schedule(Time::from_ns(1), "early");
//! let (t, ev) = q.pop().expect("two events were scheduled");
//! assert_eq!((t, ev), (Time::from_ns(1), "early"));
//! ```

pub mod hash;
pub mod queue;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use hash::{IntHasher, IntMap, IntSet};
pub use queue::EventQueue;
pub use rng::{SimRng, Zipf};
pub use server::{BandwidthServer, FifoServer};
pub use stats::{Counter, Histogram, HopStats, LatencyHistogram, MeanTracker, Throughput};
pub use time::{Freq, Time};
