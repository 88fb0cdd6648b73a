//! Host-performance benchmark of the SABRes simulator.
//!
//! One process runs one named scenario ([`scenario::Scenario`]) on one
//! thread: it builds the rack from the simulator's public API, runs a
//! warm-up window, times a fixed simulated measurement window step by step
//! ([`steps`]) without cutting it into separate `run_for` calls, and checks
//! that what was simulated is right ([`check`]). A separate traced run
//! ([`run::traced`]) times the calls the benchmark makes into each layer,
//! reads each layer's public counters, and replays single layers
//! ([`replay`]) to estimate their share of a run.

pub mod check;
pub mod replay;
pub mod run;
pub mod scenario;
pub mod steps;
pub mod trace;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, for checking a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 7919;
