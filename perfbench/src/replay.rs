//! Layer replays: drive one layer's public entry point, outside the
//! cluster, as many times as a measured run called it, to estimate that
//! layer's host cost per call and its share of a run.
//!
//! A replay runs on warm caches with none of the cluster around it, so it
//! is a lower bound of what the calls cost inside the event loop.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sabre_core::{Action, IssueKind, LightSabres, LightSabresConfig, SabreId};
use sabre_fabric::{Fabric, FabricConfig};
use sabre_mem::{Addr, BLOCK_BYTES};
use sabre_rack::workloads::pattern_payload;
use sabre_sim::Time;
use sabre_sw::layout::PerClLayout;
use sabre_sw::VersionWord;

/// Fewest calls a replay times, so a layer the run barely used still gets
/// a per-call figure above the clock's resolution.
const MIN_CALLS: u64 = 20_000;

/// The host time of one replay.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Calls made.
    pub calls: u64,
    /// Host time they took.
    pub elapsed: Duration,
}

impl Replay {
    /// Host ns per call.
    pub fn ns_per_call(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.calls as f64
    }
}

/// Packets one directed link carried in the measured window, with their
/// total wire bytes (headers included).
#[derive(Debug, Clone, Copy)]
pub struct LinkLoad {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Packets sent.
    pub packets: u64,
    /// Bytes sent, headers included.
    pub bytes: u64,
}

/// Replays `Fabric::send` on a fresh fabric of `cfg`: every link sends its
/// packet count (at least [`MIN_CALLS`] in total) at its mean packet size,
/// links interleaved round-robin and send times spread evenly over
/// `window`, as the run spread them.
pub fn fabric_send(cfg: &FabricConfig, links: &[LinkLoad], window: Time) -> Replay {
    let total: u64 = links.iter().map(|l| l.packets).sum();
    assert!(total > 0, "the run sent no packet");
    let rounds = MIN_CALLS.div_ceil(total);
    let mut sends = Vec::with_capacity((total * rounds) as usize);
    let mut left: Vec<u64> = links.iter().map(|l| l.packets * rounds).collect();
    while sends.len() < sends.capacity() {
        for (l, n) in links.iter().zip(left.iter_mut()) {
            if *n > 0 {
                *n -= 1;
                let payload = (l.bytes / l.packets).saturating_sub(cfg.header_bytes);
                sends.push((l.src, l.dst, payload));
            }
        }
    }
    let mut fabric = Fabric::new(cfg.clone());
    let step = window.as_ps() / sends.len() as u64;
    let t = Instant::now();
    for (i, &(src, dst, payload)) in sends.iter().enumerate() {
        let now = Time::from_ps(i as u64 * step);
        black_box(fabric.send(now, src, dst, payload));
    }
    Replay {
        calls: sends.len() as u64,
        elapsed: t.elapsed(),
    }
}

/// Replays `PerClLayout::validate_and_strip` on a consistent image of
/// `payload` bytes, `calls` times (at least [`MIN_CALLS`]).
pub fn validate_and_strip(payload: usize, calls: u64) -> Replay {
    let image = PerClLayout::encode(VersionWord::new(0), &pattern_payload(0, 0, payload));
    let calls = calls.max(MIN_CALLS);
    let t = Instant::now();
    for _ in 0..calls {
        let stripped = PerClLayout::validate_and_strip(black_box(&image), payload);
        black_box(stripped.expect("a consistent image validates"));
    }
    Replay {
        calls,
        elapsed: t.elapsed(),
    }
}

/// Replays the LightSABRes lifecycle of a `bytes`-byte SABRe, `calls`
/// times (at least [`MIN_CALLS`]): register, one data request per block,
/// issue every block, reply to each, complete. Nothing conflicts, so every
/// SABRe completes atomically on its first pass.
pub fn engine_lifecycle(cfg: &LightSabresConfig, bytes: u32, calls: u64) -> Replay {
    let calls = calls.max(MIN_CALLS);
    let blocks = (bytes as usize).div_ceil(BLOCK_BYTES);
    let block = [0u8; BLOCK_BYTES];
    let mut engine = LightSabres::new(cfg.clone());
    let mut issued = Vec::with_capacity(blocks);
    let t = Instant::now();
    for i in 0..calls {
        let id = SabreId {
            src_node: 0,
            src_pipe: 0,
            transfer: i as u32,
        };
        let slot = engine
            .register(id, Addr::new(0), bytes, 0)
            .expect("one SABRe at a time never fills the ATT");
        for _ in 0..blocks {
            engine.on_data_request(id).expect("one request per block");
        }
        let mut done = false;
        while !done {
            issued.extend(std::iter::from_fn(|| engine.next_issue()));
            assert!(!issued.is_empty(), "an unfinished SABRe issues");
            for issue in issued.drain(..) {
                let actions = match issue.kind {
                    IssueKind::Data => engine.on_block_reply(slot, issue.block_index, &block),
                    IssueKind::Validate => engine.on_validate_reply(slot, &block),
                    _ => Vec::new(),
                };
                done |= actions.iter().any(|a| matches!(a, Action::Complete { .. }));
            }
        }
    }
    let elapsed = t.elapsed();
    assert_eq!(
        engine.stats().completed_ok,
        calls,
        "every replayed SABRe is atomic"
    );
    Replay { calls, elapsed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_replay_completes_every_sabre_atomically() {
        let cfg = LightSabresConfig::default();
        let r = engine_lifecycle(&cfg, 1088, 10);
        assert_eq!(r.calls, MIN_CALLS);
    }

    #[test]
    fn fabric_replay_sends_at_least_min_calls() {
        let cfg = FabricConfig::default();
        let links = [LinkLoad {
            src: 0,
            dst: 1,
            packets: 3,
            bytes: 3 * (64 + cfg.header_bytes),
        }];
        let r = fabric_send(&cfg, &links, Time::from_us(1));
        assert!(r.calls >= MIN_CALLS);
    }
}
