//! The output check: a digest of everything a repetition simulated, and
//! the conservation identities the public counters allow.

use sabre_core::EngineStats;
use sabre_rack::{Cluster, CoreMetrics};
use sabre_sim::HopStats;
use sabre_sonuma::r2p2::R2p2Stats;

/// Cumulative fabric and delivery counters at one instant; the
/// measurement window is the difference of two of these, since
/// `Cluster::reset_metrics` does not clear them.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricMark {
    /// Whole-fabric hop/queue counters.
    pub hops: HopStats,
    /// Packets delivered to destination pipelines.
    pub delivered: u64,
    /// Packets dropped by a fault plan.
    pub dropped: u64,
}

impl FabricMark {
    /// The counters of `cluster` now.
    pub fn of(cluster: &Cluster) -> Self {
        FabricMark {
            hops: cluster.fabric().hop_stats(),
            delivered: cluster.packets_delivered(),
            dropped: cluster.packets_dropped(),
        }
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &FabricMark) -> FabricMark {
        let (a, b) = (&self.hops, &earlier.hops);
        FabricMark {
            hops: HopStats {
                packets: a.packets - b.packets,
                hops: a.hops - b.hops,
                uplink_queued: a.uplink_queued - b.uplink_queued,
                spine_crossings: a.spine_crossings - b.spine_crossings,
                spine_queued: a.spine_queued - b.spine_queued,
            },
            delivered: self.delivered - earlier.delivered,
            dropped: self.dropped - earlier.dropped,
        }
    }
}

/// Everything a repetition's measurement window produced that the model
/// fixes: identical for every repetition at one seed, whatever the shard
/// count, step clock or tracing.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Core metrics merged over the rack.
    pub rack: CoreMetrics,
    /// Fabric counters over the window.
    pub fabric: FabricMark,
    /// R2P2 counters summed over every pipeline.
    pub r2p2: R2p2Stats,
    /// Engine counters summed over every pipeline.
    pub engine: EngineStats,
    /// Digest of the per-core metrics and every total above.
    pub digest: u64,
}

/// 64-bit FNV-1a: stable across platforms and toolchains, unlike the
/// standard library's hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }
}

fn hash_core(h: &mut Fnv, m: &CoreMetrics) {
    let hist = &m.latency_hist;
    h.words(&[
        m.ops,
        m.bytes,
        m.retries,
        m.queued_arrivals,
        m.peak_backlog,
        hist.count(),
        hist.sum_ns(),
        hist.min_ns().unwrap_or(0),
        hist.max_ns().unwrap_or(0),
        hist.p50().unwrap_or(0),
        hist.p99().unwrap_or(0),
        hist.p999().unwrap_or(0),
    ]);
}

/// Collects the window's [`Outcome`] from `cluster`; `start` is the fabric
/// mark taken when the window opened.
pub fn outcome(cluster: &Cluster, start: &FabricMark) -> Outcome {
    let cfg = cluster.config();
    let mut h = Fnv::new();
    let mut rack = CoreMetrics::default();
    let mut r2p2 = R2p2Stats::default();
    let mut engine = EngineStats::default();
    for node in 0..cfg.nodes {
        for core in 0..cfg.cores_per_node {
            let m = cluster.metrics(node, core);
            hash_core(&mut h, m);
            rack.merge(m);
        }
        for pipe in 0..cfg.rmc_backends {
            r2p2.merge(&cluster.r2p2_stats(node, pipe));
            engine.merge(&cluster.engine_stats(node, pipe));
        }
    }
    h.bytes(rack.latency_hist.dump().as_bytes());
    let fabric = FabricMark::of(cluster).since(start);
    let f = &fabric.hops;
    h.words(&[
        f.packets,
        f.hops,
        f.uplink_queued,
        f.spine_crossings,
        f.spine_queued,
        fabric.delivered,
        fabric.dropped,
    ]);
    h.words(&[
        r2p2.plain_reads,
        r2p2.writes,
        r2p2.sabres_registered,
        r2p2.sabres_parked,
        r2p2.stale_dropped,
        r2p2.captured_reads,
        r2p2.capture_restarts,
        r2p2.catch_up_pulls,
        r2p2.reads_refused,
        r2p2.stale_served,
        r2p2.catch_up_refused,
    ]);
    h.words(&[
        engine.registered,
        engine.completed_ok,
        engine.completed_failed,
        engine.aborts_window_conflict,
        engine.aborts_version_locked,
        engine.aborts_validate_mismatch,
        engine.aborts_lock_failed,
        engine.revalidations,
        engine.invals_ignored_after_window,
        engine.depth_stalls,
        engine.page_stalls,
    ]);
    Outcome {
        rack,
        fabric,
        r2p2,
        engine,
        digest: h.0,
    }
}

/// Engine completions over registrations, summed over the rack. Counted
/// from simulated time zero (nothing in flight before it), completions can
/// never exceed registrations.
pub fn engine_totals(cluster: &Cluster) -> EngineStats {
    let cfg = cluster.config();
    let mut total = EngineStats::default();
    for node in 0..cfg.nodes {
        for pipe in 0..cfg.rmc_backends {
            total.merge(&cluster.engine_stats(node, pipe));
        }
    }
    total
}

/// Checks the conservation identities at the end of a window.
///
/// `in_flight` is the SABRes registered but not completed when the window
/// opened: they may complete inside it without a registration of their own.
pub fn conservation(
    cluster: &Cluster,
    out: &Outcome,
    in_flight: u64,
    readers: &[(usize, usize)],
) -> Vec<String> {
    let mut violations = Vec::new();
    let sent = cluster.fabric().packets_total();
    let (delivered, dropped) = (cluster.packets_delivered(), cluster.packets_dropped());
    if sent < delivered + dropped {
        violations.push(format!(
            "packets: {sent} sent < {delivered} delivered + {dropped} dropped"
        ));
    }
    let e = &out.engine;
    if e.completed_ok + e.completed_failed > e.registered + in_flight {
        violations.push(format!(
            "engine: {} ok + {} failed > {} registered + {in_flight} in flight",
            e.completed_ok, e.completed_failed, e.registered
        ));
    }
    for &(node, core) in readers {
        if cluster.metrics(node, core).ops == 0 {
            violations.push(format!("reader {node}.{core} completed no operation"));
        }
    }
    violations
}
