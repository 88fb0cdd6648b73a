//! The benchmark's three fixed scenarios, built from the simulator's public
//! API with every set-up call timed.
//!
//! The model inputs are constants; only the seed varies. Each scenario is a
//! point one of the repository's figures already runs, chosen so that the
//! three together load different layers of the simulator: the pair loads
//! the event queue, R2P2 and the engine's abort path; the rack loads the
//! workload hooks and software validation; the datacenter loads window
//! scheduling, the cross-node merge and spine admission.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sabre_fabric::RackTopology;
use sabre_farm::{ObjectStore, StoreLayout};
use sabre_mem::Addr;
use sabre_rack::workloads::{Writer, WriterLayout};
use sabre_rack::{
    spec, Arrivals, Cluster, ClusterConfig, PlacementPolicy, Popularity, ReadMechanism, Topology,
    Workload, WorkloadSpec,
};
use sabre_sim::Time;

use crate::steps::StepClock;
use crate::trace::Tracer;

/// Clean payload bytes of every object (the paper's 1 KB comparison size).
pub const PAYLOAD: u32 = 1024;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The paper's two-chip pair under CREW conflict (Fig. 8, 1 KB, 8 writers).
    PairConflict,
    /// The `fig_tail` 8-node rack under open-loop Zipf traffic, FaRM reads.
    RackTail,
    /// The largest `fig_datacenter` point: 8 racks of 16 nodes.
    DcSpine,
}

impl Scenario {
    /// Every scenario, in presentation order.
    pub const ALL: [Scenario; 3] = [
        Scenario::PairConflict,
        Scenario::RackTail,
        Scenario::DcSpine,
    ];

    /// The name the command line and the result use.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::PairConflict => "pair_conflict",
            Scenario::RackTail => "rack_tail",
            Scenario::DcSpine => "dc_spine",
        }
    }

    /// Looks a scenario up by [`Scenario::name`].
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Simulated time run before measuring (metrics reset after it), so
    /// cold queues, empty backlogs and the first LLC fills stay out of the
    /// measured window.
    pub fn warmup(self) -> Time {
        match self {
            Scenario::PairConflict => Time::from_us(20),
            Scenario::RackTail => Time::from_us(100),
            Scenario::DcSpine => Time::from_us(20),
        }
    }

    /// The fixed simulated measurement window of one repetition.
    pub fn measure(self) -> Time {
        match self {
            Scenario::PairConflict => Time::from_us(120),
            Scenario::RackTail => Time::from_us(1_600),
            Scenario::DcSpine => Time::from_us(160),
        }
    }

    /// How many equal simulated steps the [`StepClock`] splits a timed
    /// measurement window into: a few tens of host µs each, short enough
    /// for the fastest-step estimator to find the host's quiet moments, and
    /// each longer than the event loop's 35 ns lookahead window.
    pub fn steps(self) -> u64 {
        match self {
            Scenario::PairConflict => 3_000,
            Scenario::RackTail => 4_000,
            Scenario::DcSpine => 4_000,
        }
    }

    /// The shipped event-loop shard count: one per node beyond the pair,
    /// as the figures run them.
    pub fn shards(self) -> usize {
        match self {
            Scenario::PairConflict => 1,
            Scenario::RackTail => 8,
            Scenario::DcSpine => 128,
        }
    }

    /// The rack configuration at `seed` with `shards` event-loop shards.
    pub fn config(self, seed: u64, shards: usize) -> ClusterConfig {
        let mut cfg = match self {
            Scenario::PairConflict => ClusterConfig::default(),
            Scenario::RackTail => ClusterConfig::with_nodes(8),
            Scenario::DcSpine => {
                let mut cfg = ClusterConfig::with_nodes(128);
                // One store followed by three readers per radix-4 leaf.
                cfg.topology = Topology::skewed(32, 3).with_placement(PlacementPolicy::RoundRobin);
                cfg.fabric.topology = RackTopology::datacenter_for(8, 4, 2);
                // 64 one-KB objects per shard fit in 2 MB; the 16 MB default
                // would cost two gigabytes of host memory.
                cfg.memory_bytes = 2 * 1024 * 1024;
                cfg
            }
        };
        cfg.seed = seed;
        cfg.shards = shards;
        cfg.threads = None;
        cfg
    }
}

/// Host time of each set-up phase of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Cluster::new`.
    pub cluster_new: Duration,
    /// Every `ObjectStore::init`, plus `Cluster::warm_llc` where the
    /// scenario warms the LLC.
    pub store_init: Duration,
    /// Every `WorkloadSpec::build` and `Cluster::add_workload`.
    pub workloads: Duration,
}

impl SetupTimes {
    /// Host time from the start of set-up to the first simulated instant.
    pub fn total(&self) -> Duration {
        self.cluster_new + self.store_init + self.workloads
    }
}

/// A materialized scenario, ready to run.
pub struct Built {
    /// The rack, at simulated time zero.
    pub cluster: Cluster,
    /// Host time spent building it.
    pub setup: SetupTimes,
    /// `(node, core)` of every reader; each must complete operations.
    pub readers: Vec<(usize, usize)>,
    /// Whether the readers run the per-CL software check on every
    /// completed read.
    pub validates: bool,
    /// Bytes one SABRe moves (0 when the scenario issues none).
    pub sabre_bytes: u32,
}

/// What one core runs: a declared reader or a local writer.
enum Program {
    Reader(WorkloadSpec),
    Writer(Writer),
}

/// Builds `scenario` at `seed` with `shards` event-loop shards. With a
/// tracer, every set-up call records a span and every installed workload is
/// wrapped in the tracer's hook clock; with a step clock, every installed
/// workload drives it too.
pub fn build(
    scenario: Scenario,
    seed: u64,
    shards: usize,
    mut tracer: Option<&mut Tracer>,
    steps: Option<&Arc<StepClock>>,
) -> Built {
    let cfg = scenario.config(seed, shards);
    let t0 = Instant::now();
    let mut cluster = Cluster::new(cfg.clone());
    let cluster_new = t0.elapsed();
    if let Some(t) = tracer.as_deref_mut() {
        t.record("rack.cluster.new", t0, Instant::now(), None);
    }

    let (layout, objects, warm, store_nodes) = match scenario {
        Scenario::PairConflict => (StoreLayout::Clean, 100, true, vec![1]),
        Scenario::RackTail => (StoreLayout::PerCl, 128, false, cfg.topology.store_nodes()),
        Scenario::DcSpine => (StoreLayout::Clean, 64, false, cfg.topology.store_nodes()),
    };
    let t1 = Instant::now();
    let mut stores = Vec::with_capacity(store_nodes.len());
    for &node in &store_nodes {
        let s = Instant::now();
        let store = ObjectStore::new(node as u8, Addr::new(0), layout, PAYLOAD, objects);
        store.init(cluster.node_memory_mut(node));
        if warm {
            cluster.warm_llc(node, store.object_addr(0), store.region_bytes());
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.record("farm.store_init", s, Instant::now(), Some((node, 0)));
        }
        stores.push(store);
    }
    let store_init = t1.elapsed();

    let t2 = Instant::now();
    let mut readers = Vec::new();
    for (node, core, program) in programs(scenario, &cfg, &stores) {
        let s = Instant::now();
        let mut workload: Box<dyn Workload> = match program {
            Program::Reader(spec) => {
                readers.push((node, core));
                spec.build(&[])
            }
            Program::Writer(writer) => Box::new(writer),
        };
        if let Some(t) = tracer.as_deref_mut() {
            workload = t.wrap(workload);
        }
        if let Some(clock) = steps {
            // Outside the hook timer, so hook time stays the workload's own.
            workload = clock.wrap(workload);
        }
        cluster.add_workload(node, core, workload);
        if let Some(t) = tracer.as_deref_mut() {
            t.record(
                "rack.workloads.install",
                s,
                Instant::now(),
                Some((node, core)),
            );
        }
    }
    let workloads = t2.elapsed();

    Built {
        cluster,
        setup: SetupTimes {
            cluster_new,
            store_init,
            workloads,
        },
        readers,
        validates: layout == StoreLayout::PerCl,
        sabre_bytes: match scenario {
            Scenario::RackTail => 0,
            _ => stores[0].wire_bytes() as u32,
        },
    }
}

/// The per-core programs of `scenario`, in installation order.
fn programs(
    scenario: Scenario,
    cfg: &ClusterConfig,
    stores: &[ObjectStore],
) -> Vec<(usize, usize, Program)> {
    let reader = |store: &ObjectStore, mech: ReadMechanism| {
        spec()
            .store(store.node() as usize)
            .payload(PAYLOAD)
            .mechanism(mech)
            .wire(store.slot_bytes() as u32)
            .objects(store.object_addrs())
    };
    match scenario {
        Scenario::PairConflict => {
            // 16 closed-loop readers on node 0; 8 zero-think CREW writers on
            // node 1, objects dealt round-robin so none owns a lone hot spot.
            let store = &stores[0];
            let mut out: Vec<_> = (0..cfg.cores_per_node)
                .map(|core| {
                    let spec = reader(store, ReadMechanism::Sabre).consume();
                    (0, core, Program::Reader(spec))
                })
                .collect();
            let writers = 8;
            let entries = store.object_entries();
            for w in 0..writers {
                let owned: Vec<_> = entries.iter().copied().skip(w).step_by(writers).collect();
                let writer = Writer::new(owned, PAYLOAD, WriterLayout::Clean, Time::ZERO);
                out.push((1, w, Program::Writer(writer)));
            }
            out
        }
        Scenario::RackTail => {
            // Two open-loop cores on each reader node, reader i bound to
            // shard i mod shards.
            let mech = ReadMechanism::PerClValidate { payload: PAYLOAD };
            cfg.topology
                .reader_nodes()
                .into_iter()
                .enumerate()
                .flat_map(|(i, node)| {
                    let store = &stores[i % stores.len()];
                    (0..2).map(move |core| {
                        let spec = reader(store, mech)
                            .arrivals(Arrivals::Poisson { ops_per_us: 0.8 })
                            .popularity(Popularity::Zipf { exponent: 0.99 });
                        (node, core, Program::Reader(spec))
                    })
                })
                .collect()
        }
        Scenario::DcSpine => {
            // One SABRe core per reader node, paired round-robin with the
            // store shards (most pairs cross the spine).
            cfg.topology
                .reader_nodes()
                .into_iter()
                .enumerate()
                .map(|(i, node)| {
                    let store_node = cfg.store_for_reader(i);
                    let store = stores
                        .iter()
                        .find(|s| s.node() as usize == store_node)
                        .expect("placement returns a store node");
                    (
                        node,
                        0,
                        Program::Reader(reader(store, ReadMechanism::Sabre)),
                    )
                })
                .collect()
        }
    }
}
