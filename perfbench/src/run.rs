//! Repetitions and the two kinds of run: the untraced run that gives the
//! end-to-end metrics, and the traced run that gives the per-layer ones.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sabre_sim::Time;

use crate::check::{self, FabricMark, Outcome};
use crate::replay::{self, LinkLoad};
use crate::scenario::{self, Scenario, SetupTimes, PAYLOAD};
use crate::steps::StepClock;
use crate::trace::Tracer;

/// Fewest repetitions a run makes, however short its time budget.
pub const MIN_REPS: usize = 3;

/// Times each layer replay runs; the median is reported.
const REPLAYS: usize = 5;

/// One repetition: set-up, warm-up, and the measured window.
pub struct Rep {
    /// Host time of each set-up phase.
    pub setup: SetupTimes,
    /// Host time of the measured window.
    pub measure: Duration,
    /// Host time of each of the window's [`Scenario::steps`] steps (empty
    /// for a bare repetition).
    pub steps: Vec<Duration>,
    /// What the window simulated.
    pub outcome: Outcome,
    /// Broken conservation identities, if any.
    pub violations: Vec<String>,
    /// Whether the readers run the per-CL software check.
    pub validates: bool,
    /// Bytes one SABRe moves (0 without SABRes).
    pub sabre_bytes: u32,
    /// Per-link traffic of the window (traced repetitions only).
    pub links: Vec<LinkLoad>,
    /// The traced window's span (traced repetitions only).
    pub measure_span: Option<usize>,
}

impl Rep {
    /// Simulated µs of the measured window per host second.
    pub fn sim_us_per_s(&self, scenario: Scenario) -> f64 {
        scenario.measure().as_us() / self.measure.as_secs_f64()
    }
}

/// Per-link `(packets, bytes)` counters of every directed node pair.
fn link_counters(cluster: &sabre_rack::Cluster) -> Vec<(u64, u64)> {
    let n = cluster.config().nodes;
    let fabric = cluster.fabric();
    (0..n * n)
        .map(|i| (i / n, i % n))
        .map(|(s, d)| {
            if s == d {
                (0, 0)
            } else {
                (fabric.link_packets(s, d), fabric.link_bytes(s, d))
            }
        })
        .collect()
}

/// Opens span `name` if there is a tracer.
fn open(tracer: &mut Option<&mut Tracer>, name: &'static str) -> Option<usize> {
    tracer.as_deref_mut().map(|t| t.open(name))
}

/// Closes `span` if there is a tracer.
fn close(tracer: &mut Option<&mut Tracer>, span: Option<usize>) {
    if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
        t.close(span);
    }
}

/// What watches a repetition's measured window. Either way the window runs
/// as one `run_for` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watch {
    /// Nothing: the reference every watched repetition must reproduce.
    Bare,
    /// A [`StepClock`] times each of the window's [`Scenario::steps`].
    Steps,
}

/// Runs one repetition of `scenario` at `seed` on `shards` event-loop
/// shards. With a tracer, set-up calls record spans, workload hooks are
/// timed, and every step of a watched window is a span.
pub fn repetition(
    scenario: Scenario,
    seed: u64,
    shards: usize,
    watch: Watch,
    mut tracer: Option<&mut Tracer>,
) -> Rep {
    let clock = (watch == Watch::Steps).then(StepClock::new);
    let rep_span = open(&mut tracer, "rep");
    let setup_span = open(&mut tracer, "setup");
    let built = scenario::build(
        scenario,
        seed,
        shards,
        tracer.as_deref_mut(),
        clock.as_ref(),
    );
    close(&mut tracer, setup_span);
    let mut cluster = built.cluster;
    let mut violations = Vec::new();

    let warm_span = open(&mut tracer, "rack.cluster.warmup");
    cluster.run_for(scenario.warmup());
    close(&mut tracer, warm_span);
    // Counted from time zero, nothing can complete unregistered.
    let e = check::engine_totals(&cluster);
    let completed = e.completed_ok + e.completed_failed;
    if completed > e.registered {
        violations.push(format!(
            "engine at warm-up end: {completed} completed > {} registered",
            e.registered
        ));
    }
    let in_flight = e.registered.saturating_sub(completed);
    cluster.reset_metrics();

    let start = FabricMark::of(&cluster);
    let links_before = tracer.is_some().then(|| link_counters(&cluster));
    let measure_span = open(&mut tracer, "measure");
    let t = Instant::now();
    if let Some(clock) = &clock {
        let n = scenario.steps();
        let ps = scenario.measure().as_ps();
        assert_eq!(ps % n, 0, "steps divide the window exactly");
        clock.arm(cluster.now(), Time::from_ps(ps / n), n);
    }
    cluster.run_for(scenario.measure());
    let steps = clock.as_ref().map_or_else(Vec::new, |c| c.finish());
    let measure = t.elapsed();
    if let Some(tr) = tracer.as_deref_mut() {
        let mut at = t;
        for d in &steps {
            tr.record("rack.cluster.step", at, at + *d, None);
            at += *d;
        }
    }
    close(&mut tracer, measure_span);

    let outcome = check::outcome(&cluster, &start);
    violations.extend(check::conservation(
        &cluster,
        &outcome,
        in_flight,
        &built.readers,
    ));
    let n = cluster.config().nodes;
    let links = links_before.map_or_else(Vec::new, |before| {
        link_counters(&cluster)
            .into_iter()
            .zip(before)
            .enumerate()
            .filter(|(_, ((p, _), (p0, _)))| p > p0)
            .map(|(i, ((p, b), (p0, b0)))| LinkLoad {
                src: i / n,
                dst: i % n,
                packets: p - p0,
                bytes: b - b0,
            })
            .collect()
    });
    close(&mut tracer, rep_span);
    Rep {
        setup: built.setup,
        measure,
        steps,
        outcome,
        violations,
        validates: built.validates,
        sabre_bytes: built.sabre_bytes,
        links,
        measure_span,
    }
}

/// Attempted and failed repetitions of one run, and the digest every
/// repetition must reproduce.
#[derive(Debug, Default)]
pub struct Tally {
    /// Repetitions attempted.
    pub attempted: u64,
    /// Repetitions that panicked, broke a conservation identity or
    /// simulated something other than the first repetition did.
    pub failed: u64,
    /// The first successful repetition's digest.
    pub digest: Option<u64>,
    /// Why each failed repetition failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Runs one repetition, catching a panic; returns it if it passed the
    /// output check.
    pub fn attempt(&mut self, what: &str, rep: impl FnOnce() -> Rep) -> Option<Rep> {
        self.attempted += 1;
        let rep = match panic::catch_unwind(AssertUnwindSafe(rep)) {
            Ok(rep) => rep,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.fail(format!("{what}: panicked: {msg}"));
                return None;
            }
        };
        let mut bad = rep.violations.clone();
        let digest = rep.outcome.digest;
        match self.digest {
            None => self.digest = Some(digest),
            Some(d) if d != digest => bad.push(format!("digest {digest:016x}, expected {d:016x}")),
            Some(_) => {}
        }
        if bad.is_empty() {
            Some(rep)
        } else {
            self.fail(format!("{what}: {}", bad.join("; ")));
            None
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Whether every attempted repetition passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Sorted copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` of `xs` by linear interpolation between order statistics
/// (0 for an empty sample).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (0 for an empty sample).
fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One line describing a sample: median, quartiles and size.
fn describe(name: &str, xs: &[f64]) -> String {
    format!(
        "{name}: median {:.6} (q1 {:.6}, q3 {:.6}, n={})",
        median(xs),
        quantile(xs, 0.25),
        quantile(xs, 0.75),
        xs.len()
    )
}

/// The result of a run: its tally, metrics and human-readable notes.
pub struct RunResult {
    /// Attempted and failed repetitions.
    pub tally: Tally,
    /// Every metric the run reports.
    pub metrics: Vec<Metric>,
    /// Lines for the human reader (sample sizes, spreads, failures).
    pub notes: Vec<String>,
}

/// Repeats step-timed repetitions for `budget` (at least [`MIN_REPS`] of
/// them), traced when a tracer is given, returning the passing ones.
fn reps_for(
    scenario: Scenario,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Rep> {
    let what = if tracer.is_some() {
        "traced repetition"
    } else {
        "repetition"
    };
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut attempts = 0;
    while attempts < MIN_REPS || t0.elapsed() < budget {
        attempts += 1;
        let rep = tally.attempt(what, || {
            repetition(
                scenario,
                seed,
                scenario.shards(),
                Watch::Steps,
                tracer.as_deref_mut(),
            )
        });
        reps.extend(rep);
    }
    reps
}

/// Simulated µs per host second of the fastest window the repetitions
/// show: each step at the fastest host time any repetition ran it in.
///
/// Every repetition simulates the same steps, so this is a fastest-of-N
/// timing per step. Other tenants of a shared host slow a run in phases of
/// seconds; taking the minimum per millisecond-scale step discards those
/// phases where a median over whole windows cannot.
fn fastest_sim_us_per_s(scenario: Scenario, reps: &[Rep]) -> f64 {
    let Some(first) = reps.first() else {
        return 0.0;
    };
    let fastest: f64 = (0..first.steps.len())
        .map(|k| {
            reps.iter()
                .map(|r| r.steps[k].as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    scenario.measure().as_us() / fastest
}

/// The untraced run: end-to-end metrics, except peak memory, which needs a
/// process of its own.
pub fn untraced(scenario: Scenario, seed: u64, budget: Duration) -> RunResult {
    let mut tally = Tally::default();
    let reps = reps_for(scenario, seed, budget, &mut tally, None);
    // The shard count is an execution knob and the step clock only
    // watches: one shard, unwatched, must simulate exactly what the timed
    // repetitions did.
    tally.attempt("bare shards=1 reference", || {
        repetition(scenario, seed, 1, Watch::Bare, None)
    });
    let speeds: Vec<f64> = reps.iter().map(|r| r.sim_us_per_s(scenario)).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup.total().as_secs_f64()).collect();
    let notes = vec![
        describe("sim_us_per_s per window", &speeds),
        describe("setup_s", &setups),
    ];
    RunResult {
        metrics: vec![
            metric(
                "sim_us_per_s",
                fastest_sim_us_per_s(scenario, &reps),
                "us/s",
            ),
            metric("setup_s", median(&setups), "s"),
        ],
        notes,
        tally,
    }
}

/// Median of a replay's ns per call over [`REPLAYS`] runs.
fn replay_ns(mut run: impl FnMut() -> replay::Replay) -> f64 {
    let ns: Vec<f64> = (0..REPLAYS).map(|_| run().ns_per_call()).collect();
    median(&ns)
}

/// The traced run: half the budget untraced (the speed baseline and the
/// digest to match), half traced, then the layer replays.
///
/// Observation must never change a result: the traced repetitions, and
/// one bare repetition that neither a tracer nor a step clock watches,
/// must reproduce the untraced digest.
pub fn traced(scenario: Scenario, seed: u64, budget: Duration, tracer: &mut Tracer) -> RunResult {
    let mut tally = Tally::default();
    let plain = reps_for(scenario, seed, budget / 2, &mut tally, None);
    let reps = reps_for(scenario, seed, budget / 2, &mut tally, Some(&mut *tracer));
    tally.attempt("bare reference", || {
        repetition(scenario, seed, scenario.shards(), Watch::Bare, None)
    });

    let mut notes = Vec::new();
    let (Some(first), false) = (reps.first(), plain.is_empty()) else {
        notes.push("no passing repetition: no per-layer metric".to_string());
        return RunResult {
            tally,
            metrics: Vec::new(),
            notes,
        };
    };
    let cfg = scenario.config(seed, scenario.shards());
    let spans = tracer.spans();
    let mut steps_us = Vec::new();
    let mut self_share = Vec::new();
    let mut hook_share = Vec::new();
    let mut hook_ns_per_call = Vec::new();
    for rep in &reps {
        let id = rep.measure_span.expect("traced repetitions record a span");
        let window = &spans[id];
        steps_us.extend(rep.steps.iter().map(|d| d.as_secs_f64() * 1e6));
        let window_ns = window.duration_ns() as f64;
        let self_ns = window_ns - (window.hook_ns as f64).min(window_ns);
        self_share.push(self_ns / window_ns);
        hook_share.push(window.hook_ns as f64 / window_ns);
        hook_ns_per_call.push(ratio(window.hook_ns as f64, window.hook_calls as f64));
    }
    let all: Vec<&Rep> = plain.iter().chain(&reps).collect();
    let setup_ms = |f: fn(&SetupTimes) -> Duration| -> f64 {
        median(
            &all.iter()
                .map(|r| f(&r.setup).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let plain_speed = fastest_sim_us_per_s(scenario, &plain);
    let traced_speed = fastest_sim_us_per_s(scenario, &reps);
    let measure_ns = median(
        &plain
            .iter()
            .map(|r| r.measure.as_nanos() as f64)
            .collect::<Vec<_>>(),
    );
    notes.push(describe("rack.cluster.step_us", &steps_us));
    notes.push(format!(
        "{} untraced and {} traced repetitions; untraced {plain_speed:.3} us/s, traced {traced_speed:.3} us/s",
        plain.len(),
        reps.len()
    ));

    let o = &first.outcome;
    let m = &o.rack;
    let ops = m.ops as f64;
    let hop = &o.fabric.hops;
    let packets = hop.packets as f64;
    let window = first.measure_span.map(|id| &spans[id]).expect("traced");

    let validations = if first.validates {
        m.ops + m.retries
    } else {
        0
    };
    let validate_ns = replay_ns(|| replay::validate_and_strip(PAYLOAD as usize, validations));
    let send_ns = replay_ns(|| replay::fabric_send(&cfg.fabric, &first.links, scenario.measure()));
    let sabre_bytes = if first.sabre_bytes > 0 {
        first.sabre_bytes
    } else {
        // No SABRe in this scenario: time the 1 KB clean object's.
        sabre_farm::StoreLayout::Clean.wire_bytes(PAYLOAD as usize) as u32
    };
    let registered = o.engine.registered;
    let lifecycle_ns =
        replay_ns(|| replay::engine_lifecycle(&cfg.lightsabres, sabre_bytes, registered));
    let e = &o.engine;
    let hist = &m.latency_hist;

    let metrics = vec![
        metric("rack.cluster.step_us_p50", median(&steps_us), "us"),
        metric("rack.cluster.step_us_p99", quantile(&steps_us, 0.99), "us"),
        metric("rack.cluster.self_share", median(&self_share), "ratio"),
        metric("rack.cluster.new_ms", setup_ms(|s| s.cluster_new), "ms"),
        metric("farm.store_init_ms", setup_ms(|s| s.store_init), "ms"),
        metric(
            "rack.workloads.hook_calls_per_op",
            ratio(window.hook_calls as f64, ops),
            "count",
        ),
        metric(
            "rack.workloads.hook_ns_per_call",
            median(&hook_ns_per_call),
            "ns",
        ),
        metric("rack.workloads.hook_share", median(&hook_share), "ratio"),
        metric("sw.validate_ns", validate_ns, "ns"),
        metric(
            "sw.est_share",
            validations as f64 * validate_ns / measure_ns,
            "ratio",
        ),
        metric("fabric.packets_per_op", ratio(packets, ops), "count"),
        metric(
            "fabric.hops_per_packet",
            ratio(hop.hops as f64, packets),
            "count",
        ),
        metric(
            "fabric.spine_share",
            ratio(hop.spine_crossings as f64, packets),
            "ratio",
        ),
        metric(
            "fabric.uplink_queued_share",
            ratio(hop.uplink_queued as f64, packets),
            "ratio",
        ),
        metric(
            "fabric.spine_queued_share",
            ratio(hop.spine_queued as f64, packets),
            "ratio",
        ),
        metric("fabric.send_ns", send_ns, "ns"),
        metric("fabric.est_share", packets * send_ns / measure_ns, "ratio"),
        metric(
            "sonuma.r2p2.plain_reads_per_op",
            ratio(o.r2p2.plain_reads as f64, ops),
            "count",
        ),
        metric(
            "sonuma.r2p2.writes_per_op",
            ratio(o.r2p2.writes as f64, ops),
            "count",
        ),
        metric(
            "sonuma.r2p2.sabres_parked",
            o.r2p2.sabres_parked as f64,
            "count",
        ),
        metric(
            "core.engine.ok_ratio",
            ratio(e.completed_ok as f64, e.registered as f64),
            "ratio",
        ),
        metric(
            "core.engine.aborts_window_conflict",
            e.aborts_window_conflict as f64,
            "count",
        ),
        metric("core.engine.revalidations", e.revalidations as f64, "count"),
        metric("core.engine.depth_stalls", e.depth_stalls as f64, "count"),
        metric("core.engine.lifecycle_ns", lifecycle_ns, "ns"),
        metric(
            "core.engine.est_share",
            registered as f64 * lifecycle_ns / measure_ns,
            "ratio",
        ),
        metric("rack.metrics.ops", ops, "count"),
        metric(
            "rack.metrics.retries_per_op",
            ratio(m.retries as f64, ops),
            "ratio",
        ),
        metric(
            "rack.metrics.queued_share",
            ratio(m.queued_arrivals as f64, ops),
            "ratio",
        ),
        metric("rack.metrics.peak_backlog", m.peak_backlog as f64, "count"),
        metric(
            "rack.metrics.lat_p50_ns",
            hist.p50().unwrap_or(0) as f64,
            "ns",
        ),
        metric(
            "rack.metrics.lat_p99_ns",
            hist.p99().unwrap_or(0) as f64,
            "ns",
        ),
        metric(
            "rack.metrics.lat_p999_ns",
            hist.p999().unwrap_or(0) as f64,
            "ns",
        ),
        metric(
            "rack.metrics.goodput_gbps",
            m.bytes as f64 / scenario.measure().as_ns(),
            "GB/s",
        ),
        metric("trace.overhead", 1.0 - traced_speed / plain_speed, "ratio"),
    ];
    RunResult {
        tally,
        metrics,
        notes,
    }
}
