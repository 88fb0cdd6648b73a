//! The benchmark's own checks: every workload passes the output check on
//! both seeds, observation never changes a result, and the runs report
//! exactly the metrics `BENCHMARK.json` lists.
//!
//! Run with `--release`: each repetition simulates a full measured window.

use std::time::Duration;

use sabres_perfbench::run::{self, repetition, Tally, Watch};
use sabres_perfbench::scenario::Scenario;
use sabres_perfbench::trace::Tracer;
use sabres_perfbench::{DEFAULT_SEED, HELD_OUT_SEED};

#[test]
fn every_workload_passes_the_output_check_on_both_seeds() {
    for scenario in Scenario::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let mut tally = Tally::default();
            for _ in 0..2 {
                tally.attempt("repetition", || {
                    repetition(scenario, seed, scenario.shards(), Watch::Steps, None)
                });
            }
            tally.attempt("bare shards=1 reference", || {
                repetition(scenario, seed, 1, Watch::Bare, None)
            });
            assert!(
                tally.correct(),
                "{} seed {seed}: {:?}",
                scenario.name(),
                tally.failures
            );
        }
    }
}

#[test]
fn tracing_leaves_the_digest_unchanged() {
    for scenario in Scenario::ALL {
        let plain = repetition(
            scenario,
            DEFAULT_SEED,
            scenario.shards(),
            Watch::Steps,
            None,
        );
        let mut tracer = Tracer::new();
        let traced = repetition(
            scenario,
            DEFAULT_SEED,
            scenario.shards(),
            Watch::Steps,
            Some(&mut tracer),
        );
        assert!(traced.violations.is_empty(), "{:?}", traced.violations);
        assert_eq!(
            plain.outcome.digest,
            traced.outcome.digest,
            "{}: tracing changed the simulation",
            scenario.name()
        );
        let spans = tracer.spans();
        let steps = spans.iter().filter(|s| s.name == "rack.cluster.step");
        assert_eq!(steps.count() as u64, scenario.steps());
        let window = &spans[traced.measure_span.expect("traced window span")];
        assert!(window.hook_calls > 0, "wrapped workloads were timed");
    }
}

#[test]
fn the_step_clock_leaves_the_digest_unchanged() {
    for scenario in Scenario::ALL {
        let bare = repetition(scenario, DEFAULT_SEED, scenario.shards(), Watch::Bare, None);
        let stepped = repetition(
            scenario,
            DEFAULT_SEED,
            scenario.shards(),
            Watch::Steps,
            None,
        );
        assert_eq!(
            bare.outcome.digest,
            stepped.outcome.digest,
            "{}: the step clock changed the simulation",
            scenario.name()
        );
        assert!(bare.steps.is_empty());
        assert_eq!(stepped.steps.len() as u64, scenario.steps());
        assert!(stepped.steps.iter().sum::<Duration>() <= stepped.measure);
    }
}

#[test]
fn the_seed_changes_what_is_simulated() {
    for scenario in Scenario::ALL {
        let a = repetition(scenario, DEFAULT_SEED, 1, Watch::Steps, None);
        let b = repetition(scenario, HELD_OUT_SEED, 1, Watch::Steps, None);
        assert_ne!(a.outcome.digest, b.outcome.digest, "{}", scenario.name());
    }
}

/// The `"name"` values of one metric list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn runs_report_exactly_the_listed_metrics() {
    let scenario = Scenario::RackTail;
    let untraced = run::untraced(scenario, DEFAULT_SEED, Duration::ZERO);
    let mut names: Vec<String> = untraced
        .metrics
        .iter()
        .map(|m| m.name.to_string())
        .collect();
    // The binary adds peak memory from a child process of its own.
    names.push("peak_rss_mb".to_string());
    assert_eq!(names, listed("end_to_end"));

    let traced = run::traced(scenario, DEFAULT_SEED, Duration::ZERO, &mut Tracer::new());
    assert!(traced.tally.correct(), "{:?}", traced.tally.failures);
    let names: Vec<String> = traced.metrics.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names, listed("per_layer"));
}
