//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <pair_conflict|rack_tail|dc_spine> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer ones with `--trace 1`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use sabres_perfbench::run::{self, Metric, RunResult};
use sabres_perfbench::scenario::Scenario;
use sabres_perfbench::trace::Tracer;
use sabres_perfbench::DEFAULT_SEED;

const USAGE: &str = "usage: perfbench --workload <pair_conflict|rack_tail|dc_spine> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Hidden flag: run one repetition and report the process's peak memory.
const RSS_PROBE: &str = "--rss-probe";

struct Args {
    scenario: Scenario,
    seed: u64,
    seconds: u64,
    trace: bool,
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut scenario = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut rss_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == RSS_PROBE {
            rss_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                scenario =
                    Some(Scenario::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        scenario: scenario.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rss_probe,
    })
}

/// This process's peak resident memory (`VmHWM`), in kB.
fn vm_hwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Child processes the memory probe starts, one after another; the median
/// of their peaks is reported. A process's peak varies by a few hundred kB
/// from one start to the next.
const RSS_PROBES: usize = 5;

/// Peak memory of one child process that runs one repetition of the
/// scenario alone, in MB.
fn probe_rss_mb(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            RSS_PROBE,
            "--workload",
            args.scenario.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("memory probe failed ({}): {stdout}", out.status));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("vmhwm_kb "))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("memory probe printed no peak: {stdout}"))
}

/// Median peak memory of [`RSS_PROBES`] probe processes, in MB.
fn peak_rss_mb(args: &Args) -> Result<f64, String> {
    let mut peaks = (0..RSS_PROBES)
        .map(|_| probe_rss_mb(args))
        .collect::<Result<Vec<f64>, String>>()?;
    peaks.sort_by(f64::total_cmp);
    Ok(peaks[RSS_PROBES / 2])
}

/// The run's result as the one-line JSON object the last output line holds.
fn json_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            // `{}` on f64 prints the shortest form that reads back exactly.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.tally.correct() && result.metrics.iter().all(|m| m.value.is_finite()),
        result.tally.attempted,
        result.tally.failed,
        metrics.join(", ")
    )
}

/// Where the traced run writes its spans: beside the benchmark's own
/// executable, inside the build directory.
fn spans_path(args: &Args) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(dir.join(format!("{}-seed{}.jsonl", args.scenario.name(), args.seed)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scenario = args.scenario;
    if args.rss_probe {
        let rep = run::repetition(
            scenario,
            args.seed,
            scenario.shards(),
            run::Watch::Steps,
            None,
        );
        if !rep.violations.is_empty() {
            eprintln!("perfbench: {}", rep.violations.join("; "));
            return ExitCode::FAILURE;
        }
        return match vm_hwm_kb() {
            Ok(kb) => {
                println!("vmhwm_kb {kb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let budget = Duration::from_secs(args.seconds);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        scenario.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        let mut tracer = Tracer::new();
        let result = run::traced(scenario, args.seed, budget, &mut tracer);
        match spans_path(&args).and_then(|p| {
            tracer
                .write_jsonl(&p, scenario.name())
                .map(|()| p)
                .map_err(|e| e.to_string())
        }) {
            Ok(p) => println!("spans: {} written to {}", tracer.spans().len(), p.display()),
            Err(e) => eprintln!("perfbench: spans not written: {e}"),
        }
        result
    } else {
        let mut result = run::untraced(scenario, args.seed, budget);
        result.tally.attempted += 1;
        match peak_rss_mb(&args) {
            Ok(mb) => result.metrics.push(Metric {
                name: "peak_rss_mb",
                value: mb,
                unit: "MB",
            }),
            Err(e) => {
                result.tally.failed += 1;
                result.tally.failures.push(e);
            }
        }
        result
    };
    for note in &result.notes {
        println!("  {note}");
    }
    for failure in &result.tally.failures {
        println!("  FAILED {failure}");
    }
    for m in &result.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(&result));
    ExitCode::SUCCESS
}
