//! The repository benchmark: four workloads over the library's public API,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one.  See `README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <ingest_steady|ingest_failover|fusion_cold|fusion_evolve>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result; the lines above it
//! describe the run.  The exit code is 0 when every output checked
//! correct, 1 when a check failed and 2 on bad usage.

mod calib;
mod fusion;
mod heap;
mod ingest;
mod report;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use fsm_distsys::{DurabilityConfig, IngestConfig};
use fsm_fusion_core::FusionConfig;

use report::{result_json, WorkloadResult, END_TO_END, PER_LAYER};
use stats::wait_for_calm;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 4] = [
    "ingest_steady",
    "ingest_failover",
    "fusion_cold",
    "fusion_evolve",
];

/// Before a run starts, steal must stay under `CALM_STEAL` of one busy CPU
/// over a window of `CALM_WINDOW`; a run waits at most `CALM_WAIT` for
/// one.  On a calm host one busy CPU loses 0-6% a second.
const CALM_STEAL: f64 = 0.1;
const CALM_WINDOW: Duration = Duration::from_secs(2);
const CALM_WAIT: Duration = Duration::from_secs(60);

#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The `FSM_*` variables in the environment: any of them could override a
/// library default and silently change what is measured.
fn overrides(vars: impl Iterator<Item = String>) -> Vec<String> {
    vars.filter(|k| k.starts_with("FSM_")).collect()
}

/// The resolved library settings the run measures.
fn knobs() -> String {
    let fusion = FusionConfig::new();
    let ingest = IngestConfig::new();
    format!(
        "engine={:?} workers={} product={:?} batch_max={} flush_interval_ms={} queue_cap={} \
         snapshot_every={} available_parallelism={}",
        fusion.resolved_engine(),
        fusion.resolved_workers(),
        fusion.resolved_product(),
        ingest.resolved_batch_max(),
        ingest.resolved_flush_interval().as_secs_f64() * 1e3,
        ingest.resolved_queue_cap(),
        DurabilityConfig::new().resolved_snapshot_every(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}

/// Where traces and saved untraced results go: under the build directory,
/// inside the checkout.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-out")
}

fn e2e_text(r: &WorkloadResult) -> String {
    END_TO_END
        .iter()
        .zip(r.e2e.values())
        .map(|((name, _), v)| format!("{name} {v:?}\n"))
        .collect()
}

/// Traced minus untraced end-to-end figures, against the last untraced
/// run of the same workload saved in `out_dir`.
fn overhead_lines(r: &WorkloadResult, saved: &str) -> Vec<String> {
    END_TO_END
        .iter()
        .zip(r.e2e.values())
        .filter_map(|((name, unit), traced)| {
            let untraced: f64 = saved
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))?
                .parse()
                .ok()?;
            let pct = if untraced != 0.0 {
                (traced - untraced) / untraced * 100.0
            } else {
                0.0
            };
            Some(format!(
                "trace overhead {name}: traced {traced:.4} {unit} vs untraced {untraced:.4} {unit} ({pct:+.1}%)"
            ))
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let set = overrides(std::env::vars().map(|(k, _)| k));
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the benchmark measures library defaults",
            set.join(", ")
        );
        return ExitCode::from(2);
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("knobs {}", knobs());
    // A few times an hour the host stalls the container for a minute or
    // two, and every ingest run inside such a stretch reads up to 3.7x its
    // usual latency; so a run starts once a window shows little steal.
    let (waited, steal) = wait_for_calm(CALM_STEAL, CALM_WINDOW, CALM_WAIT);
    println!(
        "waited {waited:.1} s for the host to calm down (steal {:.1}% of a busy CPU over the last {} s)",
        steal * 100.0,
        CALM_WINDOW.as_secs()
    );
    let mut result = match args.workload {
        "ingest_steady" => ingest::run(args.seconds, args.seed, false, args.trace),
        "ingest_failover" => ingest::run(args.seconds, args.seed, true, args.trace),
        "fusion_cold" => fusion::cold(args.seconds, args.trace),
        _ => fusion::evolve(args.seconds, args.trace),
    };
    for line in &result.lines {
        println!("{line}");
    }
    println!("failed_frac={}", result.outcome.failed_frac());

    let dir = out_dir();
    let _ = std::fs::create_dir_all(&dir);
    let saved = dir.join(format!("e2e-{}.txt", args.workload));
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let record_ns = trace::Tracer::record_cost_ns();
        let spans = result.spans.len() as f64;
        result.layers.extend([
            ("trace.spans", spans),
            ("trace.record_ns", record_ns),
            (
                "trace.overhead_pct",
                spans * record_ns / result.window_ns.max(1) as f64 * 100.0,
            ),
        ]);
        if let Ok(text) = std::fs::read_to_string(&saved) {
            for line in overhead_lines(&result, &text) {
                println!("{line}");
            }
        }
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let mut json = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"knobs\": \"{}\",\n\"layers\": {{",
            args.workload,
            args.seed,
            args.seconds,
            knobs()
        );
        for (i, (name, _)) in PER_LAYER.iter().enumerate() {
            let v = result.layers.get(name).copied().unwrap_or(0.0);
            let _ = write!(json, "{}\"{name}\": {v:?}", if i == 0 { "" } else { ", " });
        }
        json.push_str("},\n\"spans\": ");
        json.push_str(&trace::spans_json(&result.spans));
        json.push_str("}\n");
        match std::fs::write(&path, json) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("could not write {}: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, result.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let _ = std::fs::write(&saved, e2e_text(&result));
        END_TO_END
            .iter()
            .zip(result.e2e.values())
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    println!("{}", result_json(&result.outcome, &metrics));
    if result.outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            parse_args(&args(
                "--workload fusion_cold --seed 3 --seconds 10 --trace 1"
            )),
            Ok(Args {
                workload: "fusion_cold",
                seed: 3,
                seconds: 10,
                trace: true
            })
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload fusion_cold --seconds 10")).is_err());
        assert!(parse_args(&args("--workload fusion_cold --seed x --seconds 10")).is_err());
        assert!(parse_args(&args(
            "--workload fusion_cold --seed 1 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload")).is_err());
    }

    #[test]
    fn any_fsm_variable_is_an_override() {
        let vars = [
            "PATH",
            "FSM_FUSION_WORKERS",
            "HOME",
            "FSM_DISTSYS_BATCH_MAX",
        ];
        assert_eq!(
            overrides(vars.iter().map(|s| s.to_string())),
            vec!["FSM_FUSION_WORKERS", "FSM_DISTSYS_BATCH_MAX"]
        );
        assert!(overrides(["CARGO_TARGET_DIR".to_string()].into_iter()).is_empty());
    }

    #[test]
    fn overhead_compares_against_the_saved_untraced_figures() {
        let mut r = WorkloadResult::default();
        r.e2e.p50_ms = 1.1;
        let lines = overhead_lines(&r, "setup_s 0.5\nlatency_p50_ms 1.0\n");
        assert_eq!(lines.len(), 2);
        assert!(
            lines[1].contains("latency_p50_ms") && lines[1].contains("+10.0%"),
            "{lines:?}"
        );
    }
}
