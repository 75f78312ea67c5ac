//! The HyPar planning-service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chain_hot|dag_refine|paper_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it drives `hypar_engine::service::handle_line`
//! in-process, closed-loop, for `S` seconds and prints the end-to-end
//! metrics; with `--trace 1` it times each layer's public functions from
//! outside the engine and prints the per-layer metrics.  Every reply is
//! checked.  The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `README.md` beside this file for the workloads and metrics.

#![forbid(unsafe_code)]

mod run;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::run::{Fidelity, Prepared};
use crate::workload::Workload;

/// The per-layer metrics of the result line on the bounded workloads:
/// every timing the traced run measures on both of them, and every count
/// or ratio that is not 0 on both.  Timings of layers only one of them
/// reaches (a 0 elsewhere would read the same in every run) and counters
/// that read 0 on both (`engine.cache_evictions`, the `graph.*` counts,
/// `core.refine_accept_ratio`) are printed in the breakdown above the
/// result line.  `dag_refine`'s result line carries everything it
/// measured.
const PER_LAYER: [&str; 16] = [
    "service.parse_us",
    "service.serialize_us",
    "service.reply_bytes",
    "engine.plan_hit_us",
    "engine.fingerprint_us",
    "engine.cache_hit_ratio",
    "models.infer_us",
    "comm.tensors_us",
    "core.search_us",
    "core.exhaustive_candidates",
    "sim.step_us",
    "sim.tasks",
    "sim.ns_per_task",
    "telemetry.state_hash_us",
    "trace.unattributed_us",
    "trace.overhead_share",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse()?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A run's result line.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    match bench(&args, started) {
        Ok(outcome) => {
            let correct = outcome.failed == 0;
            println!("{}", result_json(correct, &outcome));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} requests failed their check",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args, started: Instant) -> Result<Outcome, String> {
    let workload = args.workload;
    let (prepared, setup_times) =
        run::prepare_repeated(workload, args.seed, run::SETUP_REPS_BEFORE, None)?;
    println!(
        "# {workload} seed {}: {} distinct requests, digest {}; {} set-ups, first timed request {:.3} s after start",
        args.seed,
        prepared.generated.lines.len(),
        prepared.digest,
        setup_times.len(),
        started.elapsed().as_secs_f64(),
    );
    if args.seed == workload::HELD_OUT_SEED {
        println!("# seed {} is the held-out seed", args.seed);
    }
    let outcome = if args.trace {
        traced(workload, &prepared, args.seconds)?
    } else {
        end_to_end(workload, args.seed, &prepared, args.seconds, setup_times)?
    };
    if outcome.attempted < 1000 {
        println!(
            "# note: {} requests is fewer than the 1000 a p99 needs",
            outcome.attempted
        );
    }
    Ok(outcome)
}

fn end_to_end(
    workload: Workload,
    seed: u64,
    prepared: &Prepared,
    seconds: f64,
    setup_times: Vec<Duration>,
) -> Result<Outcome, String> {
    let mut timed = run::run_timed(workload, prepared, seconds);
    // More set-ups after the loop, so `setup_s` samples two moments of a
    // shared host; each must reply exactly as the first did.
    let (_, after) = run::prepare_repeated(workload, seed, run::SETUP_REPS_AFTER, Some(prepared))?;
    let setup_times: Vec<Duration> = setup_times.into_iter().chain(after).collect();
    if workload.is_hot() {
        let stats = prepared.engine.cache_stats();
        let distinct = prepared.generated.lines.len() as u64;
        if stats.misses != distinct || stats.hits < timed.attempted || stats.evictions != 0 {
            println!(
                "# cache check failed: {stats:?} after {} timed requests",
                timed.attempted
            );
            timed.failed += 1;
        }
    }
    let fidelity = run::fidelity_pass()?;
    print_fidelity(workload, fidelity);
    let completed = timed.attempted - timed.failed;
    println!(
        "# {} requests ({} failed, error_share {}), {} client(s); completed per {} ms window: {:?}",
        timed.attempted,
        timed.failed,
        timed.failed as f64 / timed.attempted.max(1) as f64,
        prepared.generated.schedules.len(),
        run::WINDOW.as_millis(),
        timed
            .clients
            .iter()
            .map(|c| c.iter().map(|w| w.completed).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
    );
    println!(
        "# latency p99 over all {} timed requests {:.4} ms; worst {} ms window p99 {:.4} ms",
        timed.latencies.len(),
        timed.p99_ms(),
        run::WINDOW.as_millis(),
        timed.worst_window_p99_ms(),
    );
    let metrics = vec![
        (
            "setup_s",
            run::median(setup_times.iter().map(Duration::as_secs_f64).collect()),
            "s",
        ),
        ("throughput_rps", timed.throughput_rps(), "1/s"),
        ("latency_p50_ms", timed.p50_ms(), "ms"),
        ("latency_p99_ms", timed.p99_ms(), "ms"),
        (
            "ok_share",
            completed as f64 / timed.attempted.max(1) as f64,
            "share",
        ),
        ("peak_rss_mb", run::peak_rss_mb()?, "MB"),
        ("plan_comm_gb", run::plan_comm_gb(prepared)?, "GB"),
        ("paper_perf_err", fidelity.perf_err(), "share"),
        ("paper_energy_err", fidelity.energy_err(), "share"),
    ];
    Ok(Outcome {
        attempted: timed.attempted,
        failed: timed.failed,
        metrics,
    })
}

fn traced(workload: Workload, prepared: &Prepared, seconds: f64) -> Result<Outcome, String> {
    let (layers, attempted, failed) = trace::run_traced(workload, prepared, seconds)?;
    println!(
        "# traced pipeline reproduced the engine's state_hash for all {} distinct requests",
        prepared.generated.lines.len()
    );
    println!(
        "# traced pipeline / handle_line wall time {:.4} (this also holds engine work the pipeline skips, and noise)",
        layers.wall_ratio()
    );
    let all = layers.metrics();
    println!("# per-layer breakdown ({workload}, {attempted} traced requests; layers not listed do not run here):");
    for (name, value, unit) in &all {
        println!("#   {name:<28} {value:>14.3} {unit}");
    }
    let metrics = if Workload::BOUNDED.contains(&workload) {
        PER_LAYER
            .iter()
            .map(|name| {
                all.iter()
                    .find(|(n, _, _)| n == name)
                    .copied()
                    .ok_or_else(|| format!("{workload}: the traced run did not measure `{name}`"))
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        all
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn print_fidelity(workload: Workload, fidelity: Fidelity) {
    println!(
        "# paper fidelity (HyPar/DP geomean, 10 nets, batch 256, 16 accelerators): \
         performance {:.2}x vs paper {:.2}x (err {:.4}), energy {:.2}x vs paper {:.2}x (err {:.4})",
        fidelity.perf,
        run::PAPER_PERF,
        fidelity.perf_err(),
        fidelity.energy,
        run::PAPER_ENERGY,
        fidelity.energy_err(),
    );
    if workload == Workload::DagRefine {
        println!("# dag_refine has no paper reference: its simulated step times and energies are unvalidated");
    }
}

fn result_json(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a non-finite value is a bug in
            // the benchmark, reported as such rather than as a number.
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_owned()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_clean_and_traces_every_listed_metric() {
        for workload in Workload::ALL {
            let prepared = run::prepare(workload, 7).unwrap();
            let timed = run::run_timed(workload, &prepared, 1.0);
            assert!(timed.attempted > 0, "{workload}");
            assert_eq!(timed.failed, 0, "{workload}");
            // The traced pipeline must reproduce every engine reply.
            let (layers, attempted, failed) = trace::run_traced(workload, &prepared, 0.2).unwrap();
            assert!(attempted > 0, "{workload}");
            assert_eq!(failed, 0, "{workload}");
            if !Workload::BOUNDED.contains(&workload) {
                continue;
            }
            let measured = layers.metrics();
            for name in PER_LAYER {
                assert!(
                    measured.iter().any(|(n, v, _)| *n == name && v.is_finite()),
                    "{workload}: {name} missing"
                );
            }
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_the_result_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("latency_p50_ms", 1.25, "ms")],
        };
        let value: serde::Value = serde_json::from_str(&result_json(true, &outcome)).unwrap();
        assert_eq!(
            value.get("correct").and_then(serde::Value::as_bool),
            Some(true)
        );
        assert_eq!(
            value.get("attempted").and_then(serde::Value::as_u64),
            Some(3)
        );
        let metric = value
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .unwrap();
        assert_eq!(
            metric.get("unit").and_then(serde::Value::as_str),
            Some("ms")
        );
    }
}
