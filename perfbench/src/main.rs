//! The synthesis-loop benchmark.
//!
//! ```text
//! perfbench --workload file-report|daemon-eco|closure-loop --seed N
//!           --seconds S --trace 0|1 [--small] [--work DIR]
//!           [--hummingbird PATH]
//! ```
//!
//! Prints each metric by name with its unit and sample count, then, as
//! the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). Exits 0 only when every check passed. See README.md.

mod closure_loop;
mod common;
mod daemon_eco;
mod file_report;
mod layers;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::{Ctx, Outcome, Size};
use stats::Metric;
use trace::Tracer;

const WORKLOADS: &[&str] = &["file-report", "daemon-eco", "closure-loop"];

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut work = PathBuf::from(".bench_work");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut hummingbird = exe.with_file_name("hummingbird");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds wants a positive number")?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--small" => size = Size::Small,
            "--work" => work = PathBuf::from(value()?),
            "--hummingbird" => hummingbird = PathBuf::from(value()?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
        work,
        exe,
        hummingbird,
    };
    Ok((workload, ctx))
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn json(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed(),
        body.join(", ")
    )
}

fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.trace {
        // Arm the program's own hb-obs spans (preparation phases, engine
        // sweeps) for the traced run only.
        hb_obs::arm();
    }
    let mut tr = Tracer::new(ctx.trace, Instant::now());
    let mut out = match workload {
        "file-report" => file_report::run(ctx, &mut tr)?,
        "daemon-eco" => daemon_eco::run(ctx, &mut tr)?,
        "closure-loop" => closure_loop::run(ctx, &mut tr)?,
        _ => unreachable!("checked when parsing"),
    };
    if ctx.trace {
        let path = ctx.work.join(format!("trace-{workload}.tsv"));
        std::fs::write(&path, tr.dump())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.notes
            .push(format!("spans written to {}", path.display()));
        out.notes.push(tr.table());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gen") {
        return match common::gen_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench gen: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&workload, &ctx) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    // The traced run also prints its end-to-end figures, so the tracing
    // overhead is the difference from an untraced run.
    for m in &out.end_to_end {
        println!("{}", m.line());
    }
    for m in &out.figures {
        println!("  {}", m.line());
    }
    if ctx.trace {
        for m in &out.per_layer {
            println!("{}", m.line());
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    let kinds: Vec<String> = out
        .failed_by_kind
        .iter()
        .map(|(kind, n)| format!("{kind}={n}"))
        .collect();
    println!(
        "attempted {} failed {} ({})",
        out.attempted,
        out.failed(),
        kinds.join(" ")
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let shown = if ctx.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!("{}", json(&out, shown));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
