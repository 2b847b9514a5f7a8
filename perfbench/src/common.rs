//! What the three workloads share: the run context, input generation,
//! the boundary spec a `.hum` file implies, report formatting, and the
//! result every workload returns.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use hb_cells::Library;
use hb_io::{HumFile, TimingDirective};
use hb_units::Time;
use hb_workloads::{generate, random_pipeline, GenKind, GenParams, PipelineParams, Workload};
use hummingbird::{Analyzer, EdgeSpec, Spec, TimingReport};

use crate::stats::Metric;
use crate::trace::Tracer;

/// Input sizes: `Full` is the benchmark, `Small` the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// Everything one run is told on its command line.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Scratch directory for generated inputs and the span dump.
    pub work: PathBuf,
    /// This executable, re-run as the set-up generator.
    pub exe: PathBuf,
    /// The `hummingbird` binary the daemon workload serves from.
    pub hummingbird: PathBuf,
}

impl Ctx {
    /// How many times set-up runs; `setup_s` is the median.
    pub fn setup_repeats(&self) -> usize {
        match self.size {
            Size::Full => 5,
            Size::Small => 2,
        }
    }
}

/// What a workload hands back to be printed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed operations and failed checks, by kind; every kind the
    /// workload can fail in is listed, at 0 when nothing failed.
    pub failed_by_kind: BTreeMap<&'static str, u64>,
    /// Descriptions of what failed.
    pub failures: Vec<String>,
    /// The end-to-end metrics every workload reports.
    pub end_to_end: Vec<Metric>,
    /// Reference figures of this workload alone (printed, not bounded).
    pub figures: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Extra human-readable lines (the traced run's span table).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome that can fail in `kinds`, and in failed checks.
    pub fn new(kinds: &[&'static str]) -> Outcome {
        let mut failed_by_kind: BTreeMap<&'static str, u64> =
            kinds.iter().map(|&k| (k, 0)).collect();
        failed_by_kind.insert(CHECK, 0);
        Outcome {
            failed_by_kind,
            ..Outcome::default()
        }
    }

    /// Records one failure of the given kind.
    pub fn fail(&mut self, kind: &'static str, what: String) {
        *self.failed_by_kind.entry(kind).or_insert(0) += 1;
        self.failures.push(what);
    }

    /// Records one checked property: attempted, and failed when false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(CHECK, what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed_by_kind.values().sum()
    }

    /// Whether every answer checked was right (operations that failed
    /// outright are counted in `failed`, not here).
    pub fn correct(&self) -> bool {
        self.failed_by_kind.get(CHECK).copied().unwrap_or(0) == 0
    }
}

/// The failure kind of a check that found a wrong answer.
pub const CHECK: &str = "check";

/// The generator families the workloads draw from; `Closable` is a
/// small flip-flop pipeline clocked just below its min period, so that
/// Algorithm 3 meets timing before its iteration cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Gen(GenKind),
    Closable,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Gen(k) => k.name(),
            Family::Closable => "closable",
        }
    }

    pub fn parse(s: &str) -> Option<Family> {
        match s {
            "closable" => Some(Family::Closable),
            other => GenKind::parse(other).map(Family::Gen),
        }
    }
}

/// One generated input: family, size and seed fix it byte for byte.
#[derive(Clone, Debug)]
pub struct Input {
    pub family: Family,
    pub cells: usize,
    pub seed: u64,
    pub path: PathBuf,
}

impl Input {
    pub fn new(family: Family, cells: usize, seed: u64, tag: &str, work: &Path) -> Input {
        let seed = derive_seed(seed, tag);
        Input {
            family,
            cells,
            seed,
            path: work.join(format!("{tag}.hum")),
        }
    }

    /// The design in memory, built without passing through text.
    pub fn generate(&self, lib: &Library) -> Workload {
        match self.family {
            Family::Gen(kind) => generate(lib, &GenParams::new(kind, self.cells, self.seed)),
            Family::Closable => {
                let at = |period_ns: i64| {
                    random_pipeline(
                        lib,
                        PipelineParams {
                            stages: 3,
                            width: 8,
                            gates_per_stage: self.cells / 3,
                            transparent: false,
                            period_ns,
                            seed: self.seed,
                            imbalance_pct: 0,
                        },
                    )
                };
                // Clock it about 6% faster than its min period: a deficit
                // a few rounds of resizing close on every seed tried.
                let relaxed = at(1_000);
                let min_period = Analyzer::new(
                    &relaxed.design,
                    relaxed.module,
                    lib,
                    &relaxed.clocks,
                    relaxed.spec.clone(),
                )
                .and_then(|a| a.parametric())
                .ok()
                .and_then(|p| p.min_feasible_period())
                .expect("a flip-flop pipeline meets timing at a 1 us clock");
                at((min_period.as_ps() as f64 * 0.94 / 1_000.0).floor() as i64)
            }
        }
    }
}

/// The run seed the `pipeline` designs of `daemon-eco` and
/// `closure-loop` are drawn from, whatever `--seed` says. On that family
/// the work varies with the generator seed far more than between runs:
/// one ECO re-analysis ran 7.8 Algorithm 1 cycles on one seed and 43.6 on
/// another, and the symbolic table of a 10k-cell pipeline with no
/// feasible period spans from 15 ns on some seeds and from 73 ns on
/// others, which moves peak memory by 40 MB. Every other input follows
/// `--seed`.
pub const PIPELINE_SEED: u64 = 0;

/// A per-input seed drawn from the run's seed and the input's tag.
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    tag.bytes().fold(hb_rng::mix64(seed, 0x5eed), |acc, b| {
        hb_rng::mix64(acc, u64::from(b))
    })
}

/// Writes every input from a child process of this executable, so the
/// generator's memory never counts towards the measured process's peak.
/// Returns the generator's own time per input, in nanoseconds.
pub fn write_inputs(ctx: &Ctx, inputs: &[Input]) -> Result<Vec<u64>, String> {
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work.display()))?;
    let mut cmd = Command::new(&ctx.exe);
    cmd.arg("gen");
    for i in inputs {
        cmd.arg(&i.path)
            .arg(i.family.name())
            .arg(i.cells.to_string())
            .arg(i.seed.to_string());
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the generator: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "generator failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let ns: Vec<u64> = text
        .lines()
        .filter_map(|l| l.strip_prefix("gen_ns "))
        .filter_map(|v| v.trim().parse().ok())
        .collect();
    if ns.len() != inputs.len() {
        return Err(format!(
            "generator reported {} of {} inputs",
            ns.len(),
            inputs.len()
        ));
    }
    Ok(ns)
}

/// The body of the `gen` child: `gen (PATH FAMILY CELLS SEED)...`.
pub fn gen_main(args: &[String]) -> Result<(), String> {
    if args.is_empty() || !args.len().is_multiple_of(4) {
        return Err("gen wants PATH FAMILY CELLS SEED groups".into());
    }
    let lib = hb_cells::sc89();
    for group in args.chunks(4) {
        let family = Family::parse(&group[1]).ok_or("unknown family")?;
        let cells = group[2].parse().map_err(|_| "bad cell count")?;
        let seed = group[3].parse().map_err(|_| "bad seed")?;
        let input = Input {
            family,
            cells,
            seed,
            path: PathBuf::from(&group[0]),
        };
        let start = Instant::now();
        let text = input.generate(&lib).to_hum();
        let ns = start.elapsed().as_nanos();
        std::fs::write(&input.path, text)
            .map_err(|e| format!("cannot write {}: {e}", input.path.display()))?;
        println!("gen_ns {ns}");
    }
    Ok(())
}

/// The boundary spec a parsed `.hum` file implies, built the way
/// `hummingbird analyze` builds it with no command-line overrides: the
/// file's directives, and when the file binds no clock port, each clock
/// bound to the port of its own name.
pub fn spec_for(file: &HumFile) -> Spec {
    let mut spec = Spec::new();
    let mut file_clock_ports = false;
    for d in &file.timing {
        match d {
            TimingDirective::ClockPort { port, clock } => {
                spec = spec.clock_port(port, clock);
                file_clock_ports = true;
            }
            TimingDirective::Arrive { port, edge, offset } => {
                spec = spec.input_arrival(
                    port,
                    EdgeSpec::new(&edge.0, edge.1).at_occurrence(edge.2),
                    *offset,
                );
            }
            TimingDirective::Require { port, edge, offset } => {
                spec = spec.output_required(
                    port,
                    EdgeSpec::new(&edge.0, edge.1).at_occurrence(edge.2),
                    *offset,
                );
            }
        }
    }
    if !file_clock_ports {
        if let Some(top) = file.design.top() {
            for (_, clock) in file.clocks.clocks() {
                if file.design.module(top).port_by_name(clock.name()).is_some() {
                    spec = spec.clock_port(clock.name(), clock.name());
                }
            }
        }
    }
    spec
}

/// The report text `hummingbird analyze` prints for a report: the
/// summary, the terminal slack histogram and the first five slow paths.
pub fn format_report(report: &TimingReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{report}");
    let _ = writeln!(out, "terminal slack distribution:");
    for (lo, n) in report.slack_histogram(Time::from_ns(1), 12) {
        if n > 0 {
            let _ = writeln!(
                out,
                "  {:>10} .. | {}",
                lo.to_string(),
                "#".repeat(n.min(60))
            );
        }
    }
    for path in report.slow_paths().iter().take(5) {
        let _ = writeln!(
            out,
            "slow path into {} (slack {}):",
            path.endpoint, path.slack
        );
        for step in &path.steps {
            match &step.through {
                Some(inst) => {
                    let _ = writeln!(out, "    -> {} via {} at {}", step.net, inst, step.time);
                }
                None => {
                    let _ = writeln!(out, "    from {} at {}", step.net, step.time);
                }
            }
        }
    }
    for v in report.min_delay_violations() {
        let _ = writeln!(out, "{v}");
    }
    out
}

/// The properties every timing report must have: the worst slack is the
/// minimum terminal slack, `ok` holds exactly when it is above zero, and
/// step times never decrease along a slow path.
pub fn report_properties(report: &TimingReport) -> Result<(), String> {
    let min_terminal = report
        .terminal_slacks()
        .iter()
        .map(|t| t.slack)
        .min()
        .unwrap_or(Time::INF);
    if report.worst_slack() != min_terminal {
        return Err(format!(
            "worst slack {} is not the minimum terminal slack {min_terminal}",
            report.worst_slack()
        ));
    }
    if report.ok() != (report.worst_slack() > Time::ZERO) {
        return Err(format!(
            "ok={} disagrees with worst slack {}",
            report.ok(),
            report.worst_slack()
        ));
    }
    for path in report.slow_paths() {
        if path.steps.windows(2).any(|w| w[1].time < w[0].time) {
            return Err(format!(
                "step times decrease along the path into {}",
                path.endpoint
            ));
        }
    }
    Ok(())
}

/// Peak resident set (VmHWM) of a process, in MB; `None` reads this one.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Runs `f` once per set-up repetition and returns the median wall
/// time in seconds with the last repetition's result.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    tracer: &mut Tracer,
    mut f: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<(Metric, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..ctx.setup_repeats() {
        // Drop the previous repetition's state first, so only one set
        // of inputs (and one daemon) exists at a time.
        drop(last.take());
        let start = Instant::now();
        let value = f(tracer)?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((
        Metric::median_of("setup_s", "s", &times),
        last.expect("at least one set-up"),
    ))
}
