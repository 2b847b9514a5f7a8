//! `closure-loop`: each round answers min-period cold for every design
//! (parse → `Analyzer` → `parametric()` → `min_feasible_period()`), then
//! runs Algorithm 3 (`hb_resynth::optimize`) on a fresh copy of each.

use std::time::Instant;

use hb_cells::Library;
use hb_clock::ClockSet;
use hb_io::HumFile;
use hb_netlist::{Design, ModuleId};
use hb_resynth::{optimize, ResynthOptions, ResynthOutcome};
use hb_units::Time;
use hb_workloads::GenKind;
use hummingbird::{AnalysisOptions, Analyzer, Spec};

use crate::common::{
    peak_rss_mb, repeat_setup, spec_for, write_inputs, Ctx, Family, Input, Outcome, Size,
    PIPELINE_SEED,
};
use crate::layers::{count_prep, from_spans, prepare_from_spans, set};
use crate::stats::Metric;
use crate::trace::{EngineTotals, PrepPhases, Tracer};

fn inputs(ctx: &Ctx) -> Vec<Input> {
    let (small, large, closable) = match ctx.size {
        Size::Full => (10_000, 30_000, 1_200),
        Size::Small => (1_000, 2_000, 600),
    };
    vec![
        Input::new(
            Family::Gen(GenKind::Pipeline),
            small,
            PIPELINE_SEED,
            "closure-pipeline",
            &ctx.work,
        ),
        Input::new(
            Family::Gen(GenKind::Sbox),
            small,
            ctx.seed,
            "closure-sbox",
            &ctx.work,
        ),
        Input::new(
            Family::Gen(GenKind::Sram),
            large,
            ctx.seed,
            "closure-sram",
            &ctx.work,
        ),
        Input::new(
            Family::Closable,
            closable,
            ctx.seed,
            "closure-closable",
            &ctx.work,
        ),
    ]
}

/// A design held in memory for the redesign loop's fresh copies.
struct Loaded {
    name: &'static str,
    design: Design,
    top: ModuleId,
    clocks: ClockSet,
    spec: Spec,
}

fn load(input: &Input, lib: &Library) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(&input.path).map_err(|e| e.to_string())?;
    let file = hb_io::parse_hum(&text, lib).map_err(|e| format!("parse: {e}"))?;
    let spec = spec_for(&file);
    let HumFile { design, clocks, .. } = file;
    Ok(Loaded {
        name: input.family.name(),
        top: design.top().ok_or("no top")?,
        design,
        clocks,
        spec,
    })
}

/// One min-period answer and the grid it was solved on.
#[derive(Clone, Debug, PartialEq)]
struct MinPeriod {
    answer: Option<Time>,
    stride: Time,
    lo: Time,
    hi: Time,
    nominal: Time,
}

/// Min-period from cold: the file on disk to the solved period.
fn min_period(
    input: &Input,
    lib: &Library,
    tr: &mut Tracer,
    phases: &PrepPhases,
) -> Result<MinPeriod, String> {
    let read = tr.open("io.read");
    let text = std::fs::read_to_string(&input.path).map_err(|e| e.to_string())?;
    tr.close(read);
    tr.count("io.bytes", text.len() as f64);
    let parse = tr.open("io.parse");
    let file = hb_io::parse_hum(&text, lib).map_err(|e| format!("parse: {e}"))?;
    tr.close(parse);
    let validate = tr.open("netlist.validate");
    file.design
        .validate()
        .map_err(|e| format!("invalid design: {e}"))?;
    tr.close(validate);
    let top = file.design.top().ok_or("no top")?;
    let analyzer = phases
        .prepare(tr, || {
            Analyzer::with_options(
                &file.design,
                top,
                lib,
                &file.clocks,
                spec_for(&file),
                AnalysisOptions::default(),
            )
        })
        .map_err(|e| format!("prepare: {e}"))?;
    count_prep(tr, analyzer.prep_stats());
    let build = tr.open("symbolic.build");
    let param = analyzer
        .parametric()
        .map_err(|e| format!("{}: parametric: {e}", input.family.name()))?;
    tr.close(build);
    tr.count("symbolic.regions", param.region_count() as f64);
    let solve = tr.open("symbolic.solve");
    let answer = param.min_feasible_period();
    tr.close(solve);
    let (lo, hi) = param.domain();
    Ok(MinPeriod {
        answer,
        stride: param.stride(),
        lo,
        hi,
        nominal: param.nominal_period(),
    })
}

/// Rescales every clock so the overall period lands exactly on
/// `period`: clock times sit on the parametric grid, so the scaling is
/// exact integer arithmetic.
fn clocks_at(clocks: &ClockSet, mp: &MinPeriod, period: Time) -> Result<ClockSet, String> {
    let stride = mp.stride.as_ps();
    let g = i128::from(mp.nominal.as_ps() / stride);
    let k = i128::from(period.as_ps() / stride);
    let scale = |t: Time| -> Result<Time, String> {
        let scaled = i128::from(t.as_ps()) * k;
        if scaled % g != 0 {
            return Err(format!("clock time {t} is off the grid"));
        }
        i64::try_from(scaled / g)
            .map(Time::from_ps)
            .map_err(|_| "scaled clock time overflows".to_owned())
    };
    let mut out = ClockSet::new();
    for (_, c) in clocks.clocks() {
        out.add_clock(
            c.name(),
            scale(c.period())?,
            scale(c.rise())?,
            scale(c.fall())?,
        )
        .map_err(|e| format!("rescaled clock is invalid: {e}"))?;
    }
    Ok(out)
}

/// Whether a cold numeric analysis meets timing at `period`.
fn feasible_at(d: &Loaded, mp: &MinPeriod, period: Time, lib: &Library) -> Result<bool, String> {
    let clocks = clocks_at(&d.clocks, mp, period)?;
    Ok(
        Analyzer::new(&d.design, d.top, lib, &clocks, d.spec.clone())
            .map_err(|e| e.to_string())?
            .analyze()
            .ok(),
    )
}

/// The comparable part of a redesign outcome, for the same-every-round
/// check.
fn fingerprint(o: &ResynthOutcome) -> String {
    format!(
        "{} {} {} {} {} {:?} {} {}",
        o.met,
        o.iterations,
        o.edits,
        o.resizes,
        o.buffers,
        o.worst_slack_history,
        o.area_before,
        o.area_after
    )
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let lib = hb_cells::sc89();
    let inputs = inputs(ctx);
    let (setup, loaded) = repeat_setup(ctx, tr, |tr| {
        for ns in write_inputs(ctx, &inputs)? {
            tr.record("gen", ns);
        }
        inputs
            .iter()
            .map(|i| load(i, &lib))
            .collect::<Result<Vec<_>, _>>()
    })?;

    let phases = PrepPhases::new();
    let mut out = Outcome::new(&[]);
    let mut minperiod_s = Vec::new();
    let mut resynth_s = Vec::new();
    let mut first: Option<(Vec<MinPeriod>, Vec<String>)> = None;
    let mut last: Vec<(ResynthOutcome, Design)> = Vec::new();
    let mut last_periods = Vec::new();
    // The engine runs only inside the redesign loop's analyses: the
    // symbolic min-period path sweeps nothing.
    let engine_before = tr.on().then(EngineTotals::now);
    let start = Instant::now();
    while minperiod_s.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let mut periods = Vec::new();
        for input in &inputs {
            tr.next_request();
            out.attempted += 1;
            let op = tr.open("op.min_period");
            periods.push(min_period(input, &lib, tr, &phases)?);
            tr.close(op);
        }
        minperiod_s.push(t.elapsed().as_secs_f64());

        let mut total = 0.0;
        let mut outcomes = Vec::new();
        for d in &loaded {
            let mut design = d.design.clone();
            tr.next_request();
            out.attempted += 1;
            let span = tr.open("resynth.optimize");
            let t = Instant::now();
            let outcome = optimize(
                &mut design,
                d.top,
                &lib,
                &d.clocks,
                &d.spec,
                ResynthOptions::default(),
            )
            .map_err(|e| format!("{}: optimize: {e}", d.name))?;
            total += t.elapsed().as_secs_f64();
            tr.close(span);
            tr.count("resynth.iterations", outcome.iterations as f64);
            tr.count("resynth.edits", outcome.edits as f64);
            outcomes.push((outcome, design));
        }
        resynth_s.push(total);

        // Every round must reach the same answers.
        let prints: Vec<String> = outcomes.iter().map(|(o, _)| fingerprint(o)).collect();
        match &first {
            None => first = Some((periods.clone(), prints)),
            Some((p, r)) => out.check(*p == periods && *r == prints, || {
                "a later round answered differently from the first".to_owned()
            }),
        }
        last = outcomes;
        last_periods = periods;
    }
    let rss = peak_rss_mb(None)?;
    let engine = engine_before.map(|b| EngineTotals::now().since(b));

    for ((d, mp), (outcome, edited)) in loaded.iter().zip(&last_periods).zip(&last) {
        out.notes.push(format!(
            "{:<9} cells={:<6} min period {:?} on stride {} in [{}, {}]; redesign met={} after {} iterations, {} edits",
            d.name,
            d.design.stats(d.top).cells,
            mp.answer.map(|p| p.to_string()),
            mp.stride,
            mp.lo,
            mp.hi,
            outcome.met,
            outcome.iterations,
            outcome.edits
        ));
        check_min_period(d, mp, &lib, &mut out)?;
        check_redesign(d, outcome, edited, &lib, &mut out)?;
    }

    let round_s: Vec<f64> = minperiod_s
        .iter()
        .zip(&resynth_s)
        .map(|(a, b)| a + b)
        .collect();
    out.end_to_end = vec![
        setup,
        Metric::value("peak_rss_mb", "MB", rss, 1),
        Metric::median_of("round_s", "s", &round_s),
    ];
    out.figures = vec![
        Metric::median_of("minperiod_s", "s", &minperiod_s),
        Metric::median_of("resynth_s", "s", &resynth_s),
    ];
    if let Some(engine) = engine {
        out.per_layer = layer_metrics(tr, engine);
    }
    Ok(out)
}

/// Feasible at the answer and infeasible one stride below it; with no
/// answer, infeasible at the top of the domain.
fn check_min_period(
    d: &Loaded,
    mp: &MinPeriod,
    lib: &Library,
    out: &mut Outcome,
) -> Result<(), String> {
    let name = d.name;
    match mp.answer {
        Some(p) => {
            let at = feasible_at(d, mp, p, lib)?;
            out.check(at, || format!("{name}: infeasible at its min period {p}"));
            if p > mp.lo {
                let below = Time::from_ps(p.as_ps() - mp.stride.as_ps());
                let under = feasible_at(d, mp, below, lib)?;
                out.check(!under, || {
                    format!("{name}: still feasible one stride below {p}")
                });
            }
        }
        None => {
            let top = feasible_at(d, mp, mp.hi, lib)?;
            out.check(!top, || {
                format!("{name}: no min period, yet feasible at {}", mp.hi)
            });
        }
    }
    Ok(())
}

/// A cold analysis of the returned design reproduces the loop's last
/// worst slack and its verdict; the edit and area books balance.
fn check_redesign(
    d: &Loaded,
    o: &ResynthOutcome,
    edited: &Design,
    lib: &Library,
    out: &mut Outcome,
) -> Result<(), String> {
    let name = d.name;
    let cold = Analyzer::new(edited, d.top, lib, &d.clocks, d.spec.clone())
        .map_err(|e| e.to_string())?
        .analyze();
    out.check(
        o.worst_slack_history.last() == Some(&cold.worst_slack()),
        || {
            format!(
                "{name}: last worst slack {:?} differs from the cold analysis {}",
                o.worst_slack_history.last(),
                cold.worst_slack()
            )
        },
    );
    out.check(o.met == cold.ok(), || {
        format!("{name}: met={} but cold ok={}", o.met, cold.ok())
    });
    out.check(o.edits == o.resizes + o.buffers, || {
        format!(
            "{name}: {} edits but {} resizes + {} buffers",
            o.edits, o.resizes, o.buffers
        )
    });
    out.check(o.area_after >= o.area_before, || {
        format!(
            "{name}: area fell from {} to {}",
            o.area_before, o.area_after
        )
    });
    Ok(())
}

fn layer_metrics(tr: &Tracer, engine: EngineTotals) -> Vec<Metric> {
    let mut m = from_spans(tr);
    prepare_from_spans(&mut m, tr);
    engine.set_layers(&mut m);
    let builds = tr.calls("symbolic.build");
    set(
        &mut m,
        "symbolic.build_ms",
        tr.mean_self_ms("symbolic.build"),
        builds,
    );
    set(
        &mut m,
        "symbolic.solve_us",
        tr.mean_self_ms("symbolic.solve") * 1e3,
        builds,
    );
    set(
        &mut m,
        "symbolic.regions",
        tr.count_mean("symbolic.regions"),
        builds,
    );
    let runs = tr.calls("resynth.optimize");
    let iterations = tr.count_sum("resynth.iterations");
    set(
        &mut m,
        "resynth.iterations",
        tr.count_mean("resynth.iterations"),
        runs,
    );
    set(
        &mut m,
        "resynth.edits",
        tr.count_mean("resynth.edits"),
        runs,
    );
    let per_iteration = if iterations > 0.0 {
        tr.total_s("resynth.optimize") * 1e3 / iterations
    } else {
        0.0
    };
    set(
        &mut m,
        "resynth.iteration_ms",
        per_iteration,
        iterations as usize,
    );
    m
}
