//! `file-report`: generated designs taken cold from disk to a formatted
//! report, in the sequence `hummingbird analyze` runs, repeated in
//! rounds.

use std::collections::HashMap;
use std::time::Instant;

use hb_cells::Library;
use hb_workloads::GenKind;
use hummingbird::{AnalysisOptions, Analyzer, EngineKind};

use crate::common::{
    format_report, peak_rss_mb, repeat_setup, report_properties, spec_for, write_inputs, Ctx,
    Family, Input, Outcome, Size, CHECK,
};
use crate::layers::{count_prep, from_spans, prepare_from_spans, set};
use crate::stats::Metric;
use crate::trace::{EngineTotals, PrepPhases, Tracer};

fn inputs(ctx: &Ctx) -> Vec<Input> {
    let cells = match ctx.size {
        Size::Full => 100_000,
        Size::Small => 2_000,
    };
    [GenKind::Pipeline, GenKind::Sbox, GenKind::Sram]
        .into_iter()
        .map(|k| {
            Input::new(
                Family::Gen(k),
                cells,
                ctx.seed,
                &format!("report-{}", k.name()),
                &ctx.work,
            )
        })
        .collect()
}

/// One file to a formatted report, with a span around every public call.
fn file_to_report(
    input: &Input,
    lib: &Library,
    tr: &mut Tracer,
    phases: &PrepPhases,
) -> Result<String, String> {
    let read = tr.open("io.read");
    let text = std::fs::read_to_string(&input.path)
        .map_err(|e| format!("cannot read {}: {e}", input.path.display()))?;
    tr.close(read);
    tr.count("io.bytes", text.len() as f64);

    let parse = tr.open("io.parse");
    let file = hb_io::parse_hum(&text, lib).map_err(|e| format!("parse: {e}"))?;
    tr.close(parse);
    drop(text);

    let top = file.design.top().ok_or("the design has no top")?;
    let validate = tr.open("netlist.validate");
    file.design
        .validate()
        .map_err(|e| format!("invalid design: {e}"))?;
    tr.close(validate);

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

    let analyze = tr.open("core.analyze");
    let report = analyzer.analyze();
    tr.close(analyze);

    let format = tr.open("core.report");
    let text = format_report(&report);
    tr.close(format);
    Ok(text)
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let lib = hb_cells::sc89();
    let inputs = inputs(ctx);
    let (setup, ()) = repeat_setup(ctx, tr, |tr| {
        for ns in write_inputs(ctx, &inputs)? {
            tr.record("gen", ns);
        }
        Ok(())
    })?;

    let phases = PrepPhases::new();
    let engine_before = tr.on().then(EngineTotals::now);
    let mut out = Outcome::new(&[]);
    let mut round_s = Vec::new();
    let mut texts: Vec<Option<String>> = vec![None; inputs.len()];
    let start = Instant::now();
    while round_s.len() < 3 || start.elapsed().as_secs_f64() < ctx.seconds {
        let round = Instant::now();
        for (i, input) in inputs.iter().enumerate() {
            tr.next_request();
            out.attempted += 1;
            let op = tr.open("op.file_report");
            let text = file_to_report(input, &lib, tr, &phases)?;
            tr.close(op);
            // Every round must print the same report for the same file.
            match &texts[i] {
                None => texts[i] = Some(text),
                Some(first) if *first == text => {}
                Some(_) => out.fail(
                    CHECK,
                    format!("{}: report changed between rounds", input.family.name()),
                ),
            }
        }
        round_s.push(round.elapsed().as_secs_f64());
    }
    let rss = peak_rss_mb(None)?;
    let engine = engine_before.map(|b| EngineTotals::now().since(b));

    for (input, text) in inputs.iter().zip(&texts) {
        check_file(input, text.as_deref().unwrap_or(""), &lib, &mut out)?;
    }

    out.end_to_end = vec![
        setup,
        Metric::value("peak_rss_mb", "MB", rss, 1),
        Metric::median_of("round_s", "s", &round_s),
    ];
    out.figures = vec![Metric::median_of("report_s", "s", &round_s)];
    if let Some(engine) = engine {
        out.per_layer = layer_metrics(tr, engine);
    }
    Ok(out)
}

/// Checks one file's report against computations made apart from the
/// path under test.
fn check_file(
    input: &Input,
    printed: &str,
    lib: &Library,
    out: &mut Outcome,
) -> Result<(), String> {
    let name = input.family.name();
    let text = std::fs::read_to_string(&input.path).map_err(|e| e.to_string())?;
    let file = hb_io::parse_hum(&text, lib).map_err(|e| e.to_string())?;
    let top = file.design.top().ok_or("no top")?;
    let spec = spec_for(&file);
    let sharded = Analyzer::new(&file.design, top, lib, &file.clocks, spec.clone())
        .map_err(|e| e.to_string())?
        .analyze();
    out.check(format_report(&sharded) == printed, || {
        format!("{name}: the timed rounds printed a different report")
    });
    out.check(report_properties(&sharded).is_ok(), || {
        format!("{name}: {}", report_properties(&sharded).unwrap_err())
    });

    // The retained reference engine, bit for bit.
    let reference = Analyzer::with_options(
        &file.design,
        top,
        lib,
        &file.clocks,
        spec,
        AnalysisOptions {
            engine: EngineKind::Reference,
            ..AnalysisOptions::default()
        },
    )
    .map_err(|e| e.to_string())?
    .analyze();
    let same_terminals = sharded.terminal_slacks().len() == reference.terminal_slacks().len()
        && sharded
            .terminal_slacks()
            .iter()
            .zip(reference.terminal_slacks())
            .all(|(a, b)| {
                a.name == b.name && a.pulse == b.pulse && a.kind == b.kind && a.slack == b.slack
            });
    let module = file.design.module(top);
    let same_nets = module
        .nets()
        .all(|(net, _)| sharded.net_slack(net) == reference.net_slack(net));
    let same_paths = sharded.slow_paths().len() == reference.slow_paths().len()
        && sharded
            .slow_paths()
            .iter()
            .zip(reference.slow_paths())
            .all(|(a, b)| {
                a.endpoint == b.endpoint && a.slack == b.slack && a.steps.len() == b.steps.len()
            });
    out.check(
        sharded.worst_slack() == reference.worst_slack()
            && sharded.ok() == reference.ok()
            && same_terminals
            && same_nets
            && same_paths,
        || format!("{name}: sharded engine disagrees with the reference engine"),
    );

    // The generator's in-memory design, which never passes through text.
    let w = input.generate(lib);
    let direct = Analyzer::new(&w.design, w.module, lib, &w.clocks, w.spec.clone())
        .map_err(|e| e.to_string())?
        .analyze();
    let direct_module = w.design.module(w.module);
    let by_name: HashMap<&str, hb_units::Time> = direct_module
        .nets()
        .map(|(id, n)| (n.name(), direct.net_slack(id)))
        .collect();
    let nets_match = module.net_count() == direct_module.net_count()
        && module
            .nets()
            .all(|(id, n)| by_name.get(n.name()) == Some(&sharded.net_slack(id)));
    out.check(format_report(&direct) == printed && nets_match, || {
        format!("{name}: the report from the file differs from the in-memory design's")
    });
    Ok(())
}

/// The per-layer figures the traced run reports for this workload.
fn layer_metrics(tr: &Tracer, engine: EngineTotals) -> Vec<Metric> {
    let mut m = from_spans(tr);
    prepare_from_spans(&mut m, tr);
    engine.set_layers(&mut m);
    // The benchmark's own span around `analyze()`, rather than the
    // engine's evaluation time alone.
    let files = tr.calls("core.analyze");
    set(
        &mut m,
        "core.analyze_ms",
        tr.mean_self_ms("core.analyze"),
        files,
    );
    set(
        &mut m,
        "core.report_ms",
        tr.mean_self_ms("core.report"),
        files,
    );
    m
}
