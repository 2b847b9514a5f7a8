//! The per-layer metrics the traced run prints. Every workload prints
//! the whole list; a layer the workload does not exercise reads 0.

use crate::stats::Metric;
use hummingbird::PrepStats;

use crate::trace::Tracer;

/// Name and unit of every per-layer metric, grouped by layer.
pub const LAYERS: &[(&str, &str)] = &[
    // hb-io
    ("io.read_ms", "ms"),
    ("io.parse_ms", "ms"),
    ("io.parse_mb_per_s", "MB/s"),
    // hb-netlist
    ("netlist.validate_ms", "ms"),
    // hummingbird preparation (hb-sta graph, hb-clock pass cover)
    ("core.prepare_ms", "ms"),
    ("core.prep.graph_build_ms", "ms"),
    ("core.prep.controls_ms", "ms"),
    ("core.prep.pass_planning_ms", "ms"),
    ("core.prep.other_ms", "ms"),
    ("core.clusters", "count"),
    ("core.cluster_passes", "count"),
    // hummingbird engine, Algorithms 1 and 2
    ("core.analyze_ms", "ms"),
    ("engine.sweep_ms", "ms"),
    ("engine.items_scheduled", "count"),
    ("engine.items_reused", "count"),
    ("engine.reuse_ratio", "ratio"),
    ("alg1.cycles", "count"),
    // hummingbird report
    ("core.report_ms", "ms"),
    // hummingbird symbolic
    ("symbolic.build_ms", "ms"),
    ("symbolic.solve_us", "us"),
    ("symbolic.regions", "count"),
    // hb-resynth
    ("resynth.iterations", "count"),
    ("resynth.edits", "count"),
    ("resynth.iteration_ms", "ms"),
    ("eco.apply_us", "us"),
    // hb-server
    ("server.eco_handle_ms", "ms"),
    ("server.eco_wait_ms", "ms"),
    ("server.eco_rest_ms", "ms"),
    ("server.read_handle_us", "us"),
    ("server.load_ms", "ms"),
    // hb-workloads
    ("gen.ms", "ms"),
    // the load generator itself
    ("loadgen.late_ms", "ms"),
];

/// Every per-layer metric at 0.
pub fn empty() -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit)| Metric::value(name, unit, 0.0, 0))
        .collect()
}

/// Sets one metric's value and sample count.
pub fn set(metrics: &mut [Metric], name: &str, value: f64, samples: usize) {
    let m = metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
    m.value = if value.is_finite() { value } else { 0.0 };
    m.samples = samples;
}

/// Counts the clusters and cluster passes one preparation produced.
pub fn count_prep(tr: &mut Tracer, stats: PrepStats) {
    tr.count("core.clusters", stats.active_clusters as f64);
    tr.count("core.cluster_passes", stats.total_cluster_passes as f64);
}

/// Every per-layer metric, with those the benchmark's own spans give
/// filled in: file read, parse, validation and input generation.
pub fn from_spans(tr: &Tracer) -> Vec<Metric> {
    let mut m = empty();
    let parses = tr.calls("io.parse");
    let parse_s = tr.total_s("io.parse");
    let mb = tr.count_sum("io.bytes") / 1e6;
    set(
        &mut m,
        "io.read_ms",
        tr.mean_self_ms("io.read"),
        tr.calls("io.read"),
    );
    set(&mut m, "io.parse_ms", tr.mean_self_ms("io.parse"), parses);
    let rate = if parse_s > 0.0 { mb / parse_s } else { 0.0 };
    set(&mut m, "io.parse_mb_per_s", rate, parses);
    let validations = tr.calls("netlist.validate");
    set(
        &mut m,
        "netlist.validate_ms",
        tr.mean_self_ms("netlist.validate"),
        validations,
    );
    set(&mut m, "gen.ms", tr.mean_self_ms("gen"), tr.calls("gen"));
    m
}

/// Preparation time, its phases and its cluster counts, for the
/// `Analyzer::with_options` calls the benchmark made in-process.
pub fn prepare_from_spans(m: &mut [Metric], tr: &Tracer) {
    let calls = tr.calls("core.prepare");
    let prepare = tr.mean_self_ms("core.prepare");
    let graph = tr.count_mean("core.prep.graph_build");
    let controls = tr.count_mean("core.prep.controls");
    let planning = tr.count_mean("core.prep.pass_planning");
    set(m, "core.prepare_ms", prepare, calls);
    set(m, "core.prep.graph_build_ms", graph, calls);
    set(m, "core.prep.controls_ms", controls, calls);
    set(m, "core.prep.pass_planning_ms", planning, calls);
    set(
        m,
        "core.prep.other_ms",
        prepare - graph - controls - planning,
        calls,
    );
    set(m, "core.clusters", tr.count_mean("core.clusters"), calls);
    set(
        m,
        "core.cluster_passes",
        tr.count_mean("core.cluster_passes"),
        calls,
    );
}
