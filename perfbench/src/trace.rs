//! The traced run's span recorder and the readers of the program's own
//! hb-obs series.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into a layer: name, start, end, parent span and request id, kept in
//! memory and written out when the run ends. A layer's self time is its
//! span minus the part its child spans cover. With tracing off, opening
//! a span does nothing and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use hb_obs::Histogram;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// A per-thread span recorder. Threads that share a run share an
/// `origin`, so their spans merge onto one time axis.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, (f64, usize)>,
}

/// A handle on an open span; closing a disabled span is a no-op.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Starts a new request: spans opened from here share its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span (and any still open inside it).
    pub fn close(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
            self.spans[top].end_ns = end;
        }
    }

    /// Records a span measured elsewhere (a child process, a server
    /// reply) as a closed child of the innermost open span.
    pub fn record(&mut self, name: &'static str, nanos: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
    }

    /// Adds one observation of a counted quantity.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if !self.on {
            return;
        }
        let e = self.counts.entry(name).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    /// Folds another thread's recorder into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            // Keeps the other thread's request ids apart from this one's.
            s.request += 1_000_000_000;
            self.spans.push(s);
        }
        for (name, (sum, n)) in other.counts {
            let e = self.counts.entry(name).or_insert((0.0, 0));
            e.0 += sum;
            e.1 += n;
        }
    }

    /// Per-name totals: `(calls, total span ns, total self ns)`.
    pub fn layers(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Mean self time of one span name, in milliseconds (0 if never
    /// recorded).
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        self.layers()
            .get(name)
            .map_or(0.0, |&(n, _, own)| own as f64 / n as f64 / 1e6)
    }

    /// Total span time of one name, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.layers()
            .get(name)
            .map_or(0.0, |&(_, total, _)| total as f64 / 1e9)
    }

    /// Calls recorded under one span name.
    pub fn calls(&self, name: &str) -> usize {
        self.layers().get(name).map_or(0, |&(n, _, _)| n)
    }

    /// Mean of a counted quantity (0 if never observed).
    pub fn count_mean(&self, name: &str) -> f64 {
        self.counts
            .get(name)
            .map_or(0.0, |&(sum, n)| sum / n as f64)
    }

    /// Sum of a counted quantity.
    pub fn count_sum(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |&(sum, _)| sum)
    }

    /// The per-layer self-time table printed by the traced run.
    pub fn table(&self) -> String {
        let mut out = String::from(
            "span                          calls     total_ms      self_ms  mean_self_ms\n",
        );
        for (name, (n, total, own)) in self.layers() {
            let _ = writeln!(
                out,
                "{name:<28} {n:>7} {:>12.3} {:>12.3} {:>13.4}",
                total as f64 / 1e6,
                own as f64 / 1e6,
                own as f64 / n as f64 / 1e6
            );
        }
        out
    }

    /// The spans as tab-separated lines: id, name, start, end, parent,
    /// request.
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// The in-process `hb_prep_nanoseconds{phase}` series: read before and
/// after a call to attribute its preparation phases to it.
pub struct PrepPhases {
    phases: [Histogram; 3],
}

/// Preparation phase totals, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
struct PhaseNs {
    graph: u64,
    controls: u64,
    planning: u64,
}

impl PrepPhases {
    pub fn new() -> PrepPhases {
        let g = hb_obs::global();
        let h = |phase: &str| {
            g.histogram_with(
                "hb_prep_nanoseconds",
                "preprocessing wall time, by phase",
                &[("phase", phase)],
            )
        };
        PrepPhases {
            phases: [
                h("graph-build"),
                h("controls-and-replicas"),
                h("pass-planning"),
            ],
        }
    }

    /// Runs `prepare` inside a `core.prepare` span and counts the time
    /// it spent in each preparation phase.
    pub fn prepare<T>(&self, tr: &mut Tracer, prepare: impl FnOnce() -> T) -> T {
        let before = tr.on().then(|| self.read());
        let span = tr.open("core.prepare");
        let out = prepare();
        tr.close(span);
        if let Some(b) = before {
            let a = self.read();
            tr.count("core.prep.graph_build", (a.graph - b.graph) as f64 / 1e6);
            tr.count("core.prep.controls", (a.controls - b.controls) as f64 / 1e6);
            tr.count(
                "core.prep.pass_planning",
                (a.planning - b.planning) as f64 / 1e6,
            );
        }
        out
    }

    fn read(&self) -> PhaseNs {
        PhaseNs {
            graph: self.phases[0].sum(),
            controls: self.phases[1].sum(),
            planning: self.phases[2].sum(),
        }
    }
}

/// Engine and Algorithm 1 totals from an hb-obs exposition: the
/// in-process registry's or the daemon's `metrics` reply.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineTotals {
    pub analyses: f64,
    pub sweep_ns: f64,
    pub evaluate_ns: f64,
    pub scheduled: f64,
    pub reused: f64,
    pub cycles: f64,
}

impl EngineTotals {
    pub fn from_exposition(text: &str) -> EngineTotals {
        let s = |name: &str, labels: &[(&str, &str)]| sum_series(text, name, labels) as f64;
        EngineTotals {
            analyses: s("hb_analyses_total", &[]),
            sweep_ns: s("hb_engine_sweep_nanoseconds_sum", &[]),
            evaluate_ns: s("hb_engine_evaluate_nanoseconds_sum", &[]),
            scheduled: s("hb_engine_items_scheduled_total", &[]),
            reused: s("hb_engine_items_reused_total", &[]),
            cycles: ["forward", "backward", "partial_forward", "partial_backward"]
                .iter()
                .map(|it| s("hb_alg_cycles_total", &[("iteration", it)]))
                .sum(),
        }
    }

    /// The in-process registry's totals so far.
    pub fn now() -> EngineTotals {
        EngineTotals::from_exposition(&hb_obs::global().render())
    }

    pub fn since(self, earlier: EngineTotals) -> EngineTotals {
        EngineTotals {
            analyses: self.analyses - earlier.analyses,
            sweep_ns: self.sweep_ns - earlier.sweep_ns,
            evaluate_ns: self.evaluate_ns - earlier.evaluate_ns,
            scheduled: self.scheduled - earlier.scheduled,
            reused: self.reused - earlier.reused,
            cycles: self.cycles - earlier.cycles,
        }
    }

    /// Sets the engine and Algorithm 1 per-layer metrics, per analysis.
    pub fn set_layers(&self, metrics: &mut [crate::stats::Metric]) {
        use crate::layers::set;
        let n = self.analyses as usize;
        let per = |v: f64| {
            if self.analyses > 0.0 {
                v / self.analyses
            } else {
                0.0
            }
        };
        set(metrics, "core.analyze_ms", per(self.evaluate_ns) / 1e6, n);
        set(metrics, "engine.sweep_ms", per(self.sweep_ns) / 1e6, n);
        set(metrics, "engine.items_scheduled", per(self.scheduled), n);
        set(metrics, "engine.items_reused", per(self.reused), n);
        let ratio = if self.scheduled > 0.0 {
            self.reused / self.scheduled
        } else {
            0.0
        };
        set(metrics, "engine.reuse_ratio", ratio, n);
        set(metrics, "alg1.cycles", per(self.cycles), n);
    }
}

/// Sums every exposition sample named `name` whose labels include all
/// of `labels`.
pub fn sum_series(text: &str, name: &str, labels: &[(&str, &str)]) -> u64 {
    let samples = hb_obs::parse_exposition(text).unwrap_or_default();
    let mut total = 0.0;
    for (series, value) in samples {
        let (base, rest) = match series.find('{') {
            Some(i) => (&series[..i], &series[i..]),
            None => (series.as_str(), ""),
        };
        if base != name {
            continue;
        }
        if labels
            .iter()
            .all(|(k, v)| rest.contains(&format!("{k}=\"{v}\"")))
        {
            total += value;
        }
    }
    total as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.open("outer");
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.record("inner", 1_000);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.close(outer);
        let layers = t.layers();
        let (n, total, own) = layers["outer"];
        assert_eq!(n, 1);
        assert_eq!(total - own, 1_000);
        assert_eq!(layers["inner"].2, 1_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.open("x");
        t.count("c", 1.0);
        t.close(s);
        assert!(t.layers().is_empty());
        assert_eq!(t.count_mean("c"), 0.0);
    }

    #[test]
    fn series_sum_filters_labels() {
        let text = "# HELP m h\n# TYPE m counter\nm{verb=\"eco\",stage=\"handle\"} 5\nm{verb=\"slack\",stage=\"handle\"} 7\n";
        assert_eq!(sum_series(text, "m", &[("verb", "eco")]), 5);
        assert_eq!(sum_series(text, "m", &[]), 12);
    }
}
